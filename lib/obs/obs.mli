(** Observability: monotonic clock, metrics registry, span tracing.

    Zero-dependency (stdlib + unix) substrate shared by every execution
    layer.  The overhead contract: with both switches off, every hook in
    the instrumented hot paths reduces to a single [bool ref] check — no
    allocation, no system call, no formatting.  Enabling metrics turns the
    counter/histogram hooks into plain mutable-field updates; enabling
    tracing additionally timestamps spans and buffers trace events in
    memory until {!Trace.export}. *)

(** Metrics switch.  Hot-path hooks read this ref directly; prefer
    {!set_metrics} to flip it. *)
val metrics_on : bool ref

val set_metrics : bool -> unit

(** [set_tracing true] also stamps the trace epoch (the zero point of
    exported timestamps) if it is not already set. *)
val set_tracing : bool -> unit

(** Both switches off; buffered trace events and registered metric values
    are retained. *)
val disable_all : unit -> unit

(** {1 Clock} *)

module Clock : sig
  (** The wall clock ([Unix.gettimeofday]).  Non-monotonic — NTP steps
      can move it backwards — so it is used only for epoch fields of
      exported artifacts (trace files, job manifests), never for
      durations or deadline arithmetic. *)
  val wall_s : unit -> float

  (** [monotonize sample] wraps a possibly non-monotonic sampler into a
      non-decreasing one: a sample below the running maximum is clamped
      to that maximum (so deltas are never negative, at the price of
      reading 0 across a backwards step). *)
  val monotonize : (unit -> float) -> unit -> float

  (** The process-wide monotonic clock, in seconds from an arbitrary
      epoch: CLOCK_MONOTONIC via a C stub, immune to NTP steps, and
      monotonized as belt and braces around the stub's wall-clock
      fallback.  All obs timestamps, governor deadlines and bench
      timings go through this. *)
  val now_s : unit -> float
end

(** {1 Metrics}

    A process-global registry of named counters and log-scale histograms.
    Creation is idempotent per name and cheap enough for module-toplevel
    use; updates are dropped while {!metrics_on} is false. *)

module Metrics : sig
  type counter
  type histogram

  (** Find-or-create; one instance per name process-wide. *)
  val counter : string -> counter

  (** Find-or-create.  Histograms bucket observations by [log2]: bucket
      [i >= 1] counts values in [[2^(i-1), 2^i)], bucket 0 counts
      non-positive and zero values. *)
  val histogram : string -> histogram

  val incr : counter -> unit
  val add : counter -> int -> unit
  val observe : histogram -> int -> unit

  val value : counter -> int

  (** All counters with their current values, sorted by name. *)
  val snapshot : unit -> (string * int) list

  (** [diff before after] — the counters of [after] minus their values in
      [before], zero deltas dropped. *)
  val diff : (string * int) list -> (string * int) list -> (string * int) list

  (** Zero every counter and histogram (registrations survive). *)
  val reset : unit -> unit

  (** The whole registry as a JSON object:
      [{"counters": {..}, "histograms": {..}}]. *)
  val to_json : unit -> string

  (** Human-readable dump of every non-zero counter and histogram. *)
  val pp_summary : Format.formatter -> unit -> unit
end

(** {1 Tracing}

    Hierarchical spans buffered as Chrome trace-event "X" (complete)
    events; nesting is implied by timestamp containment on the single
    track, which is how the Chrome/Perfetto viewers render it. *)

module Trace : sig
  (** [with_span name ?args f] runs [f] inside a span.  With tracing off
      this is a single flag check around [f ()].  [args] is evaluated at
      span end (tracing on only), so it can read counters [f] filled in. *)
  val with_span :
    string -> ?args:(unit -> (string * int) list) -> (unit -> 'a) -> 'a

  (** Buffered event count. *)
  val events : unit -> int

  val clear : unit -> unit

  (** Write the buffered events to [file] as a Chrome trace-event JSON
      array (load via chrome://tracing or ui.perfetto.dev). *)
  val export : string -> unit

  (** The trace as a JSON string (what {!export} writes). *)
  val to_json : unit -> string
end
