(** Green-graph rewriting rules — the set L₂ of Section VI — and their
    chase.  [I1 &·· I2 ] I3 &·· I4] is the equivalence
    [∀x,x' (∃y H(I1,x,y) ∧ H(I2,x',y)) ⇔ (∃y H(I3,x,y) ∧ H(I4,x',y))];
    [/··] shares sources instead. *)

type conn = Amp | Slash

type t = {
  conn : conn;
  l1 : Label.t;
  l2 : Label.t;
  r1 : Label.t;
  r2 : Label.t;
  name : string;
}

(** @raise Invalid_argument on reserved labels or I1 = I3 / I2 = I4. *)
val make : ?name:string -> conn -> Label.t * Label.t -> Label.t * Label.t -> t

val amp : ?name:string -> Label.t * Label.t -> Label.t * Label.t -> t
val slash : ?name:string -> Label.t * Label.t -> Label.t * Label.t -> t

val pp : Format.formatter -> t -> unit

(** Canonical 128-bit digest of a rule list: connector + label pairs in
    rule order, names excluded.  Order-sensitive, because firing order
    determines fresh-vertex identity. *)
val digest_hex : t list -> string

(** {1 Semantics} *)

val shared_of : conn -> Graph.edge -> int
val free_of : conn -> Graph.edge -> int

(** Is a pair of edges with the given labels anchored at (x, x')
    present? *)
val pair_present : Graph.t -> conn -> Label.t * Label.t -> int * int -> bool

(** Both directions of the equivalence. *)
val triggers : t -> Graph.t -> ((Label.t * int) * (Label.t * int)) list

val fire : t -> Graph.t -> (Label.t * int) * (Label.t * int) -> unit

val models : t list -> Graph.t -> bool

val find_violation :
  t list -> Graph.t -> (t * ((Label.t * int) * (Label.t * int))) option

type stats = {
  stages : int;
  applications : int;
  triggers_considered : int;
  fixpoint : bool;  (** [outcome = Fixpoint], kept for existing callers *)
  outcome : Resilience.Governor.outcome;  (** how the run ended *)
}

val pp_stats : Format.formatter -> stats -> unit

(** Trigger-discovery engines, mirroring {!Tgd.Chase.engine}: [`Stage]
    rescans the whole graph each stage and re-checks every trigger
    against the graph at fire time — the reference.  [`Par] only
    examines lhs pairs using at least one edge added since the previous
    stage — equivalent (both trigger conditions are monotone) and
    asymptotically cheaper.  It runs one task per (rule, direction) on a
    work-stealing domain pool, inline at one worker, and merges their
    sorted pairs in canonical order; there is no separate one-worker
    path.  [`Seminaive] (the default) is [`Par] at one worker.  All
    engines fire a stage's triggers in the same canonical order, so they
    build identical graphs, fresh vertex ids included.  The semi-naive
    firing re-checks freshness against a table of the stage's own fired
    pairs (every new edge touches its firing's fresh vertex, so four
    packed keys per firing decide the re-check exactly) rather than
    probing the graph per trigger; ["par.shards"] and ["par.steals"]
    count the fan-out and stealing traffic.

    Under the ["par.shard"] failpoint a marked task dies before scanning
    its direction; the scan walks [Resilience.Failpoint.ladder] (retry
    once, then run the same tasks inline), so the run stays
    bit-identical to an un-faulted one. *)
type engine = [ `Stage | `Seminaive | `Par ]

(** A resumable graph-chase snapshot: the graph (a
    journal-order-preserving Marshal clone), the semi-naive watermark and
    the counters; the graph chase keeps no cross-stage dedup state.
    [gsnap_stage] is the last completed stage.  Closure-free, so
    [Resilience.Checkpoint.save]/[load] round-trips it exactly. *)
type snapshot = {
  gsnap_engine : engine;
  gsnap_stage : int;
  gsnap_wm : int;
  gsnap_considered : int;
  gsnap_applications : int;
  gsnap_rules : t list;
  gsnap_graph : Graph.t;
}

(** [jobs] bounds the [`Par] engine's worker count (default
    [Relational.Pool.default_jobs ()]; [`Seminaive] always runs one,
    [`Stage] ignores it).  The
    [governor] (default [Resilience.Governor.unlimited]) adds a
    deadline, stage/element/edge budgets and cooperative cancellation —
    checked at stage boundaries (cancellation also inside the read-only
    scans), so a governed run cut short is the bit-identical prefix of
    the ungoverned one; the verdict is [stats.outcome].  When
    [on_snapshot] is given, a resumable {!snapshot} is delivered every
    [snapshot_every] (default 1) completed stages and at the final stage
    of a cleanly-ended run.  [from] resumes a snapshot (used by
    {!resume}). *)
val chase :
  ?engine:engine ->
  ?jobs:int ->
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  ?stop:(Graph.t -> bool) ->
  ?snapshot_every:int ->
  ?on_snapshot:(snapshot -> unit) ->
  ?from:snapshot ->
  t list ->
  Graph.t ->
  stats

(** Continue a checkpointed graph chase in place on the snapshot's own
    graph (clone the snapshot first if it must stay reusable); the engine
    is the snapshot's.  Prefix + resume is bit-identical — edges, fresh
    vertex ids and stats — to one uninterrupted run with the same
    absolute [max_stages] and budgets.  Raises [Invalid_argument] if the
    rule list differs from the snapshot's. *)
val resume :
  ?jobs:int ->
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  ?stop:(Graph.t -> bool) ->
  ?snapshot_every:int ->
  ?on_snapshot:(snapshot -> unit) ->
  t list ->
  snapshot ->
  stats * Graph.t

(** Definition 11 for L₂, bounded: chase D_I and watch for the 1-2
    pattern. *)
val leads_to_red_spider :
  ?max_stages:int ->
  t list ->
  [ `Leads of stats * Graph.t
  | `Does_not_lead of stats * Graph.t
  | `Unknown of stats * Graph.t ]
