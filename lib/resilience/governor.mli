(** The resource governor: one record bundling wall-clock deadline, stage
    fuel, element/fact/step budgets and a cooperative cancellation token,
    threaded through the chase engines ([Tgd.Chase], [Greengraph.Rule]),
    the hom evaluator and the rainworm creeping semantics.  The engines
    report a structured {!outcome} instead of the old [fixpoint : bool].

    Budgets and the deadline are polled at stage boundaries only, so a
    governed run cut at stage [i] is the bit-identical prefix of the
    ungoverned run.  The cancellation token is additionally polled inside
    the read-only discovery scans, where aborting cannot tear the
    structure. *)

(** Cooperative cancellation tokens. *)
module Cancel : sig
  type t

  val create : unit -> t
  val trip : t -> unit
  val reset : t -> unit
  val tripped : t -> bool

  val never : t
  (** The inert token shared by ungoverned runs; never tripped. *)

  exception Cancelled
  (** Raised by {!poll} out of a read-only scan when the armed token has
      tripped; caught by the engines at the stage boundary. *)

  val with_polling : t -> (unit -> 'a) -> 'a
  (** Arm [t] for hot-path polling within the callback (saving and
      restoring any previously armed token).  The armed state is
      domain-local: concurrent scans on other domains neither observe
      [t] nor disturb this domain's arming. *)

  val poll : unit -> unit
  (** The hot-path poll: one global load when no domain is armed
      anywhere, raising {!Cancelled} when the token armed by this
      domain's enclosing {!with_polling} has tripped. *)
end

type budget_kind =
  | Stages  (** stage fuel exhausted ([max_stages]) *)
  | Elems   (** element budget exceeded *)
  | Facts   (** fact budget exceeded *)
  | Steps   (** step/cycle fuel exhausted (rainworm creeping) *)
  | Stop    (** a caller-supplied [stop] predicate held *)

type outcome =
  | Fixpoint            (** no trigger was active at the last stage *)
  | Budget of budget_kind  (** a deterministic budget cut the run *)
  | Deadline            (** the wall-clock deadline passed *)
  | Cancelled           (** the cancellation token tripped *)
  | Faulted of string   (** an injected (or real) fault aborted the run;
                            the payload names the failpoint site *)

type t = {
  deadline : float option;
      (** absolute deadline on the [Obs.Clock.now_s] timeline *)
  max_stages : int;
  max_elems : int;
  max_facts : int;
  max_steps : int;
  cancel : Cancel.t;
}

val unlimited : t
(** No deadline, no budgets, the {!Cancel.never} token.  The default of
    every run function; physically compared so ungoverned runs skip all
    governor work. *)

val make :
  ?deadline_in:float ->
  ?deadline:float ->
  ?max_stages:int ->
  ?max_elems:int ->
  ?max_facts:int ->
  ?max_steps:int ->
  ?cancel:Cancel.t ->
  unit ->
  t
(** [deadline_in dt] sets the absolute deadline [dt] seconds from now;
    [deadline] (absolute) wins when both are given. *)

val is_unlimited : t -> bool
val cancelled : t -> bool
val deadline_passed : t -> bool

val interrupted : t -> outcome option
(** The stage-boundary poll: [Some Cancelled] if the token tripped, else
    [Some Deadline] if the deadline passed, else [None]. *)

val over_budget : t -> elems:int -> facts:int -> outcome option
(** Element/fact budget check, also polled at stage boundaries. *)

val with_scope : t -> (unit -> 'a) -> 'a
(** Arm hot-path cancellation polling for the callback iff the governor
    carries a real (non-{!Cancel.never}) token. *)

val run_stages :
  t ->
  span:string ->
  start_stage:int ->
  max_stages:int ->
  sizes:(unit -> int * int) ->
  stop:(unit -> bool) ->
  snapshot_every:int ->
  snapshot:(int -> unit) ->
  (int -> int * int) ->
  int * outcome
(** [run_stages g ~span ~start_stage … step] is the governed stage loop
    every chase runs: [step i] runs stage [i] (collect, then fire) and
    returns its trigger and firing counts, inside a [span] trace span.
    Stages [start_stage + 1, …] run until the first of: a stage fires
    nothing ([Fixpoint]); stage [min max_stages g.max_stages] is done
    ([Budget Stages]); {!interrupted} at a stage boundary; a size budget,
    checked on [sizes ()] (elements, facts) after each stage and only
    when either size budget is finite; [stop ()] after a stage ([Budget Stop]).
    A step raising {!Cancel.Cancelled} or [Failpoint.Injected] ends the
    run at stage [i - 1] with [Cancelled] or [Faulted] and no snapshot,
    since the step may have left state ahead of the last boundary.
    [snapshot i] is called every [snapshot_every] stages counted from
    [start_stage] and at every other ending, at most once per stage.
    Returns the last completed stage and the outcome. *)

val pp_outcome : Format.formatter -> outcome -> unit

val exit_code : outcome -> int
(** The documented CLI taxonomy: 0 fixpoint, 3 budget/deadline, 4
    cancelled, 1 faulted. *)
