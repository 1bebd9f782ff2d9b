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

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Semantics} *)

val shared_of : conn -> Graph.edge -> int
val free_of : conn -> Graph.edge -> int

(** Is a pair of edges with the given labels anchored at (x, x')
    present? *)
val pair_present : Graph.t -> conn -> Label.t * Label.t -> int * int -> bool

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

(** The semi-naive chase: each stage only examines lhs pairs using at
    least one edge added since the previous stage (both trigger
    conditions are monotone, so no active trigger is missed), and fires
    the stage's triggers in the canonical (rule, direction, x, x') order,
    so fresh vertex ids are deterministic.  The fire-time re-check reads
    a table of the stage's own fired pairs (every new edge touches its
    firing's fresh vertex, so four packed keys per firing decide it
    exactly) rather than probing the graph per trigger.  Its reference
    is the bridged TGD chase ({!Bridge.reference_chase}), which
    [Oracle.Diff.diff_graph] holds it to: equal edge journals, stages
    and applications.

    The [governor] (default [Resilience.Governor.unlimited]) adds a
    deadline, stage/element/edge budgets and cooperative cancellation —
    checked at stage boundaries (cancellation also inside the read-only
    scans), so a governed run cut short is the prefix of the ungoverned
    one; the verdict is [stats.outcome]. *)
val chase :
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  ?stop:(Graph.t -> bool) ->
  t list ->
  Graph.t ->
  stats

(** Definition 11 for L₂, bounded: chase D_I and watch for the 1-2
    pattern. *)
val leads_to_red_spider :
  ?max_stages:int ->
  t list ->
  [ `Leads of stats * Graph.t
  | `Does_not_lead of stats * Graph.t
  | `Unknown of stats * Graph.t ]
