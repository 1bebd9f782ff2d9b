(** The differential runner: chase the same generated instance under
    [`Stage], [`Seminaive], [`Oblivious] and [`Par] with staged firing
    forced on, with fuel and element budgets, then diff
    structures, firing sequences and stats; cross-check CQ containment
    and cores against independent semantics; and audit every produced
    structure/graph with {!Audit}.

    Bit-identity is compared on facts, journals and firing sequences,
    plus the stats-record fields ([applications], [stages],
    [triggers_considered], [body_matches]) — never on the [hom.*] effort
    counters, which tick inside the pool and are approximate when the
    [`Par] run uses more than one worker.

    A run that exhausts its budget ends in the graceful
    {!outcome.Budget_exceeded} instead of diverging — the oblivious
    baseline diverges often (condition ­ is exactly what keeps the lazy
    chase tame), so budget exhaustion is an expected outcome, reported in
    the {!report} rate, not a failure. *)

open Relational

(** {1 Budgets} *)

type budget = {
  max_stages : int;  (** chase fuel: stages before cutting a run *)
  max_elems : int;   (** element budget, checked after every stage *)
  max_facts : int;   (** fact budget (edge budget for graph cases) *)
}

val default_budget : budget

(** {1 Single-engine runs} *)

(** How a governed run ended, collapsed for comparison purposes:
    [Budget_exceeded] covers every budget-like ending (stage fuel,
    element/fact budgets, deadline, cancellation); [Faulted] is an
    injected failpoint that was reported rather than recovered. *)
type outcome = Fixpoint | Budget_exceeded | Faulted

val pp_outcome : Format.formatter -> outcome -> unit

(** Collapse an engine's structured verdict onto {!outcome}. *)
val outcome_of_chase : Tgd.Chase.stats -> outcome

(** One firing of the chase, as recorded through [Chase.run ~on_fire]. *)
type firing = { at_stage : int; dep : string; frontier : (string * int) list }

type engine_run = {
  engine : Tgd.Chase.engine;
  outcome : outcome;
  stats : Tgd.Chase.stats;
  result : Structure.t;
  firings : firing list;
}

(** Chase a fresh realization of the instance under one engine, within
    the budget.  [tuning] selects the parallel engine's plan/firing
    knobs (ignored by the others). *)
val run_tgd :
  ?tuning:Tgd.Chase.par_tuning ->
  budget ->
  Tgd.Chase.engine ->
  Gen.instance ->
  engine_run

(** Diff the instance across all four runs: [`Stage], [`Seminaive] and
    [`Par] with staged firing forced on must agree
    bit-for-bit (equal fact sets with equal element ids, equal journals
    in insertion order, equal firing sequences, equal
    applications/stages/fixpoint; delta-restriction never considering
    more than stage, and the sharded merge considering exactly what
    semi-naive does), every result must pass the structure audit, and a
    run that reached its fixpoint must model the dependencies.

    A pair of engines whose outcomes differ (one hit a budget where the
    other reached fixpoint, or one faulted) is {e incomparable}: its
    bit-identity diffs are skipped and the pair is counted in the third
    component instead of producing a spurious violation.  Returns the
    violations, the four runs and the incomparable-pair count.

    [`Par] at its default tuning is not a run of its own: with more
    than one worker it stages, which is the staged run, and at one
    worker it is [`Seminaive]. *)
val diff_tgd : budget -> Gen.instance -> string list * engine_run list * int

(** Chase a green-graph case with {!Greengraph.Rule.chase} and with its
    reference {!Greengraph.Bridge.reference_chase} (the bridged rules
    under [Tgd.Chase]'s [`Stage] engine, which shares no code with the
    graph engine).  When the two outcomes agree, the runs must end the
    same way and have equal edge journals (fresh vertex ids included),
    stages and applications, and the graph engine may consider no more
    pairs than the reference; the graph output must pass
    {!audit_graph_output}, and a graph fixpoint must model the rules.
    Returns the violations, the two outcomes (graph, reference) and the
    incomparable-pair count. *)
val diff_graph : budget -> Gen.graph_case -> string list * outcome list * int

(** [diff_graph]'s audit of a graph output: {!Audit.structure} on the
    graph's structure, skipped (no violations) for a graph past four
    times the budget, as for [diff_tgd]'s results. *)
val audit_graph_output : budget -> Greengraph.Graph.t -> string list

(** {1 CQ cross-checks} *)

(** Check containment/core primitives over the signature against
    independent semantics: [contained_in q1 q2] must equal evaluating
    [q2] on the canonical database of [q1] (Chandra–Merlin), claimed
    containments must be monotone on a random instance, and [fold]'s
    iterated core must be equivalent to the input and minimal by
    {!Audit.fold_witness}.  [fold] defaults to
    [Cq.Containment.fold_step]; tests re-inject buggy legacy
    implementations through it to prove the harness catches them. *)
val cq_checks :
  ?fold:(Cq.Query.t -> Cq.Query.t option) ->
  Gen.rng ->
  Symbol.t list ->
  Structure.t ->
  string list

(** {1 The audit harness} *)

type report = {
  seed : int;
  cases : int;
  engine_runs : int;          (** chase runs executed across all cases *)
  budget_exceeded : int;      (** runs cut by fuel or element budgets *)
  incomparable : int;
      (** engine pairs with differing outcomes, skipped rather than
          diffed — not violations *)
  violations : (int * string list) list;
      (** failing cases: (case index, shrunk violation descriptions) *)
}

(** Run [cases] generated cases from [seed], starting at absolute case
    index [from_case] (default 0): per case, a seed-structure audit, the
    four-run TGD differential (shrunk on failure), the CQ cross-checks
    and a green-graph differential.  Deterministic: case [i] depends
    only on [(seed, i)] — never on other cases — so the range
    [[from_case, from_case+cases)] is a {e shard} whose report does not
    depend on how the remaining cases are split or ordered (the
    property campaign sharding relies on). *)
val run_cases :
  ?budget:budget ->
  ?fold:(Cq.Query.t -> Cq.Query.t option) ->
  ?from_case:int ->
  seed:int ->
  cases:int ->
  unit ->
  report

val pp_report : Format.formatter -> report -> unit
