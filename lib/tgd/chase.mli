(** The chase (Section II.C).

    The paper's chase is "lazy": a pair (T, b̄) fires only when the body
    matches at the frontier tuple b̄ (condition ¬) and no head witness
    exists yet (condition ­).  A stage enumerates the pairs over the
    stage-start structure and applies the survivors, re-checking ­ as the
    structure grows; [chase_i] is the structure after stage [i]. *)

open Relational

type stats = {
  stages : int;              (** stages executed *)
  applications : int;        (** TGD firings *)
  triggers_considered : int;
      (** distinct (TGD, frontier tuple) pairs examined.  Body matches are
          deduplicated by frontier key before they count: two matches that
          differ only in their existential witnesses are the same pair
          (T, b̄) of the paper and count once.  The dedup table is
          per-stage for [`Stage] and per-run for the delta pipeline
          ([`Seminaive], [`Par] and [`Oblivious]), whose persistent tables
          make the counts comparable across engines.  The paper's raw
          pair enumeration — every body homomorphism — is
          [body_matches]. *)
  body_matches : int;
      (** raw body matches enumerated, before frontier deduplication —
          the cost driver of trigger discovery.  [`Stage] counts every
          match of every stage's full rescan; the delta pipeline,
          [`Oblivious] included, counts only the matches that use a fact
          added since the previous stage, so it reports fewer. *)
  fixpoint : bool;
      (** [outcome = Fixpoint], kept for existing callers *)
  outcome : Resilience.Governor.outcome;
      (** how the run ended: fixpoint, a deterministic budget (stage
          fuel, element/fact budget, a [stop] predicate), the wall-clock
          deadline, cooperative cancellation, or an injected fault. *)
}

val pp_stats : Format.formatter -> stats -> unit

(** Trigger-discovery engines.  [`Stage] re-enumerates every body
    homomorphism against the whole structure at every stage — the
    reference the other lazy engines are held to.  [`Par] only matches
    bodies against homomorphisms that use at least one fact added since
    the previous stage, which is equivalent (conditions ¬ and ­ are
    monotone, so stale matches are inactive forever) and asymptotically
    cheaper, with discovery and firing fanned out over a domain pool
    (disjoint delta shards, canonical sorted merge — still
    bit-identical).  [`Seminaive] (the default) is [`Par] at one worker:
    the same code, labelled apart so its snapshots resume as
    [`Seminaive].  [`Oblivious] is the semi-oblivious (skolem) chase,
    the ablation baseline: the [`Seminaive] pipeline without condition
    ­, so every (T, b̄) fires exactly once, at its first discovery.  It
    diverges more often than the lazy chase.  [`Stage] is the reference
    for the oracle and the tests; the CLI and the daemon do not offer
    it. *)
type engine = [ `Stage | `Seminaive | `Oblivious | `Par ]

val pp_engine : Format.formatter -> engine -> unit

(** Knobs of the delta pipeline, exposed for the ablation bench and the
    oracle.  [par_fire] selects the firing path: [`Staged] the
    partitioned-writer staging pipeline unconditionally, [`Auto]
    (default) staged only with more than one worker or under an active
    failpoint campaign, the sequential delta-recheck replay otherwise.
    [stealing] (default [true]) picks work-stealing over static
    round-robin scheduling.  Every combination builds the same structure,
    journal, firing sequence and stats — only wall-clock moves. *)
type par_tuning = {
  par_fire : [ `Auto | `Staged ];
  stealing : bool;
}

val default_tuning : par_tuning

(** A resumable snapshot of a delta-pipeline run ([`Stage] takes none):
    the structure (a journal-order-preserving Marshal clone), the
    semi-naive watermark, the per-TGD persistent dedup keys in canonical
    sorted order and the stat counters.  [snap_stage] is the last
    completed stage; {!resume} continues at [snap_stage + 1] with
    absolute stage numbering.  The record is closure-free, so
    [Resilience.Checkpoint.save]/[load] round-trips it exactly. *)
type snapshot = {
  snap_engine : [ `Seminaive | `Oblivious | `Par ];
  snap_stage : int;
  snap_wm : int;
  snap_seen : (int * int array list) list;
  snap_considered : int;
  snap_matches : int;
  snap_applications : int;
  snap_deps : string list;
  snap_structure : Structure.t;
}

(** Fire (T, b̄): add a fresh copy of A[Ψ] glued along b̄. *)
val apply : Structure.t -> Dep.t -> Hom.binding -> unit

(** Run the chase in place for at most [max_stages] stages, until the
    fixpoint, until [stop] holds (checked after each stage), or until the
    [governor] interrupts the run.  Stage numbers stamp provenance into
    the structure.  [engine] selects the trigger-discovery engine
    (default [`Seminaive]); the lazy engines share the canonical
    per-stage firing order, so [`Stage], [`Seminaive] and [`Par] build
    identical structures, fresh element ids included; [`Oblivious] fires
    in the same canonical order.  [on_fire] observes
    every firing in order — (stage, TGD, frontier binding) — before its
    head atoms are added; the oracle's differential runner records the
    firing sequence through it.  [jobs] bounds the [`Par] engine's worker
    count (default [Pool.default_jobs ()]; [`Seminaive] and [`Oblivious]
    always run one) and [tuning] its firing path (default
    {!default_tuning}); [`Stage] ignores both, and takes no snapshots.

    The [governor] (default [Resilience.Governor.unlimited]) bundles a
    wall-clock deadline, stage fuel, element/fact budgets and a
    cooperative cancellation token.  Budgets and the deadline are checked
    at stage boundaries only, so a governed run cut short is the
    bit-identical prefix of the ungoverned run; cancellation is
    additionally polled inside read-only discovery scans.  The structured
    verdict is [stats.outcome].

    When [on_snapshot] is given, a resumable {!snapshot} is delivered
    every [snapshot_every] (default 1) completed stages and at the final
    stage of a cleanly-ended run (a mid-scan cancellation or fault skips
    the final snapshot: the last boundary snapshot is the resumable one). *)
val run :
  ?engine:engine ->
  ?jobs:int ->
  ?tuning:par_tuning ->
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  ?stop:(Structure.t -> bool) ->
  ?on_fire:(stage:int -> Dep.t -> Hom.binding -> unit) ->
  ?snapshot_every:int ->
  ?on_snapshot:(snapshot -> unit) ->
  Dep.t list ->
  Structure.t ->
  stats

(** Continue a checkpointed run in place on the snapshot's own structure
    (clone the snapshot first if it must stay reusable); the engine is
    the snapshot's.  Stage numbering, the watermark, the persistent dedup
    tables and every counter pick up exactly where the snapshot left
    them: prefix + resume is bit-identical — facts, firing sequence via
    [on_fire], and stats — to one uninterrupted run with the same
    [max_stages] (absolute) and budgets.  Raises [Invalid_argument] if
    the dependency list differs from the snapshot's. *)
val resume :
  ?jobs:int ->
  ?tuning:par_tuning ->
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  ?stop:(Structure.t -> bool) ->
  ?on_fire:(stage:int -> Dep.t -> Hom.binding -> unit) ->
  ?snapshot_every:int ->
  ?on_snapshot:(snapshot -> unit) ->
  Dep.t list ->
  snapshot ->
  stats * Structure.t

(** {2 The delta pipeline}

    [`Seminaive], [`Par] and [`Oblivious] are one pipeline: semi-naive
    trigger discovery and firing over a {!Relational.Pool} of domains
    (one for [`Seminaive] and [`Oblivious]), driven by
    each body's delta family of compiled plans ({!Hom.Plan.compile_family})
    over a dense per-stage delta index.

    Discovery: the (TGD x id-chunk) tasks run on a work-stealing pool
    (workers read the structure only); raw matches are merged in
    canonical sort order, deduplicated, head-checked sequentially.
    Firing: workers stage head atoms — frontier arguments resolved,
    fresh/constant placeholders deferred — into private
    {!Relational.Fact_arena.Staging} buffers; the sequential canonical
    merge re-checks each trigger (delta-restricted condition ­) and
    materialises survivors in trigger order, so structures, stats and
    firing sequences are the same at every worker count, and structures
    and firing sequences equal [`Stage]'s.  With one worker and
    no failpoints both pipelines collapse to allocation-free sequential
    fast paths, whose [hom.*] effort counters equal the interpreted
    reference's pivot-by-pivot ones; with [jobs > 1] the counters tick
    inside the workers and are approximate.

    Under the ["par.shard"] (discovery) and ["par.fire"] (staging)
    failpoints a marked task dies before doing any work; the phase is
    retried once and then degrades to its sequential rung.  Staging is
    side-effect-free and every rung feeds the same canonical merge, so a
    faulted run stays bit-identical to an un-faulted one.

    [`Oblivious] keeps every first-seen frontier key as a trigger and
    fires it without either head check. *)

(** {1 Model checking}

    [D ⊨ T] iff every frontier key b̄ of T's body in D has a head
    witness.  The checks below scan keys, not body matches: each body is
    split into connected components (atoms that share a variable), the
    keys are the product of the components' distinct frontier
    projections, and a component binding no frontier variable is a
    single existence probe.  Boolean components run first and a scan
    stops at the first component without a match.  Keys are ordered
    canonically, as the engines fire them: by frontier variable in
    ascending name order, then by element.  The scans are independent
    of the engines' trigger discovery: they share only {!Hom.Plan}'s
    evaluator.  Each head check ticks [tgd.head_checks]. *)

(** A dependency list compiled once for model checking: one plan per
    body component and one per head ([plan.compilations] ticks once
    each), each with its evaluation scratch.  The scans compile and
    allocate no plan; they resolve each plan against the structure once
    per scan.  Reuse one [Check.t] across the structures checked against
    the same dependencies, from one domain at a time (the scratch is
    mutable). *)
module Check : sig
  type t

  val make : Dep.t list -> t

  (** Does the structure satisfy all the dependencies?  Stops at the
      first key whose head is not witnessed. *)
  val models : t -> Structure.t -> bool

  (** The first violated dependency in list order, with its least
      unwitnessed key in the canonical order.  A key not below the least
      one found so far is not head-checked. *)
  val find_violation : t -> Structure.t -> (Dep.t * Hom.binding) option

  (** The active pairs (T, b̄), deduplicated by frontier key and sorted
      in the canonical firing order (dependency index, then key). *)
  val active_triggers : t -> Structure.t -> (Dep.t * Hom.binding) list
end

(** {!Check.models} on a fresh {!Check.make}. *)
val models : Dep.t list -> Structure.t -> bool

(** {!Check.find_violation} on a fresh {!Check.make}. *)
val find_violation : Dep.t list -> Structure.t -> (Dep.t * Hom.binding) option

(** {!Check.active_triggers} on a fresh {!Check.make}. *)
val active_triggers : Dep.t list -> Structure.t -> (Dep.t * Hom.binding) list

(** {1 Incremental maintenance}

    Maintain a chased structure under base-fact edits — insertions AND
    retractions — without re-running the chase from scratch.

    The lazy chase is non-monotone (condition ­ withholds firings), so
    the maintained structure is not promised to be bit-identical to a
    from-scratch chase of the edited base.  The contract is semantic:
    after every [apply_edit] run to fixpoint the structure is a
    {e universal model} of the edited base under the dependencies —
    every live fact is grounded in a derivation from live base facts
    (counting/DRed support tracking guarantees it), and no dependency
    has an active trigger.  Universal models are hom-equivalent, so all
    CQ answers over constants — the view level — are bit-identical to
    the from-scratch chase. *)
module Maint : sig
  type t

  (** One edit operation on the base.  In a script the last op on a fact
      wins; retracting an absent fact and inserting a present one are
      no-ops (the latter still marks the fact as base). *)
  type op = Insert of Fact.t | Retract of Fact.t

  type edit_stats = {
    e_retracted : int;  (** base retractions processed *)
    e_inserted : int;  (** base facts newly added *)
    e_killed : int;  (** facts over-deleted by the counting cascade *)
    e_refired : int;  (** re-exam re-derivations *)
    e_rewithheld : int;  (** re-exam keys found head-witnessed again *)
    e_run : stats;  (** the semi-naive continuation run *)
  }

  (** [create deps d] chases [d] in place to a fixpoint under maintenance
      tracking, with the [`Seminaive] engine; every fact initially in [d]
      is a base fact.  A [governor] may cut the initial run — it stays
      resumable with {!continue_}. *)
  val create :
    ?governor:Resilience.Governor.t ->
    ?max_stages:int ->
    Dep.t list ->
    Structure.t ->
    t * stats

  (** The maintained structure (live view; do not mutate directly). *)
  val structure : t -> Structure.t

  (** The current base facts, in journal order (newest first). *)
  val base_facts : t -> Fact.t list

  (** Did the last run end short of the fixpoint (governor cut)?  Apply
      {!continue_} until this clears before the next {!apply_edit}. *)
  val pending : t -> bool

  (** Resume a continuation cut by the governor.  [max_stages] is
      relative to the stages already run. *)
  val continue_ :
    ?governor:Resilience.Governor.t -> ?max_stages:int -> t -> stats

  (** [apply_edit t ops] applies the edit script: counting cascade for
      the retractions (over-deleting facts whose support count reaches
      zero), DRed-style re-examination of every killed derivation in
      canonical (TGD, frontier key) order — re-deriving through
      existential nulls by re-adding the recorded head instances, so
      surviving nulls keep their identity — then one semi-naive
      continuation back to the fixpoint.  The continuation honours the
      [governor]: a cut edit leaves {!pending} set and is completed by
      {!continue_} (preemptible maintenance).
      @raise Invalid_argument if a continuation is pending. *)
  val apply_edit :
    ?governor:Resilience.Governor.t ->
    ?max_stages:int ->
    t ->
    op list ->
    edit_stats

  (** Internal-consistency audit (for tests): every live fact is base or
      supported by an alive firing; every alive record's recorded
      witness/product facts are live; the continuation's dedup keys are
      exactly the alive records' keys.  Returns violations, empty when
      consistent. *)
  val check : t -> string list
end

(** Alias for {!Maint.apply_edit}. *)
val apply_edit :
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  Maint.t ->
  Maint.op list ->
  Maint.edit_stats
