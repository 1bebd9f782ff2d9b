(** The incremental-maintenance oracle: seeded random edit scripts over
    random instances and rule sets, with the maintained structure
    bit-diffed (audit, models, pinned hom-equivalence) against a
    from-scratch chase after every script.  Cases whose runs exhaust the
    stage budget are counted incomparable and skipped — capped runs need
    not align — so a clean report means: every comparable script
    preserved universal-model equivalence, on random TGD sets and on
    random green-graph rule sets (maintained as TGDs over the bridge and
    diffed against the dedicated graph engine). *)

type report = {
  seed : int;
  cases : int;
  scripts : int;  (** edit scripts actually diffed *)
  edits : int;  (** individual ops across those scripts *)
  incomparable : int;  (** runs skipped: no fixpoint within budget *)
  violations : (int * string list) list;
      (** failing cases: (case index, violation descriptions) *)
}

(** Deterministic: case [i] depends only on [(seed, i)], so the range
    [[from_case, from_case+cases)] (default [from_case = 0]) is a shard
    whose report is independent of how the rest of the campaign is
    split — the property campaign sharding relies on. *)
val run_cases : ?from_case:int -> seed:int -> cases:int -> unit -> report

val pp_report : Format.formatter -> report -> unit
