(** Homomorphism search (Section II.A).

    One backtracking engine matches a conjunction of atoms against a
    structure; it powers CQ evaluation, TGD trigger detection, containment
    tests and core computation.  Atoms are visited in a
    connectivity-greedy order and candidate facts are drawn from the
    structure's element index whenever an argument is already bound.

    Two evaluators share that strategy: the interpreted reference
    ([compiled:false]) over boxed facts and persistent bindings, and the
    default compiled one ({!Plan}) — an array-of-slots program over the
    structure's dense-id arena, fixed once per body.  They enumerate the
    same bindings in the same order and tick the same counters. *)

(** A variable binding: query variables to structure elements. *)
type binding = int Term.Var_map.t

(** The connectivity-greedy atom ordering (exposed for tests/benches):
    each step takes the first remaining atom of maximal score
    4·(its distinct variables already bound) + (its constant
    positions).  [bound] seeds the already-bound variables (the
    semi-naive pivot's).  The result is a permutation of the input:
    repeated atoms — even physically equal ones — each keep their
    occurrence.  The work is on ints — a score array, per-variable
    occurrence lists and a tournament tree — so n atoms cost
    O((n + i)·log n) for i variable occurrences. *)
val order_atoms : ?bound:Term.Var_set.t -> Atom.t list -> Atom.t list

(** [iter_all ?compiled ?init target atoms f] calls [f] on every
    homomorphism from [atoms] into [target] extending [init].  Raise
    [Exit] from [f] to stop early.  [compiled:false] selects the
    interpreted reference evaluator (they are bit-identical — the
    property suite in [test_plan.ml] holds the compiled path to the
    interpreted one).

    [~delta] restricts the enumeration to homomorphisms whose image uses
    at least one fact of [delta] (each produced exactly once): for each
    atom in turn, that atom is pinned to a delta fact and the rest is
    matched against the full structure — semi-naive evaluation's delta
    rules.  With [~delta] and an empty atom list, nothing is produced.
    Precondition: [delta] holds facts of [target], in journal order (as
    {!Structure.delta_since} returns them).  The compiled path scans the
    delta by ascending fact id, which is that order; facts absent from
    [target] are ignored. *)
val iter_all :
  ?compiled:bool ->
  ?init:binding ->
  ?delta:Fact.t list ->
  Structure.t ->
  Atom.t list ->
  (binding -> unit) ->
  unit

(** First homomorphism found, if any.  The early exit is internal (a
    [ref] plus a locally-caught [Exit]); no exception escapes this
    module. *)
val find :
  ?compiled:bool ->
  ?init:binding ->
  Structure.t ->
  Atom.t list ->
  binding option

val exists :
  ?compiled:bool ->
  ?init:binding ->
  Structure.t ->
  Atom.t list ->
  bool

(** Number of homomorphisms (beware of blowup). *)
val count :
  ?compiled:bool ->
  ?init:binding ->
  Structure.t ->
  Atom.t list ->
  int

(** {1 Compiled join plans}

    A plan fixes a body's atom order and binding-slot layout once; the
    evaluator is then a backtracking scan over the structure's dense fact
    ids and pin buckets, with a mutable [int array] of slots in
    place of persistent maps.  The chase compiles each TGD body once per
    run and re-evaluates the plan every stage. *)
module Plan : sig
  type t

  (** A family of per-pivot delta plans sharing one slot table, so a full
      match is the same slot array whichever pivot produced it — the
      dedup key of semi-naive evaluation and the sort key of the parallel
      merge. *)
  type family

  (** [compile ?bound atoms] freezes the connectivity-greedy
      evaluation order (with [bound] seeding {!order_atoms}) and interns
      the body's variables to dense slots, numbered by first appearance
      in that order.  The plan is bit-identical to the interpreted
      reference: bindings, order and counters. *)
  val compile : ?bound:Term.Var_set.t -> Atom.t list -> t

  (** One rest-plan per pivot occurrence, mirroring the interpreted delta
      decomposition: each rest is in {!order_atoms} order with the
      pivot's variables bound.  Each body atom is compiled once
      and every plan of the family shares it physically, so a family of
      n atoms holds n compiled atoms and n arrays of n − 1 pointers, and
      compiling it costs O(n² log n) integer steps (n orderings, one
      occurrence table) — the spider-CQ bodies of T_Q, about a hundred
      atoms, compile in a few milliseconds.  Slots are numbered by first
      appearance along pivot 0 and then its rest, as in {!compile}.
      [plan.compilations] ticks once per pivot. *)
  val compile_family : Atom.t list -> family

  (** Number of variable slots; emitted arrays have this length. *)
  val nslots : t -> int

  (** The slot of a variable name, if the body mentions it. *)
  val slot : t -> string -> int option

  val family_nslots : family -> int
  val family_slot : family -> string -> int option

  (** [family_layout fam] — per pivot, the body positions of its
      rest-plan's atoms in evaluation order (introspection for tests).
      The evaluation scratch is indexed by these positions, so each is
      checked by physical identity with the family's compiled atoms:
      [-1] would mark an atom compiled apart from them. *)
  val family_layout : family -> int array array

  (** [iter_slots ?init plan target emit] — the raw evaluator.  [init]
      seeds slots (pairs [(slot, element)]).  [emit] receives the live
      slot array: copy it before storing.  Raise [Exit] to stop early. *)
  val iter_slots :
    ?init:(int * int) list -> t -> Structure.t -> (int array -> unit) -> unit

  (** As {!iter_slots} but over name bindings, extending [init] exactly
      as the interpreted [iter_all] does (unmentioned variables pass
      through). *)
  val iter : ?init:binding -> t -> Structure.t -> (binding -> unit) -> unit

  (** [exists_slots ?init plan target] — is there a match extending the
      [init] slot seeds?  The precompiled counterpart of {!Hom.exists}
      (condition ­ of the chase runs through this). *)
  val exists_slots : ?init:(int * int) list -> t -> Structure.t -> bool

  (** A plan with its evaluation scratch allocated once, for a caller
      that probes the same plan many times — the model checks of
      [Tgd.Chase.Check] probe one head per frontier key.  {!retarget}
      resolves its symbols and constants against a structure in place;
      the evaluations below then run against that structure, allocate no
      scratch, and stay valid while it is unchanged.  A prepared plan is
      mutable scratch: use it from one domain at a time. *)
  type prepared

  val prepare : t -> prepared
  val retarget : prepared -> Structure.t -> unit

  (** {!iter_slots} on the prepared plan's target: same matches, same
      order, same counters.
      @raise Invalid_argument before the first {!retarget}. *)
  val iter_prepared : prepared -> (int array -> unit) -> unit

  (** {!exists_slots} on the prepared plan's target. *)
  val exists_prepared : ?init:(int * int) list -> prepared -> bool

  (** [exists_since ~min_id ~cutoff ?init plan target] — the apply-time
      re-check.  Valid ONLY under the caller's invariant that no match
      lies wholly inside the [< min_id] id prefix (the chase has it: the
      trigger survived discovery against exactly that structure, and
      witnesses are monotone); the answer then equals {!exists_slots}.
      One resolve pass dispatches between the near-free empty-tail case,
      a delta-pivot scan (summed tails [<= cutoff]: each atom in turn
      plays the pivot over the binary-searched new tail of its best pin
      bucket, the rest run against the full structure), and the plain
      pin-driven search — all exact under the invariant, so [cutoff] only
      moves wall-clock. *)
  val exists_since :
    min_id:int ->
    cutoff:int ->
    ?init:(int * int) list ->
    t ->
    Structure.t ->
    bool

  (** A stage delta as a dense per-symbol index: interned symbol id (see
      {!Structure.id_sym}) to ascending fact ids.  Built once per stage
      and shared across every dependency's family evaluation. *)
  type delta_index = Intvec.t array

  (** [delta_index_of target ~lo ~hi] indexes the fact-id interval
      [\[lo, hi)] by symbol. *)
  val delta_index_of : Structure.t -> lo:int -> hi:int -> delta_index

  (** [iter_family_ids ?init ?lo ?hi fam target delta emit] —
      semi-naive evaluation: each pivot against its {!delta_index}
      bucket (ascending fact id, i.e. delta order), the rest-plan against
      the full structure.  Each full match is emitted once, by the first
      pivot whose atom it maps to a delta fact.  [lo]/[hi] restrict the
      pivot ids to [\[lo, hi)] (the parallel collector's chunks), so
      disjoint ranges partition the matches.  The family's atoms are
      resolved against [target] once per call, and only when some pivot
      has delta facts; the scratch is the call's own, so one family may
      be evaluated from several domains at once. *)
  val iter_family_ids :
    ?init:(int * int) list ->
    ?lo:int ->
    ?hi:int ->
    family ->
    Structure.t ->
    delta_index ->
    (int array -> unit) ->
    unit

  (** Rebuild a name binding from an emitted slot array. *)
  val binding_of_slots : ?init:binding -> t -> int array -> binding
end

(** {1 Structure-to-structure homomorphisms}

    A structure is read as a conjunction of atoms — elements become
    variables, constants stay constants (and must map to their namesakes). *)

(** [between ?init src target] finds a homomorphism [src → target]
    extending the initial element pairs; the result maps each element of
    [src] to its image. *)
val between : ?init:(int * int) list -> Structure.t -> Structure.t -> (int -> int option) option

val exists_between : ?init:(int * int) list -> Structure.t -> Structure.t -> bool
