(** Invariant audits: cross-check a structure's incremental indices —
    pin buckets, symbol/element buckets, delta journal, watermark —
    against ground-truth recomputation from the plain fact set, plus
    provenance-stage monotonicity for chase-produced structures.  A
    swarm or green graph is a structure ([Graph.structure]), so the
    same audit covers its edge journal and (vertex, label) buckets.

    Every check returns human-readable violation descriptions; an empty
    list means the audit passed.  The audits deliberately recompute
    everything from the plain enumerations, never from the indices under
    audit — they are the ground truth the fast indices are measured
    against, in the same spirit as the paper's hand proofs being
    re-checked mechanically on bounded instances.

    Cost: an audit numbers its enumeration once — facts as local ints,
    symbols and elements as local ids — and derives each ground-truth
    grouping with one counting sort per key digit.  Every bucket is
    read once and held against its group, and the buckets an index
    holds under keys no fact has are found by a key-set check: an O(1)
    bucket count, and a fold over the index only when that count
    exceeds the truth keys.  A structure audit is O(N·a + V + S·a) for
    N facts of arity at most a, V elements and S symbols.  Element ids
    far sparser than their count are numbered by a sort instead, adding
    a log factor. *)

open Relational

(** Audit a structure's indices: facts/size coherence, the
    (symbol, position, element) pin index and its O(1) counts (every
    non-empty pin bucket must be a truth key, including the buckets a
    retraction emptied and left in the index), the
    per-symbol and per-element buckets, the dense-id arena view
    ([id_fact]/[id_sym]/[id_arg] must mirror the boxed facts, the
    [ids_with_sym]/[ids_with_pin] vectors must be the live-id images of
    the ground-truth symbol and pin groups, and [delta_ids] must span
    exactly the journal tail),
    the delta journal ([delta_since 0] must replay the fact set in
    insertion order without duplicates) and the watermark.  With
    [~provenance:true] (for chase outputs; default false) additionally
    require journal stages to be non-decreasing and every fact's stage to
    be at least the birth stage of each of its elements. *)
val structure : ?provenance:bool -> Structure.t -> string list

(** An independent minimality witness: a proper endomorphism of A[q]
    fixing the free variables pointwise, whose image (together with the
    constants' elements, counted as a set) misses at least one element —
    ground truth for [Containment.core]/[is_core].  [None] means [q] is
    a core. *)
val fold_witness : Cq.Query.t -> Relational.Hom.binding option
