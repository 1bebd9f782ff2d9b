(** Invariant audits: cross-check a structure's (or green graph's)
    incremental indices — pin buckets, symbol/element buckets, delta
    journal, watermark — against ground-truth recomputation from the
    plain fact (edge) set, plus provenance-stage monotonicity for
    chase-produced structures.

    Every check returns human-readable violation descriptions; an empty
    list means the audit passed.  The audits deliberately recompute
    everything from the plain enumerations, never from the indices under
    audit — they are the ground truth the fast indices are measured
    against, in the same spirit as the paper's hand proofs being
    re-checked mechanically on bounded instances.

    Cost: each ground truth is derived once per audit, by one pass that
    groups the facts (edges) by every bucket key, so a structure audit
    is O(N·a·log N) for N facts of arity at most a, and a graph audit
    O(E·log E + L·V) for E edges, V vertices and L distinct labels (the
    L·V term visits every (vertex, label) pin bucket, most of them
    empty). *)

open Relational

(** Audit a structure's indices: facts/size coherence, the
    (symbol, position, element) pin index and its O(1) counts, the
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

(** Audit a green graph's indices: edge/vertex coherence, the out/in
    adjacency buckets, the label buckets, the (vertex, label) pin
    buckets, the edge journal and the watermark. *)
val graph : Greengraph.Graph.t -> string list

(** An independent minimality witness: a proper endomorphism of A[q]
    fixing the free variables pointwise, whose image (together with the
    constants' elements, counted as a set) misses at least one element —
    ground truth for [Containment.core]/[is_core].  [None] means [q] is
    a core. *)
val fold_witness : Cq.Query.t -> Relational.Hom.binding option
