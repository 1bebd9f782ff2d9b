(** View-based rewriting (Section I.B) by chase & backchase: when a
    conjunctive rewriting of Q0 over the views exists, the universal plan
    (the canonical view instance of A[Q0], read back as a query) is one.
    Theorem 2 shows finitely determined queries need not have any FO
    rewriting at all. *)

(** Expand a query over the view schema into the base schema (view atoms
    replaced by view bodies, existentials freshened per occurrence).
    @raise Invalid_argument on an unknown view name. *)
val expand : views:(string * Cq.Query.t) list -> Cq.Query.t -> Cq.Query.t

(** The universal plan, when the canonical view instance is nonempty. *)
val universal_plan : views:(string * Cq.Query.t) list -> Cq.Query.t -> Cq.Query.t option

type result =
  | Rewriting of Cq.Query.t   (** an exact CQ rewriting over the views *)
  | No_conjunctive_rewriting

(** Decide whether the universal plan is an exact rewriting. *)
val conjunctive : views:(string * Cq.Query.t) list -> Cq.Query.t -> result
