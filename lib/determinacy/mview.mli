(** Maintained views: [chase(T_Q, green(D))] kept incremental under base
    edits (Section IV read as view exchange).

    The red Q0-answers of the chased structure over the elements of the
    base [D] are the certain answers of Q0 given the view image Q(D);
    maintaining the chase with [Tgd.Chase.Maint] makes those answers
    available after every edit without a from-scratch re-run. *)

open Relational

type t

(** One edit on the plain base database; painting green happens
    inside. *)
type op = Insert of Fact.t | Retract of Fact.t

(** Chase [green(base)] under the instance's T_Q with maintenance
    tracking.  [base] itself is not mutated. *)
val create :
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  Instance.t ->
  Structure.t ->
  t * Tgd.Chase.stats

val instance : t -> Instance.t

(** The maintained two-colored structure (do not mutate). *)
val structure : t -> Structure.t

(** The underlying maintenance state, for audits. *)
val maint : t -> Tgd.Chase.Maint.t

(** [true] after a governor-cut run; finish with {!continue_} before the
    next {!apply_edit}. *)
val pending : t -> bool

val continue_ :
  ?governor:Resilience.Governor.t -> ?max_stages:int -> t -> Tgd.Chase.stats

(** Push a batch of base edits through the maintenance layer and restore
    the chase fixpoint. *)
val apply_edit :
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  t ->
  op list ->
  Tgd.Chase.Maint.edit_stats

(** The certain answers of [q] under view exchange: red answers of the
    maintained chase, restricted to tuples over base elements. *)
val certain_answers : t -> Cq.Query.t -> Cq.Eval.Tuple_set.t

(** {!certain_answers} of the instance's Q0. *)
val certain_answers_q0 : t -> Cq.Eval.Tuple_set.t

(** The materialized view image Q(D) over the live base, as a structure
    on the view signature. *)
val view_image : t -> Structure.t
