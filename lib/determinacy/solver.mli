(** Determinacy solvers — bounded semi-decisions with certificates.
    Unrestricted determinacy is r.e. (the universal chase, Section IV);
    finite determinacy is co-r.e. (finite counterexamples).  Theorem 1
    says no complete procedure exists. *)

open Relational

type verdict =
  | Determined of Tgd.Chase.stats   (** certificate: the chase proof *)
  | Not_determined of Structure.t   (** certificate: a counterexample *)
  | Unknown of string

val pp_verdict : Format.formatter -> verdict -> unit

(** [chase(T_Q, green(Q0)) ⊨ red(Q0)]? *)
val unrestricted :
  ?engine:Tgd.Chase.engine ->
  ?jobs:int ->
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  Instance.t ->
  verdict

(** Certify a purported finite counterexample: D ⊨ T_Q and some green
    Q0-answer is not red. *)
val certify_counterexample : Instance.t -> Structure.t -> bool

(** Exhaustive counterexample search over all two-colored structures with
    at most [max_elems] elements (slot count capped by [max_slots]). *)
val exhaustive : ?max_slots:int -> Instance.t -> max_elems:int -> Structure.t option

(** Chase first (unrestricted determinacy implies finite), then search for
    a small certified counterexample. *)
val finite :
  ?engine:Tgd.Chase.engine ->
  ?jobs:int ->
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  ?max_elems:int ->
  Instance.t ->
  verdict
