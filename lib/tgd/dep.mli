(** Tuple-generating dependencies (Section II.B):
    [∀x̄,ȳ (Φ(x̄,ȳ) ⇒ ∃z̄ Ψ(z̄,ȳ))].

    The frontier ȳ is the set of variables shared by body and head;
    head-only variables are existentially quantified. *)

open Relational

type t = {
  name : string;
  body : Atom.t list;
  head : Atom.t list;
}

(** @raise Invalid_argument on an empty body or head. *)
val make : ?name:string -> body:Atom.t list -> head:Atom.t list -> unit -> t

val name : t -> string
val body : t -> Atom.t list
val head : t -> Atom.t list

val body_vars : t -> Term.Var_set.t

(** The shared (universally quantified, exported) variables ȳ. *)
val frontier : t -> Term.Var_set.t

(** The head-only (existential) variables z̄. *)
val existentials : t -> Term.Var_set.t

(** The TGD generated by a CQ in one color direction (Definition 3):
    [Q^{G→R} = ∀ (G(Φ) ⇒ ∃ R(Φ))], frontier = the free variables of Q. *)
val of_query : [ `G_to_R | `R_to_G ] -> Cq.Query.t -> t

(** T_Q (Definition 3): both directions for every named query. *)
val t_q : (string * Cq.Query.t) list -> t list

(** A first-order equivalence as a pair of TGDs, one per direction. *)
val equivalence : ?name:string -> left:Atom.t list -> right:Atom.t list -> unit -> t list

(** Canonical 128-bit digest of a ruleset: body/head atoms in rule
    order, rule names excluded (renamed rulesets chase identically).
    Feeds {!Relational.Digest128}; order-sensitive, because firing order
    determines fresh-element identity. *)
val digest_hex : t list -> string

val pp : Format.formatter -> t -> unit
