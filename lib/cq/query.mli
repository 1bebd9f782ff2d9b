(** Conjunctive queries (Section II.A).

    A CQ is a conjunction of atoms with a designated tuple of free
    variables; the remaining variables are existentially quantified.  The
    paper works with the canonical structure A[Ψ] of the quantifier-free
    part throughout; {!canonical} realizes it. *)

open Relational

type t

(** [make ~free body] is the query with the given free variables (in
    order) and body.
    @raise Invalid_argument if a free variable does not occur in the body
    or is repeated. *)
val make : free:string list -> Atom.t list -> t

(** A boolean query: all variables existentially quantified. *)
val boolean : Atom.t list -> t

val free : t -> string list
val body : t -> Atom.t list

(** Number of free variables. *)
val arity : t -> int

val vars : t -> Term.Var_set.t
val constants : t -> string list

(** [close q] quantifies all free variables — the notation [D ⊨ Q] of
    Section II.A. *)
val close : t -> t

(** Paint every body atom (Definition 3 uses G(Q) and R(Q)). *)
val paint : Symbol.color -> t -> t

(** Erase colors from the body. *)
val dalt : t -> t

(** Rename every variable (free list included) through the function. *)
val rename_vars : (string -> string) -> t -> t

(** The canonical structure A[Ψ]: one element per variable, constants
    becoming structure constants.  Also returns the variable-to-element
    map. *)
val canonical : t -> Structure.t * (string -> int option)

(** The converse (used by the paper after Section II.A): read a structure
    back as the unique CQ with that canonical structure, freeing the given
    elements.
    @raise Invalid_argument if a freed element is a constant. *)
val of_structure : ?free:int list -> Structure.t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
