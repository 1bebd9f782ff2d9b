(** Terms of conjunctive queries and TGDs: variables and constants.

    Constants are interpreted by structures as dedicated elements shared
    by name; homomorphisms fix them (Section II.A). *)

type t =
  | Var of string  (** a variable *)
  | Cst of string  (** a constant of the signature *)

val var : string -> t
val cst : string -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Sets and maps over plain variable names, used for free-variable
    bookkeeping throughout the query and TGD layers. *)
module Var_set : Set.S with type elt = string

module Var_map : Map.S with type key = string

module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
