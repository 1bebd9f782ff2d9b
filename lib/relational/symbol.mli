(** Predicate symbols, with the green/red painting of Section IV.A.

    A symbol over the two-colored signature [Σ̄] is a plain symbol of [Σ]
    tagged with a color; constants are never colored.  Symbols compare by
    name, arity and color. *)

(** The two colors of Section IV. *)
type color = Green | Red

(** [opposite c] flips the color — the chase of green-red TGDs alternates
    colors at every application. *)
val opposite : color -> color

type t

(** [make ?color name arity] is a predicate symbol.
    @raise Invalid_argument on negative arity. *)
val make : ?color:color -> string -> int -> t

val name : t -> string
val arity : t -> int
val color : t -> color option

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** [paint c s] is [s] painted [c], forgetting any previous color. *)
val paint : color -> t -> t

(** [green s] = [paint Green s]. *)
val green : t -> t

(** [red s] = [paint Red s]. *)
val red : t -> t

(** [dalt s] erases the color — the "daltonisation" of Section IV.A. *)
val dalt : t -> t

val is_green : t -> bool
val is_red : t -> bool

(** Full rendering, e.g. [G:E/2]. *)
val pp : Format.formatter -> t -> unit

(** Name-only rendering, e.g. [G:E]. *)
val pp_short : Format.formatter -> t -> unit

module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Tbl : Hashtbl.S with type key = t
