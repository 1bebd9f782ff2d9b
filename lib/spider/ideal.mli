(** Ideal spiders (Section V.B): the set A of elements I^I_J (green base)
    and H^I_J (red base), with I, J ⊆ S singletons or empty. *)

open Relational

type t

val make : ?upper:int -> ?lower:int -> Symbol.color -> t
val green : ?upper:int -> ?lower:int -> unit -> t
val red : ?upper:int -> ?lower:int -> unit -> t

(** The full green spider I. *)
val full_green : t

(** The full red spider H. *)
val full_red : t

val base : t -> Symbol.color
val upper : t -> int option
val lower : t -> int option

val is_full : t -> bool
val is_green : t -> bool
val is_red : t -> bool

(** "Lower" spiders in the sense of Definition 33 / Lemma 34: J ≠ ∅. *)
val is_lower : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** The whole set A: 2(s+1)² = 2 + 4s + 2s² ideal spiders. *)
val all : s:int -> t list

(** A2 (Section VI): the green upper-only spiders, in bijection with
    S̄ = S ∪ {∅}. *)
val all_green_upper : s:int -> t list

(** The color of leg [j] on the given side. *)
val leg_color : t -> [ `Upper | `Lower ] -> int -> Symbol.color

val pp : Format.formatter -> t -> unit

(** A flat, signature-safe code, e.g. ["G1_o"]. *)
val code : t -> string

(** The inverse of [code]: [None] on a string no spider codes to. *)
val of_code : string -> t option

module Ord : sig
  type nonrec t = t

  val compare : t -> t -> int
end

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
