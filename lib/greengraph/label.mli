(** Labels of green-graph edges: S̄ = S ∪ {∅} (Section VI).  [Some i]
    stands for the spider I^{i}, [None] for the full green spider I.
    Labels 1 and 2 form the 1-2 pattern; 3 and 4 are reserved for
    Precompile's red-spider bootstrap and may not occur in rule sets. *)

type t = int option

val empty : t
val l : int -> t

(** The rule-forbidden labels [3; 4]. *)
val reserved : int list

(** @raise Invalid_argument on a reserved label. *)
val check_user : t -> unit

val compare : t -> t -> int
val equal : t -> t -> bool

(** The ideal spider denoted (the bijection A2 ≃ S̄). *)
val to_ideal : t -> Spider.Ideal.t

(** Back from a green upper-only ideal spider, if it is one. *)
val of_ideal : Spider.Ideal.t -> t option

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** The binary relation symbol of a label's edges: [H_o] for ∅, [H_i]
    for [i]. *)
val symbol : t -> Relational.Symbol.t

(** The inverse of [symbol]; [None] on any other symbol. *)
val of_symbol : Relational.Symbol.t -> t option
