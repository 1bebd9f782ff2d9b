(** Integer codes for rainworm machine symbols, compatible with the label
    scheme of Section VII: specials share the fixed codes 6–14; tape
    letters and sweep states are allocated from 48 upwards (above the grid
    range), preserving parity (even symbols ↦ even codes — Parity Glasses
    depend on it). *)

type t

val create : unit -> t

(** The (stable) code of a symbol, allocated on first use. *)
val code : t -> Rainworm.Sym.t -> int

val label : t -> Rainworm.Sym.t -> Greengraph.Label.t

(** A configuration as a word of codes. *)
val word : t -> Rainworm.Config.t -> int list

(** Decode a whole word, when every code is known. *)
val decode_word : t -> int list -> Rainworm.Config.t option
