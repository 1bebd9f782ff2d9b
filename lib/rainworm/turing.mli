(** Single-tape Turing machines over a right-infinite tape — the textbook
    model behind Lemma 21.  A machine halts when δ is undefined; moving
    left at cell 0 is a crash. *)

type dir = Left | Right

type t = {
  name : string;
  blank : string;
  start : string;
  transitions : ((string * string) * (string * string * dir)) list;
      (** ((state, read), (state', write, move)) *)
}

(** @raise Invalid_argument on duplicate (state, read) pairs. *)
val make :
  name:string ->
  blank:string ->
  start:string ->
  ((string * string) * (string * string * dir)) list ->
  t

val delta : t -> string -> string -> (string * string * dir) option
val states : t -> string list
val alphabet : t -> string list

module Int_map : Map.S with type key = int

type config = { tape : string Int_map.t; head : int; state : string }

val initial_config : t -> config

(** The symbol under the head. *)
val read : t -> config -> string

type halt_reason = No_transition | Fell_off_left

type outcome = Halted of halt_reason * config | Running of config

val step : t -> config -> (config, halt_reason) result

(** Run from the initial configuration; returns (steps, outcome). *)
val run : ?max_steps:int -> t -> int * outcome

val halts : ?max_steps:int -> t -> bool

(** The tape as a list over cells 0..max visited. *)
val tape_list : t -> config -> string list
