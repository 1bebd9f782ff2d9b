(* Ideal spiders (Section V.B): the elements of A are I^I_J (green base)
   and H^I_J (red base) where I, J ⊆ S are singletons or empty.  We write
   the optional indices as [int option]. *)

open Relational

type t = {
  base : Symbol.color;     (* Green for I-spiders, Red for H-spiders *)
  upper : int option;      (* I: index of the upper leg in opposite color *)
  lower : int option;      (* J: same for the lower leg *)
}

let make ?upper ?lower base = { base; upper; lower }

let green ?upper ?lower () = make ?upper ?lower Symbol.Green
let red ?upper ?lower () = make ?upper ?lower Symbol.Red

(* The full green spider I and the full red spider H. *)
let full_green = green ()
let full_red = red ()

let base t = t.base
let upper t = t.upper
let lower t = t.lower

let is_full t = t.upper = None && t.lower = None
let is_green t = t.base = Symbol.Green
let is_red t = t.base = Symbol.Red

(* "Lower" spiders in the sense of Definition 33 / Lemma 34: J ≠ ∅. *)
let is_lower t = t.lower <> None

let equal a b = a = b
let compare = Stdlib.compare

(* The set A for a given s: 2(s+1)² ideal spiders (the paper counts them
   as 2 + 4s + 2s²). *)
let all ~s =
  let opts = None :: List.init s (fun i -> Some (i + 1)) in
  List.concat_map
    (fun base ->
      List.concat_map
        (fun upper -> List.map (fun lower -> { base; upper; lower }) opts)
        opts)
    [ Symbol.Green; Symbol.Red ]

(* A2 (Section VI): the green spiders of the form I^I — no lower index.
   In bijection with S̄ = S ∪ {∅}. *)
let all_green_upper ~s =
  List.map (fun upper -> { base = Symbol.Green; upper; lower = None })
    (None :: List.init s (fun i -> Some (i + 1)))

(* Which color is leg [j] of this spider?  [`Upper]/[`Lower] selects the
   leg family. *)
let leg_color t side j =
  let flipped =
    match side with `Upper -> t.upper = Some j | `Lower -> t.lower = Some j
  in
  if flipped then Symbol.opposite t.base else t.base

let pp ppf t =
  let letter = match t.base with Symbol.Green -> "I" | Symbol.Red -> "H" in
  let idx ppf = function
    | None -> Fmt.string ppf "∅"
    | Some i -> Fmt.int ppf i
  in
  match t.upper, t.lower with
  | None, None -> Fmt.string ppf letter
  | u, l -> Fmt.pf ppf "%s^%a_%a" letter idx u idx l

(* A compact, signature-safe code: used to derive relation names for the
   swarm-as-structure view. *)
let code t =
  let letter = match t.base with Symbol.Green -> "G" | Symbol.Red -> "R" in
  let idx = function None -> "o" | Some i -> string_of_int i in
  Printf.sprintf "%s%s_%s" letter (idx t.upper) (idx t.lower)

let of_code c =
  let idx = function
    | "o" -> Some None
    | i -> Option.map Option.some (int_of_string_opt i)
  in
  let base = function 'G' -> Some Symbol.Green | 'R' -> Some Symbol.Red | _ -> None in
  if c = "" then None
  else
    match (base c.[0], String.split_on_char '_' (String.sub c 1 (String.length c - 1))) with
    | Some base, [ u; l ] -> (
        match (idx u, idx l) with
        | Some upper, Some lower ->
            let t = { base; upper; lower } in
            if code t = c then Some t else None
        | _ -> None)
    | _ -> None

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
