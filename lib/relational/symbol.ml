(* Predicate symbols of a relational signature.

   Following Section IV.A of the paper, a symbol over the two-colored
   signature [Σ̄] is a plain symbol painted either green or red; constants
   are never colored.  We represent the color as an optional tag so the
   same type serves for Σ (no tag) and Σ̄ (tagged). *)

type color = Green | Red

let color_compare a b =
  match a, b with
  | Green, Green | Red, Red -> 0
  | Green, Red -> -1
  | Red, Green -> 1

let opposite = function Green -> Red | Red -> Green

let pp_color ppf c =
  Fmt.string ppf (match c with Green -> "G" | Red -> "R")

type t = { name : string; arity : int; color : color option }

let make ?color name arity =
  if arity < 0 then invalid_arg "Symbol.make: negative arity";
  { name; arity; color }

let name t = t.name
let arity t = t.arity
let color t = t.color

let compare a b =
  let c = String.compare a.name b.name in
  if c <> 0 then c
  else
    let c = Int.compare a.arity b.arity in
    if c <> 0 then c
    else Option.compare color_compare a.color b.color

let equal a b = compare a b = 0

let hash t =
  Hashtbl.hash (t.name, t.arity, t.color)

(* Painting and daltonisation (Section IV.A). *)

let paint c t = { t with color = Some c }
let green t = paint Green t
let red t = paint Red t

(* [dalt] erases the color, turning a Σ̄ symbol back into a Σ symbol. *)
let dalt t = { t with color = None }

let is_green t = match t.color with Some Green -> true | Some Red | None -> false
let is_red t = match t.color with Some Red -> true | Some Green | None -> false

let pp ppf t =
  match t.color with
  | None -> Fmt.pf ppf "%s/%d" t.name t.arity
  | Some c -> Fmt.pf ppf "%a:%s/%d" pp_color c t.name t.arity

let pp_short ppf t =
  match t.color with
  | None -> Fmt.string ppf t.name
  | Some c -> Fmt.pf ppf "%a:%s" pp_color c t.name

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
