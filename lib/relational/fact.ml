(* Ground atoms of a finite structure: a predicate symbol applied to
   structure elements (represented as integers). *)

type t = { sym : Symbol.t; args : int array }

let make sym args =
  if Array.length args <> Symbol.arity sym then
    invalid_arg
      (Fmt.str "Fact.make: %a applied to %d arguments" Symbol.pp sym
         (Array.length args));
  { sym; args }

let app2 sym a b = make sym [| a; b |]

let sym t = t.sym
let args t = t.args
let arg t i = t.args.(i)

let compare a b =
  let c = Symbol.compare a.sym b.sym in
  if c <> 0 then c
  else
    let la = Array.length a.args and lb = Array.length b.args in
    let c = Int.compare la lb in
    if c <> 0 then c
    else
      let rec go i =
        if i >= la then 0
        else
          let c = Int.compare a.args.(i) b.args.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

let equal a b = Symbol.equal a.sym b.sym && a.args = b.args

(* The symbol's stored hash folded with the arguments, then an xmx
   finish: no allocation and no generic hashing. *)
let hash t =
  let h = ref (Symbol.hash t.sym) in
  for i = 0 to Array.length t.args - 1 do
    h := (!h * 0x100000001B3) lxor t.args.(i)
  done;
  let h = (!h lxor (!h lsr 32)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let elements t = Array.to_list t.args

let map_elements f t = { t with args = Array.map f t.args }

let paint c t = { t with sym = Symbol.paint c t.sym }
let dalt t = { t with sym = Symbol.dalt t.sym }

let color t = Symbol.color t.sym

let pp ?(elem = Fmt.int) () ppf t =
  Fmt.pf ppf "%a(%a)" Symbol.pp_short t.sym
    (Fmt.array ~sep:(Fmt.any ",") elem)
    t.args

module Ord = struct
  type nonrec t = t
  let compare = compare
end

module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
