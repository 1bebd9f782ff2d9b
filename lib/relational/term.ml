(* Terms of conjunctive queries and TGDs: variables and constants.

   Constants are shared with structures: a structure over a signature with
   constant [c] always interprets [c] as a dedicated element, and
   homomorphisms must send a constant to its interpretation (Section II.A). *)

type t =
  | Var of string
  | Cst of string

let var x = Var x
let cst c = Cst c

let compare a b =
  match a, b with
  | Var x, Var y -> String.compare x y
  | Cst x, Cst y -> String.compare x y
  | Var _, Cst _ -> -1
  | Cst _, Var _ -> 1

let equal a b = compare a b = 0

let pp ppf = function
  | Var x -> Fmt.pf ppf "?%s" x
  | Cst c -> Fmt.string ppf c

module Ord = struct
  type nonrec t = t
  let compare = compare
end

(* Sets and maps over plain variable names, used for free-variable
   bookkeeping throughout the query and TGD layers. *)
module Var_set = Set.Make (String)
module Var_map = Map.Make (String)

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
