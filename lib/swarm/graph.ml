(* Swarms: structures over the Abstraction Level 1 signature — one binary
   relation H(S,·,·) per ideal spider S ∈ A (Section VI).  An edge
   H(S, x, y) reads "a real spider isomorphic to S with tail x and
   antenna y". *)

open Relational

include Graph_view.Make (struct
  type t = Spider.Ideal.t

  let compare = Spider.Ideal.compare
  let pp = Spider.Ideal.pp

  (* H_S, named by the spider's code *)
  let symbol ideal = Symbol.make ("H_" ^ Spider.Ideal.code ideal) 2

  let of_symbol sym =
    let name = Symbol.name sym in
    if String.length name < 3 || String.sub name 0 2 <> "H_" then None
    else Spider.Ideal.of_code (String.sub name 2 (String.length name - 2))
end)

(* Does the swarm contain a green (resp. red) full spider edge — the
   conditions of Definition 11 for T ⊆ L1. *)
let has_full_green t = with_label t Spider.Ideal.full_green <> []
let has_full_red t = with_label t Spider.Ideal.full_red <> []

(* The seed swarm: one full green spider edge between two fresh vertices. *)
let seed () =
  let t = create () in
  let a = fresh ~name:"a" t and b = fresh ~name:"b" t in
  ignore (add_edge t Spider.Ideal.full_green a b);
  (t, a, b)
