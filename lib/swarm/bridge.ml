(* Swarms as relational structures.

   A swarm is a structure over the Level-1 signature: one binary relation
   H_S per ideal spider S (Section VI), which is what [Graph.structure]
   holds.  The bridge lets the generic TGD machinery (chase, model check,
   homomorphisms) run on swarms through L₁ rules as TGDs, and the test
   suite holds the dedicated swarm engine to the generic one. *)

open Relational

(* A copy of [g]'s structure, edge journal and vertex ids included. *)
let to_structure g = Structure.copy (Graph.structure g)

let of_structure = Graph.of_structure

(* A swarm rule as a pair of generic TGDs over the Level-1 signature:
   Definition 7's big conjunction, one TGD per subset choice and color.
   The subsets of singleton-or-empty indices are the index itself and ∅. *)
let tgds_of_rule (rule : Rule.t) =
  let subsets = function None -> [ None ] | Some i -> [ None; Some i ] in
  let b = Rule.binary rule in
  let q1 = b.Spider.Query.left and q2 = b.Spider.Query.right in
  let conn = b.Spider.Query.conn in
  let colors = [ Symbol.Green; Symbol.Red ] in
  List.concat_map
    (fun base ->
      List.concat_map
        (fun u1 ->
          List.concat_map
            (fun l1 ->
              List.concat_map
                (fun u2 ->
                  List.filter_map
                    (fun l2 ->
                      let s1 = Spider.Ideal.make ?upper:u1 ?lower:l1 base in
                      let s2 = Spider.Ideal.make ?upper:u2 ?lower:l2 base in
                      match Spider.Algebra.apply_binary b s1 s2 with
                      | None -> None
                      | Some (p1, p2) ->
                          let v = Term.var in
                          let edge sym x y = Atom.app2 (Graph.symbol_of sym) (v x) (v y) in
                          let body, head =
                            match conn with
                            | Spider.Query.Amp ->
                                ( [ edge s1 "x" "y"; edge s2 "x'" "y" ],
                                  [ edge p1 "x" "y'"; edge p2 "x'" "y'" ] )
                            | Spider.Query.Slash ->
                                ( [ edge s1 "x" "y"; edge s2 "x" "y'" ],
                                  [ edge p1 "x'" "y"; edge p2 "x'" "y'" ] )
                          in
                          Some
                            (Tgd.Dep.make
                               ~name:(Fmt.str "%a[%a,%a]" Rule.pp rule
                                        Spider.Ideal.pp s1 Spider.Ideal.pp s2)
                               ~body ~head ()))
                    (subsets (Spider.Query.lower q2)))
                (subsets (Spider.Query.upper q2)))
            (subsets (Spider.Query.lower q1)))
        (subsets (Spider.Query.upper q1)))
    colors

let tgds_of_rules rules = List.concat_map tgds_of_rule rules
