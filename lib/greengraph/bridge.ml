(* Green graphs as relational structures, and L₂ rules as generic TGDs.

   Like Swarm.Bridge one level up.  A green graph is already a structure
   over the Level-2 signature ([Graph.structure]), so the generic
   chase/model-check machinery runs on it as it stands; the bridged TGDs
   are the graph engine's reference ([reference_chase]). *)

open Relational

(* A copy of [g]'s structure, edge journal and vertex ids included. *)
let to_structure g = Structure.copy (Graph.structure g)

let of_structure = Graph.of_structure

(* An L₂ equivalence as two generic TGDs. *)
let tgds_of_rule (r : Rule.t) =
  let name = Rule.to_string r in
  let v = Term.var in
  let edge lab x y = Atom.app2 (Graph.symbol_of lab) (v x) (v y) in
  let pair (a, b) shared x x' =
    match r.Rule.conn with
    | Rule.Amp -> [ edge a x shared; edge b x' shared ]
    | Rule.Slash -> [ edge a shared x; edge b shared x' ]
  in
  [
    Tgd.Dep.make ~name:(name ^ ":>")
      ~body:(pair (r.Rule.l1, r.Rule.l2) "y" "x" "x'")
      ~head:(pair (r.Rule.r1, r.Rule.r2) "y'" "x" "x'")
      ();
    Tgd.Dep.make ~name:(name ^ ":<")
      ~body:(pair (r.Rule.r1, r.Rule.r2) "y" "x" "x'")
      ~head:(pair (r.Rule.l1, r.Rule.l2) "y'" "x" "x'")
      ();
  ]

let tgds_of_rules rules = List.concat_map tgds_of_rule rules

(* The green-graph chase's reference: the bridged rules chased by the TGD
   [`Stage] engine on a [to_structure] copy of [g] ([g] is not touched).
   It shares no discovery or firing code with [Rule.chase], and both fire
   in the canonical order, so the two runs must agree journal entry for
   journal entry. *)
let reference_chase ?max_stages ?stop rules g =
  let d = to_structure g in
  (d, Tgd.Chase.run ~engine:`Stage ?max_stages ?stop (tgds_of_rules rules) d)
