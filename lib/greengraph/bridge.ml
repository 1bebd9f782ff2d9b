(* Green graphs as relational structures, and L₂ rules as generic TGDs.

   Like Swarm.Bridge one level up: lets the generic chase/model-check
   machinery run on green graphs, for cross-validation of the dedicated
   engine. *)

open Relational

let symbol_of (lab : Label.t) =
  match lab with
  | None -> Symbol.make "H_o" 2
  | Some i -> Symbol.make (Printf.sprintf "H_%d" i) 2

let label_of_symbol sym : Label.t option =
  let name = Symbol.name sym in
  if name = "H_o" then Some None
  else if String.length name > 2 && String.sub name 0 2 = "H_" then
    int_of_string_opt (String.sub name 2 (String.length name - 2))
    |> Option.map (fun i -> Some i)
  else None

let to_structure g =
  let st = Structure.create () in
  List.iter
    (fun v ->
      Structure.reserve st v;
      Structure.set_name st v (Graph.name g v))
    (List.sort compare (Graph.vertices g));
  (* in journal order, so the structure's journal is the graph's *)
  List.iter
    (fun (e : Graph.edge) ->
      Structure.add2 st (symbol_of e.Graph.label) e.Graph.src e.Graph.dst)
    (Graph.delta_since g 0);
  st

(* A structure's edge facts in journal order, as green-graph edges: the
   counterpart of [Graph.delta_since g 0]. *)
let edge_journal st =
  List.filter_map
    (fun f ->
      Option.map
        (fun label -> { Graph.label; src = Fact.arg f 0; dst = Fact.arg f 1 })
        (label_of_symbol (Fact.sym f)))
    (Structure.delta_since st 0)

let of_structure st =
  let g = Graph.create () in
  List.iter
    (fun v ->
      Graph.register g v;
      Graph.set_name g v (Structure.name st v))
    (Structure.elems st);
  (* in journal order, so the graph's journal is the structure's *)
  List.iter
    (fun (e : Graph.edge) ->
      ignore (Graph.add_edge g e.Graph.label e.Graph.src e.Graph.dst))
    (edge_journal st);
  g

(* An L₂ equivalence as two generic TGDs. *)
let tgds_of_rule (r : Rule.t) =
  let name = Rule.to_string r in
  let v = Term.var in
  let edge lab x y = Atom.app2 (symbol_of lab) (v x) (v y) in
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
   journal entry ([edge_journal]). *)
let reference_chase ?max_stages ?stop rules g =
  let d = to_structure g in
  (d, Tgd.Chase.run ~engine:`Stage ?max_stages ?stop (tgds_of_rules rules) d)
