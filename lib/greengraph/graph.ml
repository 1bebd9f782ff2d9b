(* Green graphs (Section VI): edge-labelled digraphs over S̄. *)

include Relational.Graph_view.Make (Label)

(* D_I (Section VII, Step 1): vertices a, b and the single edge H∅(a,b).
   a and b act as the constants of the construction. *)
let d_i () =
  let t = create () in
  let a = fresh ~name:"a" t and b = fresh ~name:"b" t in
  ignore (add_edge t Label.empty a b);
  (t, a, b)

(* The 1-2 pattern (Definition 11): edges H1(x,y) and H2(x',y) sharing
   their target. *)
let has_12_pattern t =
  List.exists
    (fun (e1 : edge) ->
      Label.equal e1.label (Label.l 1)
      && List.exists
           (fun (e2 : edge) -> Label.equal e2.label (Label.l 2))
           (in_edges t e1.dst))
    (with_label t (Label.l 1))

let find_12_pattern t =
  List.find_map
    (fun (e1 : edge) ->
      if not (Label.equal e1.label (Label.l 1)) then None
      else
        List.find_map
          (fun (e2 : edge) ->
            if Label.equal e2.label (Label.l 2) then Some (e1, e2) else None)
          (in_edges t e1.dst))
    (with_label t (Label.l 1))

(* The swarm a green graph denotes: each edge H(I^i, x, y). *)
let to_swarm t =
  let g = Swarm.Graph.create () in
  List.iter (fun v ->
      Swarm.Graph.register g v;
      Swarm.Graph.set_name g v (name t v))
    (vertices t);
  iter_edges t (fun e ->
      ignore (Swarm.Graph.add_edge g (Label.to_ideal e.label) e.src e.dst));
  g

(* deprecompile (Definition 35): keep only the swarm edges that are valid
   green-graph edges — full or upper-lame green spiders. *)
let of_swarm g =
  let t = create () in
  List.iter (fun v ->
      register t v;
      set_name t v (Swarm.Graph.name g v))
    (Swarm.Graph.vertices g);
  Swarm.Graph.iter_edges g (fun e ->
      match Label.of_ideal e.Swarm.Graph.label with
      | Some lab -> ignore (add_edge t lab e.Swarm.Graph.src e.Swarm.Graph.dst)
      | None -> ());
  t
