(* Swarm rewriting rules — the set L₁ of Definition 7.

   A rule f^{I1}_{J1} &· f^{I2}_{J2} (resp. /·) says: whenever two
   same-colored edges labelled S1, S2 share their target (resp. source)
   and the Rule of Spider Algebra lets f^{I1}_{J1} act on S1 and
   f^{I2}_{J2} act on S2, there must be a fresh-shared-endpoint pair of
   edges labelled f(S1), f(S2) anchored at the old free endpoints. *)

type t = {
  left : Spider.Query.f;
  right : Spider.Query.f;
  conn : Spider.Query.conn;  (* Amp: shared target; Slash: shared source *)
}

let amp left right = { left; right; conn = Spider.Query.Amp }
let slash left right = { left; right; conn = Spider.Query.Slash }

let binary t = { Spider.Query.left = t.left; right = t.right; conn = t.conn }

(* Definition 8: Compile treats each swarm rule as the corresponding
   binary query from F₂. *)
let compile = binary

let compile_set rules = List.map compile rules

(* "Lower" rules (Definition 33): both J1 and J2 nonempty. *)
let is_lower t =
  Spider.Query.lower t.left <> None && Spider.Query.lower t.right <> None

let pp ppf t =
  Fmt.pf ppf "%a %s· %a" Spider.Query.pp_f t.left
    (match t.conn with Spider.Query.Amp -> "&" | Spider.Query.Slash -> "/")
    Spider.Query.pp_f t.right

(* --- semantics -------------------------------------------------------- *)

(* The anchors of an edge under a connector: [shared] is the identified
   endpoint, [free] the other one. *)
let shared_of conn (e : Graph.edge) =
  match conn with Spider.Query.Amp -> e.Graph.dst | Spider.Query.Slash -> e.Graph.src

let free_of conn (e : Graph.edge) =
  match conn with Spider.Query.Amp -> e.Graph.src | Spider.Query.Slash -> e.Graph.dst

let edges_at_shared g conn y =
  match conn with
  | Spider.Query.Amp -> Graph.in_edges g y
  | Spider.Query.Slash -> Graph.out_edges g y

(* Are the demanded witnesses present: an edge labelled [p1] at free
   endpoint [free1] whose shared endpoint carries an edge labelled [p2]
   to [free2]?  The partner edge is fully determined by the first one's
   shared endpoint, so one membership test finds it. *)
let witness_exists g conn (p1, free1) (p2, free2) =
  match conn with
  | Spider.Query.Amp ->
      List.exists
        (fun (w1 : Graph.edge) ->
          Graph.mem_edge g { label = p2; src = free2; dst = w1.Graph.dst })
        (Graph.out_edges_with g free1 p1)
  | Spider.Query.Slash ->
      List.exists
        (fun (w1 : Graph.edge) ->
          Graph.mem_edge g { label = p2; src = w1.Graph.src; dst = free2 })
        (Graph.in_edges_with g free1 p1)

let triggers rule g =
  (* each shared endpoint's edges, read once per call: the graph does
     not change while its triggers are collected *)
  let at_shared = Hashtbl.create 16 in
  let edges_at y =
    match Hashtbl.find at_shared y with
    | es -> es
    | exception Not_found ->
        let es = edges_at_shared g rule.conn y in
        Hashtbl.add at_shared y es;
        es
  in
  List.concat_map
    (fun (e1 : Graph.edge) ->
      List.filter_map
        (fun (e2 : Graph.edge) ->
          match
            Spider.Algebra.apply_binary (binary rule) e1.Graph.label
              e2.Graph.label
          with
          | None -> None
          | Some (p1, p2) ->
              let f1 = free_of rule.conn e1 and f2 = free_of rule.conn e2 in
              if witness_exists g rule.conn (p1, f1) (p2, f2) then None
              else Some ((p1, f1), (p2, f2)))
        (edges_at (shared_of rule.conn e1)))
    (Graph.edges g)

(* Fire one trigger: create the fresh shared endpoint and the two edges. *)
let fire rule g ((p1, f1), (p2, f2)) =
  let v = Graph.fresh g in
  (match rule.conn with
  | Spider.Query.Amp ->
      ignore (Graph.add_edge g p1 f1 v);
      ignore (Graph.add_edge g p2 f2 v)
  | Spider.Query.Slash ->
      ignore (Graph.add_edge g p1 v f1);
      ignore (Graph.add_edge g p2 v f2))

let models rules g = List.for_all (fun r -> triggers r g = []) rules

(* A chase for swarms, mirroring Tgd.Chase.run: stage by stage, collect
   the active triggers then fire those still active. *)
type stats = { stages : int; applications : int; fixpoint : bool }

let chase ?(max_stages = max_int) ?(stop = fun _ -> false) rules g =
  let applications = ref 0 in
  let rec go i =
    if i > max_stages then { stages = i - 1; applications = !applications; fixpoint = false }
    else begin
      (* collect all triggers against the stage-start swarm, then fire
         those still active (mirroring the chase of Section II.C) *)
      let collected =
        List.concat_map (fun rule -> List.map (fun t -> (rule, t)) (triggers rule g)) rules
      in
      let fired = ref 0 in
      List.iter
        (fun (rule, ((p1, f1), (p2, f2))) ->
          if not (witness_exists g rule.conn (p1, f1) (p2, f2)) then begin
            fire rule g ((p1, f1), (p2, f2));
            incr fired
          end)
        collected;
      applications := !applications + !fired;
      if !fired = 0 then { stages = i; applications = !applications; fixpoint = true }
      else if stop g then { stages = i; applications = !applications; fixpoint = false }
      else go (i + 1)
    end
  in
  go 1

(* Definition 11 for L₁, as a bounded semi-decision: chase the seed swarm
   (one full green spider) and watch for a full red spider edge. *)
let leads_to_red_spider ?(max_stages = 16) rules =
  let g, _, _ = Graph.seed () in
  let stats = chase ~max_stages ~stop:Graph.has_full_red rules g in
  if Graph.has_full_red g then `Leads (stats, g)
  else if stats.fixpoint then `Does_not_lead (stats, g)
  else `Unknown (stats, g)
