(* Green-graph rewriting rules — the set L₂ of Section VI.

   I1 &·· I2 ] I3 &·· I4 is the equivalence
     ∀x,x' [∃y H(I1,x,y) ∧ H(I2,x',y)] ⇔ [∃y H(I3,x,y) ∧ H(I4,x',y)]
   and I1 /·· I2 ] I3 /·· I4 the same with shared sources.  The paper
   requires I1 ≠ I3 and I2 ≠ I4 and that labels 3, 4 never occur. *)

type conn = Amp | Slash

type t = {
  conn : conn;
  l1 : Label.t;
  l2 : Label.t;  (* left-hand side pair *)
  r1 : Label.t;
  r2 : Label.t;  (* right-hand side pair *)
  name : string;
}

let make ?(name = "") conn (l1, l2) (r1, r2) =
  List.iter Label.check_user [ l1; l2; r1; r2 ];
  if Label.equal l1 r1 || Label.equal l2 r2 then
    invalid_arg "Greengraph.Rule.make: requires I1 ≠ I3 and I2 ≠ I4";
  { conn; l1; l2; r1; r2; name }

let amp ?name (l1, l2) (r1, r2) = make ?name Amp (l1, l2) (r1, r2)
let slash ?name (l1, l2) (r1, r2) = make ?name Slash (l1, l2) (r1, r2)

(* Built without [Format]: the oracle names two bridged TGDs by it per
   graph case. *)
let to_string t =
  let c = match t.conn with Amp -> "&··" | Slash -> "/··" in
  let lab = Label.to_string in
  String.concat ""
    [ (if t.name = "" then "" else t.name ^ ": "); lab t.l1; " "; c; " ";
      lab t.l2; " ] "; lab t.r1; " "; c; " "; lab t.r2 ]

let pp ppf t = Fmt.string ppf (to_string t)

(* --- semantics -------------------------------------------------------- *)

let shared_of conn (e : Graph.edge) =
  match conn with Amp -> e.Graph.dst | Slash -> e.Graph.src

let free_of conn (e : Graph.edge) =
  match conn with Amp -> e.Graph.src | Slash -> e.Graph.dst

(* The edges with a given free endpoint and label (the shared-endpoint
   candidates follow from the connector), read off the (vertex, label)
   index. *)
let edges_at_free_with g conn x lab =
  match conn with
  | Amp -> Graph.out_edges_with g x lab
  | Slash -> Graph.in_edges_with g x lab

let edges_at_shared_with g conn y lab =
  match conn with
  | Amp -> Graph.in_edges_with g y lab
  | Slash -> Graph.out_edges_with g y lab

let c_considered = Obs.Metrics.counter "graph.triggers_considered"
let c_firings = Obs.Metrics.counter "graph.firings"
let c_pair_checks = Obs.Metrics.counter "graph.pair_checks"
let h_delta = Obs.Metrics.histogram "graph.delta_size"

(* Is a pair (x, x') matching labels (a, b) under [conn] present?  The two
   edges share their joint endpoint, so the partner edge is fully
   determined by e1's shared endpoint: one set-membership test replaces a
   scan of every edge at that (possibly high-degree) vertex. *)
let pair_present g conn (a, b) (x, x') =
  if !Obs.metrics_on then Obs.Metrics.incr c_pair_checks;
  List.exists
    (fun (e1 : Graph.edge) ->
      let y = shared_of conn e1 in
      Graph.mem_edge g
        (match conn with
        | Amp -> { label = b; src = x'; dst = y }
        | Slash -> { label = b; src = y; dst = x' }))
    (edges_at_free_with g conn x a)

(* Active triggers of one direction: lhs pair present at (x,x'), rhs pair
   absent.  Each rule is an equivalence, so [triggers] covers both
   directions. *)
let directed_triggers g conn (a, b) (c, d) =
  let hits = ref [] in
  List.iter
    (fun (e1 : Graph.edge) ->
      List.iter
        (fun (e2 : Graph.edge) ->
          let x = free_of conn e1 and x' = free_of conn e2 in
          if not (pair_present g conn (c, d) (x, x')) then
            hits := ((c, x), (d, x')) :: !hits)
        (edges_at_shared_with g conn (shared_of conn e1) b))
    (Graph.with_label g a);
  List.rev !hits

let triggers rule g =
  directed_triggers g rule.conn (rule.l1, rule.l2) (rule.r1, rule.r2)
  @ directed_triggers g rule.conn (rule.r1, rule.r2) (rule.l1, rule.l2)

let fire rule g ((c, x), (d, x')) =
  let v = Graph.fresh g in
  match rule.conn with
  | Amp ->
      ignore (Graph.add_edge g c x v);
      ignore (Graph.add_edge g d x' v)
  | Slash ->
      ignore (Graph.add_edge g c v x);
      ignore (Graph.add_edge g d v x')

let models rules g = List.for_all (fun r -> triggers r g = []) rules

let find_violation rules g =
  List.find_map
    (fun r -> match triggers r g with [] -> None | t :: _ -> Some (r, t))
    rules

module G = Resilience.Governor

type stats = {
  stages : int;
  applications : int;
  triggers_considered : int;
  fixpoint : bool; (* outcome = Fixpoint, kept for callers *)
  outcome : G.outcome;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "stages=%d applications=%d triggers_considered=%d fixpoint=%b outcome=%a"
    s.stages s.applications s.triggers_considered s.fixpoint G.pp_outcome
    s.outcome

(* The semi-naive chase: a stage only examines lhs pairs using at least
   one edge added since the previous stage.  Both conditions of a trigger
   are monotone (lhs pairs and rhs pairs are never removed), so a pair
   wholly inside old edges was examined at an earlier stage and either
   fired (its rhs pair now exists) or was dropped because the rhs pair
   existed — inactive forever either way.  Its reference is the bridged
   TGD chase ([Bridge.reference_chase]). *)

(* The directions of a rule set in canonical order: (rule, lhs, rhs). *)
let directions rules =
  List.concat_map
    (fun rule ->
      [
        (rule, (rule.l1, rule.l2), (rule.r1, rule.r2));
        (rule, (rule.r1, rule.r2), (rule.l1, rule.l2));
      ])
    rules

(* A stage's delta, indexed by label once, so the per-direction scans
   below look their candidate edges up instead of rescanning the whole
   delta for each of the 2·|rules| directions. *)
let index_delta delta_edges =
  let tbl = Graph.Label_tbl.create 16 in
  List.iter
    (fun (e : Graph.edge) ->
      let r =
        match Graph.Label_tbl.find_opt tbl e.Graph.label with
        | Some r -> r
        | None ->
            let r = ref [] in
            Graph.Label_tbl.replace tbl e.Graph.label r;
            r
      in
      r := e :: !r)
    delta_edges;
  tbl

let delta_with tbl lab =
  match Graph.Label_tbl.find_opt tbl lab with Some r -> !r | None -> []

(* One direction's delta-restricted lhs pairs (e1, e2): those using at
   least one delta edge, first edge in the delta, then second. *)
let iter_delta_pairs g conn ~dix (a, b) consider =
  List.iter
    (fun (e1 : Graph.edge) ->
      List.iter (fun e2 -> consider e1 e2)
        (edges_at_shared_with g conn (shared_of conn e1) b))
    (delta_with dix a);
  List.iter
    (fun (e2 : Graph.edge) ->
      List.iter (fun e1 -> consider e1 e2)
        (edges_at_shared_with g conn (shared_of conn e2) a))
    (delta_with dix b)

(* The stage's triggers: for each (rule, direction) in canonical order,
   the sorted, deduplicated (x, x') pairs of its delta-restricted lhs
   pairs whose rhs pair is absent.  That (rule, direction, x, x') order is
   the canonical firing order. *)
let collect_delta ~considered rules g delta_edges =
  let dix = index_delta delta_edges in
  List.concat_map
    (fun (rule, ab, (c, d)) ->
      let acc = ref [] in
      iter_delta_pairs g rule.conn ~dix ab (fun e1 e2 ->
          G.Cancel.poll ();
          acc := (free_of rule.conn e1, free_of rule.conn e2) :: !acc);
      List.filter_map
        (fun (x, x') ->
          incr considered;
          if !Obs.metrics_on then Obs.Metrics.incr c_considered;
          if pair_present g rule.conn (c, d) (x, x') then None
          else Some (rule, ((c, x), (d, x'))))
        (List.sort_uniq compare !acc))
    (directions rules)

(* Packed integer keys for the semi-naive fire table.  A label's code is
   [None -> 0 | Some i -> i + 1]; vertex ids are bounded by
   [Graph.next_vertex] (every registered id is below it, and triggers
   only mention stage-start vertices).  Structural hashing of tuple keys
   was measured to cost more than the work the table saves, so the keys
   are packed into one tagged int when the bounds fit, with a
   structural-key fallback (identical decisions) when they would
   overflow. *)
let lab_code : Label.t -> int = function None -> 0 | Some i -> i + 1

(* [1 + max code] over the rule set's labels, or [0] when some code is
   negative — [make] rejects only the reserved labels and the record is
   public, so nothing keeps user labels nonnegative; [0] means "don't
   pack". *)
let lab_bound rules =
  List.fold_left
    (fun m r ->
      List.fold_left
        (fun m l ->
          let c = lab_code l in
          if c < 0 || m < 0 then -1 else max m (c + 1))
        m
        [ r.l1; r.l2; r.r1; r.r2 ])
    1 rules
  |> max 0

let chase ?(governor = G.unlimited) ?(max_stages = max_int)
    ?(stop = fun _ -> false) rules g =
  let applications = ref 0 in
  let considered = ref 0 in
  let wm = ref 0 in
  let collect () =
    let d = Graph.delta_since g !wm in
    if !Obs.metrics_on then Obs.Metrics.observe h_delta (List.length d);
    let c = collect_delta ~considered rules g d in
    (* advance only after a completed scan: a cancelled scan must not
       move the watermark past the last stage boundary *)
    wm := Graph.watermark g;
    c
  in
  let fire_one fired rule t =
    fire rule g t;
    if !Obs.metrics_on then Obs.Metrics.incr c_firings;
    incr fired
  in
  (* Fire the stage's triggers in order, each only if its rhs pair is
     still absent (the chase of Section II.C); returns the firings.

     The fire-time re-check is O(1) per trigger.  Every collected
     trigger's rhs pair was absent against the stage-start graph, and a
     [fire] only adds edges touching its own fresh vertex, which no older
     edge reaches — so a pair at fire time is either wholly old (absent:
     it was checked at collection) or wholly among the two edges of one
     single firing this stage.  A table of the pairs derivable from each
     firing's edge pair {c: x~v, d: x'~v} therefore decides the re-check
     exactly: present iff probed.  Same decisions as a [pair_present]
     re-check, and measured faster than it (DESIGN.md, "The graph
     engine's fire table").

     Keys are packed ints when the label/vertex bounds fit in a tagged
     word (they do on every realistic rule set); otherwise structural
     5-tuples — same decisions, only the hashing cost differs.  [n0] is
     taken before any firing, so every trigger vertex is below it. *)
  let fire_stage collected =
    let fired = ref 0 in
    let n0 = Graph.next_vertex g in
    let lb = lab_bound rules in
    let packed =
      lb > 0 && n0 > 0
      && float_of_int lb *. float_of_int lb *. float_of_int n0
         *. float_of_int n0 *. 2.
         < 4.0e18
    in
    (if packed then begin
       let fired_pairs = Hashtbl.create 64 in
       let pk conn c x d x' =
         let cb = match conn with Amp -> 0 | Slash -> 1 in
         ((((((cb * lb) + lab_code c) * lb) + lab_code d) * n0 + x) * n0)
         + x'
       in
       List.iter
         (fun (rule, ((c, x), (d, x'))) ->
           if not (Hashtbl.mem fired_pairs (pk rule.conn c x d x')) then begin
             fire_one fired rule ((c, x), (d, x'));
             Hashtbl.replace fired_pairs (pk rule.conn c x d x') ();
             Hashtbl.replace fired_pairs (pk rule.conn d x' c x) ();
             Hashtbl.replace fired_pairs (pk rule.conn c x c x) ();
             Hashtbl.replace fired_pairs (pk rule.conn d x' d x') ()
           end)
         collected
     end
     else begin
       let fired_pairs = Hashtbl.create 64 in
       List.iter
         (fun (rule, ((c, x), (d, x'))) ->
           if not (Hashtbl.mem fired_pairs (rule.conn, c, x, d, x')) then begin
             fire_one fired rule ((c, x), (d, x'));
             List.iter
               (fun k -> Hashtbl.replace fired_pairs k ())
               [
                 (rule.conn, c, x, d, x');
                 (rule.conn, d, x', c, x);
                 (rule.conn, c, x, c, x);
                 (rule.conn, d, x', d, x');
               ]
           end)
         collected
     end);
    !fired
  in
  let step _ =
    let collected = G.with_scope governor collect in
    let fired = fire_stage collected in
    applications := !applications + fired;
    (List.length collected, fired)
  in
  let stages, outcome =
    Obs.Trace.with_span "graph.chase(seminaive)" (fun () ->
        G.run_stages governor ~span:"graph.stage" ~start_stage:0 ~max_stages
          ~sizes:(fun () -> (Graph.order g, Graph.size g))
          ~stop:(fun () -> stop g)
          ~snapshot_every:1 ~snapshot:ignore step)
  in
  {
    stages;
    applications = !applications;
    triggers_considered = !considered;
    fixpoint = outcome = G.Fixpoint;
    outcome;
  }

(* Definition 11 for L₂, bounded: chase D_I and watch for a 1-2 pattern. *)
let leads_to_red_spider ?(max_stages = 16) rules =
  let g, _, _ = Graph.d_i () in
  let stats = chase ~max_stages ~stop:Graph.has_12_pattern rules g in
  if Graph.has_12_pattern g then `Leads (stats, g)
  else if stats.fixpoint then `Does_not_lead (stats, g)
  else `Unknown (stats, g)
