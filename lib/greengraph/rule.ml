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

let pp ppf t =
  let c = match t.conn with Amp -> "&··" | Slash -> "/··" in
  Fmt.pf ppf "%s%a %s %a ] %a %s %a"
    (if t.name = "" then "" else t.name ^ ": ")
    Label.pp t.l1 c Label.pp t.l2 Label.pp t.r1 c Label.pp t.r2

(* Canonical ruleset digest, mirroring [Tgd.Dep.digest_hex]: connector
   and label pairs in rule order, names excluded (renamed rulesets
   rewrite identically).  Order-sensitive — firing order determines
   fresh-vertex identity. *)
let digest_hex rules =
  let dg = Relational.Digest128.create () in
  List.iter
    (fun r ->
      Relational.Digest128.feed_int dg
        (match r.conn with Amp -> 0 | Slash -> 1);
      List.iter
        (fun l ->
          Relational.Digest128.feed_string dg
            (Format.asprintf "%a" Label.pp l))
        [ r.l1; r.l2; r.r1; r.r2 ])
    rules;
  Relational.Digest128.hex ~salt:[ List.length rules ] dg

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

(* Trigger-discovery engines, mirroring [Tgd.Chase]: [`Stage] rescans
   every label bucket each stage and re-checks each rhs pair against the
   graph at fire time — the reference; [`Par] only examines lhs pairs
   using at least one edge added since the previous stage, one task per
   rule direction on a work-stealing domain pool with a canonical
   sequential merge, still bit-identical; [`Seminaive] (default) is
   [`Par] at one worker.
   Both conditions of a trigger are monotone (lhs pairs and rhs pairs are
   never removed), so a pair wholly inside old edges was examined at an
   earlier stage and either fired (its rhs pair now exists) or was
   dropped because the rhs pair existed — inactive forever either way. *)
type engine = [ `Stage | `Seminaive | `Par ]

(* The directions of a rule set in canonical order: (rule, lhs, rhs). *)
let directions rules =
  List.concat_map
    (fun rule ->
      [
        (rule, (rule.l1, rule.l2), (rule.r1, rule.r2));
        (rule, (rule.r1, rule.r2), (rule.l1, rule.l2));
      ])
    rules

(* The reference collector: for each rule and direction, the
   deduplicated (x, x') pairs with an lhs pair present and the rhs pair
   absent, rescanning every edge with the lhs label, in the canonical
   firing order (rule, direction, x, x') shared by every engine so their
   fresh vertices coincide. *)
let collect_stage ~considered rules g =
  List.concat_map
    (fun (rule, (a, b), (c, d)) ->
      let seen = Hashtbl.create 32 in
      let out = ref [] in
      List.iter
        (fun (e1 : Graph.edge) ->
          List.iter
            (fun (e2 : Graph.edge) ->
              (* cooperative cancellation: the scan is read-only here *)
              G.Cancel.poll ();
              let x = free_of rule.conn e1 and x' = free_of rule.conn e2 in
              if not (Hashtbl.mem seen (x, x')) then begin
                Hashtbl.replace seen (x, x') ();
                incr considered;
                if !Obs.metrics_on then Obs.Metrics.incr c_considered;
                if not (pair_present g rule.conn (c, d) (x, x')) then
                  out := (x, x') :: !out
              end)
            (edges_at_shared_with g rule.conn (shared_of rule.conn e1) b))
        (Graph.with_label g a);
      List.sort compare !out
      |> List.map (fun (x, x') -> (rule, ((c, x), (d, x')))))
    (directions rules)

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

let c_merge_ms = Obs.Metrics.counter "par.merge_ms"

(* The semi-naive collector, at every worker count.  Each (rule,
   direction) is one task on a work-stealing pool (inline at one worker):
   it reads the graph only and returns its sorted, deduplicated (x, x')
   pairs.  A sequential merge then counts and rhs-checks them in (rule,
   direction) order, which is the canonical firing order.  Under the
   ["par.shard"] failpoint the degrade rung runs the same tasks inline,
   so every rung yields the same triggers. *)
let collect_delta ~jobs ~considered rules g delta_edges =
  let dix = index_delta delta_edges in
  let dirs = Array.of_list (directions rules) in
  let n = Array.length dirs in
  let task t =
    let rule, ab, _ = dirs.(t) in
    let acc = ref [] in
    iter_delta_pairs g rule.conn ~dix ab (fun e1 e2 ->
        G.Cancel.poll ();
        acc := (free_of rule.conn e1, free_of rule.conn e2) :: !acc);
    List.sort_uniq compare !acc
  in
  let pairs =
    Resilience.Failpoint.ladder ~site:"par.shard" n
      (fun guard ->
        Relational.Pool.run_stealing ~jobs n (fun t ->
            guard t;
            task t))
      ~degrade:(fun () -> Array.init n task)
  in
  let t0 = Obs.Clock.now_s () in
  let out = ref [] in
  Array.iteri
    (fun t ps ->
      let rule, _, (c, d) = dirs.(t) in
      List.iter
        (fun (x, x') ->
          incr considered;
          if !Obs.metrics_on then Obs.Metrics.incr c_considered;
          if not (pair_present g rule.conn (c, d) (x, x')) then
            out := (rule, ((c, x), (d, x'))) :: !out)
        ps)
    pairs;
  if !Obs.metrics_on then
    Obs.Metrics.add c_merge_ms
      (int_of_float ((Obs.Clock.now_s () -. t0) *. 1000.));
  List.rev !out

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

(* A resumable graph-chase snapshot.  The graph chase keeps no persistent
   dedup state across stages (its trigger dedup is per stage), so a
   snapshot is the graph (a journal-order-preserving Marshal clone), the
   watermark and the counters.  [gsnap_stage] is the last completed
   stage; resuming continues at [gsnap_stage + 1] with absolute stage
   numbering. *)
type snapshot = {
  gsnap_engine : engine;
  gsnap_stage : int;
  gsnap_wm : int;
  gsnap_considered : int;
  gsnap_applications : int;
  gsnap_rules : t list; (* plain data; compared to reject mismatched resumes *)
  gsnap_graph : Graph.t;
}

let chase ?(engine = `Seminaive) ?jobs ?(governor = G.unlimited)
    ?(max_stages = max_int) ?(stop = fun _ -> false) ?(snapshot_every = 1)
    ?on_snapshot ?from rules g =
  (match from with
  | Some s ->
      if s.gsnap_rules <> rules then
        invalid_arg "Rule.resume: rule list differs from the snapshot's"
  | None -> ());
  let jobs =
    match (engine, jobs) with
    | (`Stage | `Seminaive), _ -> 1
    | `Par, Some j -> max 1 j
    | `Par, None -> Relational.Pool.default_jobs ()
  in
  let start_stage, wm0, considered0, apps0 =
    match from with
    | Some s -> (s.gsnap_stage, s.gsnap_wm, s.gsnap_considered, s.gsnap_applications)
    | None -> (0, 0, 0, 0)
  in
  let applications = ref apps0 in
  let considered = ref considered0 in
  let wm = ref wm0 in
  let snapshot i =
    match on_snapshot with
    | Some f ->
        f
          {
            gsnap_engine = engine;
            gsnap_stage = i;
            gsnap_wm = !wm;
            gsnap_considered = !considered;
            gsnap_applications = !applications;
            gsnap_rules = rules;
            gsnap_graph = Resilience.Checkpoint.clone g;
          }
    | None -> ()
  in
  let collect () =
    match engine with
    | `Stage ->
        if !Obs.metrics_on then Obs.Metrics.observe h_delta (Graph.size g);
        collect_stage ~considered rules g
    | `Seminaive | `Par ->
        let d = Graph.delta_since g !wm in
        if !Obs.metrics_on then Obs.Metrics.observe h_delta (List.length d);
        let c = collect_delta ~jobs ~considered rules g d in
        (* advance only after a completed scan: a cancelled scan must not
           move the watermark past the last resumable boundary *)
        wm := Graph.watermark g;
        c
  in
  let fire_one fired rule t =
    fire rule g t;
    if !Obs.metrics_on then Obs.Metrics.incr c_firings;
    incr fired
  in
  (* Fire the stage's triggers in order, each only if its rhs pair is
     still absent (the chase of Section II.C); returns the firings. *)
  let fire_stage collected =
    let fired = ref 0 in
    (match engine with
    | `Stage ->
        List.iter
          (fun (rule, ((c, x), (d, x'))) ->
            if not (pair_present g rule.conn (c, d) (x, x')) then
              fire_one fired rule ((c, x), (d, x')))
          collected
    | `Seminaive | `Par ->
        (* The fire-time re-check, O(1) per trigger.  Every collected
           trigger's rhs pair was absent against the stage-start graph,
           and a [fire] only adds edges touching its own fresh vertex,
           which no older edge reaches — so a pair at fire time is either
           wholly old (absent: it was checked at collection) or wholly
           among the two edges of one single firing this stage.  A table
           of the pairs derivable from each firing's edge pair
           {c: x~v, d: x'~v} therefore decides the re-check exactly:
           present iff probed.  Bit-identical outcomes to the reference
           [pair_present] re-check, and measured faster than it
           (DESIGN.md, "The graph engine's fire table"). *)
        (* Keys are packed ints when the label/vertex bounds fit in a
           tagged word (they do on every realistic rule set); otherwise
           structural 5-tuples — same decisions, only the hashing cost
           differs.  [n0] is taken before any firing, so every trigger
           vertex is below it. *)
        let n0 = Graph.next_vertex g in
        let lb = lab_bound rules in
        let packed =
          lb > 0 && n0 > 0
          && float_of_int lb *. float_of_int lb *. float_of_int n0
             *. float_of_int n0 *. 2.
             < 4.0e18
        in
        if packed then begin
          let fired_pairs = Hashtbl.create 64 in
          let pk conn c x d x' =
            let cb = match conn with Amp -> 0 | Slash -> 1 in
            ((((((cb * lb) + lab_code c) * lb) + lab_code d) * n0 + x) * n0)
            + x'
          in
          List.iter
            (fun (rule, ((c, x), (d, x'))) ->
              if not (Hashtbl.mem fired_pairs (pk rule.conn c x d x'))
              then begin
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
              if not (Hashtbl.mem fired_pairs (rule.conn, c, x, d, x'))
              then begin
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
    Obs.Trace.with_span
      (match engine with
      | `Stage -> "graph.chase(stage)"
      | `Seminaive -> "graph.chase(seminaive)"
      | `Par -> "graph.chase(par)")
      (fun () ->
        G.run_stages governor ~span:"graph.stage" ~start_stage ~max_stages
          ~sizes:(fun () -> (List.length (Graph.vertices g), Graph.size g))
          ~stop:(fun () -> stop g)
          ~snapshot_every ~snapshot step)
  in
  {
    stages;
    applications = !applications;
    triggers_considered = !considered;
    fixpoint = outcome = G.Fixpoint;
    outcome;
  }

(* Continue a checkpointed graph chase on the snapshot's own graph (clone
   the snapshot first to keep it reusable): prefix + resume is
   bit-identical to one uninterrupted run with the same absolute
   [max_stages]. *)
let resume ?jobs ?governor ?max_stages ?stop ?snapshot_every ?on_snapshot
    rules snap =
  let g = snap.gsnap_graph in
  let stats =
    chase ~engine:snap.gsnap_engine ?jobs ?governor ?max_stages ?stop
      ?snapshot_every ?on_snapshot ~from:snap rules g
  in
  (stats, g)

(* Definition 11 for L₂, bounded: chase D_I and watch for a 1-2 pattern. *)
let leads_to_red_spider ?(max_stages = 16) rules =
  let g, _, _ = Graph.d_i () in
  let stats = chase ~max_stages ~stop:Graph.has_12_pattern rules g in
  if Graph.has_12_pattern g then `Leads (stats, g)
  else if stats.fixpoint then `Does_not_lead (stats, g)
  else `Unknown (stats, g)
