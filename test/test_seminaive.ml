(* Engine equivalence: the semi-naive chase must be observably identical
   to the stage chase — equal structures (fresh ids included) and equal
   application counts — on fixtures and random instances, together with
   the delta machinery it rests on (fact journals, pin index, hom delta
   enumeration). *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge = Symbol.make "E" 2
let v = Term.var
let e x y = Atom.app2 edge (v x) (v y)

let path_query k =
  let name i =
    if i = 0 then "x" else if i = k then "y" else Printf.sprintf "m%d" i
  in
  Cq.Query.make ~free:[ "x"; "y" ]
    (List.init k (fun i -> e (name i) (name (i + 1))))

(* --- the delta journal -------------------------------------------------- *)

let test_delta_journal () =
  let s = Structure.create () in
  let a = Structure.fresh s and b = Structure.fresh s in
  Structure.add2 s edge a b;
  let wm = Structure.watermark s in
  Structure.add2 s edge b a;
  Structure.add2 s edge a a;
  (* duplicate: not journalled *)
  Structure.add2 s edge b a;
  let delta = Structure.delta_since s wm in
  check_int "two new facts" 2 (List.length delta);
  check "delta in insertion order" true
    (delta
    = [ Fact.make edge [| b; a |]; Fact.make edge [| a; a |] ]);
  check "full journal from zero" true
    (List.length (Structure.delta_since s 0) = Structure.size s)

let test_graph_delta_journal () =
  let module G = Greengraph.Graph in
  let g, _, _ = G.d_i () in
  let wm = G.watermark g in
  let x = G.fresh g and y = G.fresh g in
  ignore (G.add_edge g (Greengraph.Label.l 1) x y);
  ignore (G.add_edge g (Greengraph.Label.l 1) x y);
  (* duplicate *)
  check_int "one new edge" 1 (List.length (G.delta_since g wm));
  check_int "journal covers everything" (G.size g)
    (List.length (G.delta_since g 0))

(* --- the (symbol, position, element) pin index --------------------------- *)

let pin_index_property =
  QCheck.Test.make ~name:"pin index agrees with a naive filter" ~count:100
    QCheck.(list_of_size Gen.(int_bound 12) (pair (int_bound 4) (int_bound 4)))
    (fun edges ->
      let s = Structure.create () in
      let vs = Array.init 5 (fun _ -> Structure.fresh s) in
      List.iter (fun (i, j) -> Structure.add2 s edge vs.(i) vs.(j)) edges;
      let naive pos el =
        List.filter
          (fun f -> Fact.sym f = edge && (Fact.args f).(pos) = el)
          (Structure.facts s)
      in
      List.for_all
        (fun pos ->
          Array.for_all
            (fun el ->
              let indexed = Structure.facts_with_pin s edge pos el in
              Structure.pin_count s edge pos el = List.length (naive pos el)
              && List.sort compare indexed = List.sort compare (naive pos el))
            vs)
        [ 0; 1 ])

(* --- delta-restricted hom enumeration ------------------------------------ *)

(* homs(old ∪ delta) = homs(old) ⊎ delta-homs: the delta mode produces
   exactly the homomorphisms whose image touches a new fact, each once. *)
let hom_delta_property =
  QCheck.Test.make ~name:"iter_all ~delta splits homs(old ∪ new)" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 8) (pair (int_bound 3) (int_bound 3)))
        (list_of_size Gen.(int_bound 5) (pair (int_bound 3) (int_bound 3))))
    (fun (old_edges, new_edges) ->
      let atoms = [ e "x" "y"; e "y" "z" ] in
      let make_s edges =
        let s = Structure.create () in
        let vs = Array.init 4 (fun _ -> Structure.fresh s) in
        List.iter (fun (i, j) -> Structure.add2 s edge vs.(i) vs.(j)) edges;
        (s, vs)
      in
      let old_s, _ = make_s old_edges in
      let full_s, vs = make_s old_edges in
      let delta =
        List.filter_map
          (fun (i, j) ->
            let f = Fact.make edge [| vs.(i); vs.(j) |] in
            if Structure.add_fact full_s f then Some f else None)
          new_edges
      in
      let collect ?delta s =
        let out = ref [] in
        Hom.iter_all ?delta s atoms (fun b ->
            out := Term.Var_map.bindings b :: !out);
        List.sort_uniq compare !out
      in
      let homs_old = collect old_s in
      let homs_delta = collect ~delta full_s in
      let homs_full = collect full_s in
      (* disjoint… *)
      List.for_all (fun b -> not (List.mem b homs_old)) homs_delta
      (* …and jointly exhaustive *)
      && List.sort_uniq compare (homs_old @ homs_delta) = homs_full)

(* --- TGD chase: stage ≡ seminaive ---------------------------------------- *)

let tq_fixture () =
  let deps = Tgd.Dep.t_q [ ("p2", path_query 2); ("p3", path_query 3) ] in
  let seed () = fst (Tgd.Greenred.green_canonical (path_query 5)) in
  (deps, seed)

let test_tgd_engines_fixture () =
  let deps, seed = tq_fixture () in
  let d1 = seed () and d2 = seed () in
  let s1 = Tgd.Chase.run ~engine:`Stage ~max_stages:5 deps d1 in
  let s2 = Tgd.Chase.run ~engine:`Seminaive ~max_stages:5 deps d2 in
  check "equal structures" true (Structure.equal_sets d1 d2);
  check_int "equal applications" s1.Tgd.Chase.applications
    s2.Tgd.Chase.applications;
  check_int "equal stages" s1.Tgd.Chase.stages s2.Tgd.Chase.stages;
  check "seminaive considers fewer triggers" true
    (s2.Tgd.Chase.triggers_considered <= s1.Tgd.Chase.triggers_considered)

(* [`Seminaive] is [`Par] at one worker: with metrics on, the two must
   build the same structure, journal, firing sequence and stats, and tick
   the same hom-level effort counters — one plan per body, one discovery
   path, nothing left for the counters to diverge through. *)
let effort_counters =
  [ "hom.candidates_scanned"; "hom.unify_attempts"; "hom.backtracks" ]

let effort () =
  List.map (fun n -> Obs.Metrics.value (Obs.Metrics.counter n)) effort_counters

let check_one_pipeline what ~max_stages ~stop deps seed =
  let run engine jobs =
    let d = seed () in
    let firings = ref [] in
    let on_fire ~stage dep fb =
      firings :=
        (stage, Tgd.Dep.name dep, Term.Var_map.bindings fb) :: !firings
    in
    let e0 = effort () in
    let stats =
      Tgd.Chase.run ~engine ?jobs ~max_stages ~stop ~on_fire deps d
    in
    let spent = List.map2 ( - ) (effort ()) e0 in
    (d, stats, List.rev !firings, spent)
  in
  Obs.set_metrics true;
  let (d1, s1, f1, e1), (d2, s2, f2, e2) =
    Fun.protect
      ~finally:(fun () -> Obs.set_metrics false)
      (fun () ->
        let sn = run `Seminaive None in
        (sn, run `Par (Some 1)))
  in
  check (what ^ ": equal structures") true (Structure.equal_sets d1 d2);
  check (what ^ ": equal journals") true
    (Structure.delta_since d1 0 = Structure.delta_since d2 0);
  check (what ^ ": equal firing sequences") true (f1 = f2);
  check (what ^ ": equal stats") true (s1 = s2);
  List.iter2
    (fun name (a, b) -> check_int (what ^ ": equal " ^ name) a b)
    effort_counters (List.combine e1 e2)

let test_one_pipeline () =
  let deps, seed = tq_fixture () in
  check_one_pipeline "T_Q fixture" ~max_stages:5
    ~stop:(fun _ -> false)
    deps seed;
  (* the paper's regime: T_Q = Compile(Precompile(T∞)) at s = 10, whose
     spider-CQ bodies of 80-odd atoms give the plans real orders *)
  let p = Greengraph.Precompile.to_level0 ~s:10 Separating.Tinf.rules in
  let spider () =
    let st = Structure.create () in
    let a = Structure.fresh ~name:"a" st and b = Structure.fresh ~name:"b" st in
    ignore
      (Spider.Real.realize p.Greengraph.Precompile.ctx st ~tail:a ~antenna:b
         Spider.Ideal.full_green);
    st
  in
  check_one_pipeline "T_Q(T∞) at s=10" ~max_stages:3
    ~stop:(fun _ -> false)
    p.Greengraph.Precompile.tgds spider;
  let budget = Oracle.Diff.default_budget in
  for case = 0 to 39 do
    let inst = Oracle.Gen.instance (Oracle.Gen.case_rng ~seed:42 ~case) in
    check_one_pipeline
      (Printf.sprintf "oracle case %d" case)
      ~max_stages:budget.Oracle.Diff.max_stages
      ~stop:(fun d ->
        Structure.card d > budget.Oracle.Diff.max_elems
        || Structure.size d > budget.Oracle.Diff.max_facts)
      inst.Oracle.Gen.deps
      (fun () -> Oracle.Gen.build inst)
  done

(* Random TGD sets over one binary symbol, random seed structures, short
   stage budgets: the two engines must build the very same structure. *)
let dep_templates =
  [
    Tgd.Dep.make ~body:[ e "x" "y" ] ~head:[ e "y" "z" ] ();
    Tgd.Dep.make ~body:[ e "x" "y" ] ~head:[ e "y" "x" ] ();
    Tgd.Dep.make ~body:[ e "x" "y"; e "y" "z" ] ~head:[ e "x" "z" ] ();
    Tgd.Dep.make ~body:[ e "x" "y" ] ~head:[ e "y" "z"; e "z" "y" ] ();
    Tgd.Dep.make ~body:[ e "x" "y"; e "x" "z" ] ~head:[ e "y" "w" ] ();
    Tgd.Dep.make ~body:[ e "x" "x" ] ~head:[ e "x" "z"; e "z" "z" ] ();
  ]

let tgd_engines_random_property =
  QCheck.Test.make ~name:"random TGDs: stage ≡ seminaive" ~count:40
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 4) (int_bound 5))
        (list_of_size Gen.(int_bound 8) (pair (int_bound 3) (int_bound 3))))
    (fun (dep_picks, edges) ->
      let deps =
        List.map (fun i -> List.nth dep_templates (i mod 6)) dep_picks
      in
      let seed () =
        let s = Structure.create () in
        let vs = Array.init 4 (fun _ -> Structure.fresh s) in
        List.iter (fun (i, j) -> Structure.add2 s edge vs.(i) vs.(j)) edges;
        s
      in
      let d1 = seed () and d2 = seed () in
      let s1 = Tgd.Chase.run ~engine:`Stage ~max_stages:3 deps d1 in
      let s2 = Tgd.Chase.run ~engine:`Seminaive ~max_stages:3 deps d2 in
      Structure.equal_sets d1 d2
      && s1.Tgd.Chase.applications = s2.Tgd.Chase.applications
      && s1.Tgd.Chase.stages = s2.Tgd.Chase.stages
      && s1.Tgd.Chase.fixpoint = s2.Tgd.Chase.fixpoint)

(* After a semi-naive run reaches its fixpoint, the global trigger scan
   must agree: no active triggers, [models] true, [find_violation] none.
   On a budget-cut run all three must agree with each other either way. *)
let models_agree_property =
  QCheck.Test.make ~name:"models/find_violation vs incremental triggers"
    ~count:40
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 3) (int_bound 5))
        (list_of_size Gen.(int_bound 6) (pair (int_bound 2) (int_bound 2))))
    (fun (dep_picks, edges) ->
      let deps =
        List.map (fun i -> List.nth dep_templates (i mod 6)) dep_picks
      in
      let d = Structure.create () in
      let vs = Array.init 3 (fun _ -> Structure.fresh d) in
      List.iter (fun (i, j) -> Structure.add2 d edge vs.(i) vs.(j)) edges;
      let stats = Tgd.Chase.run ~engine:`Seminaive ~max_stages:3 deps d in
      let active = Tgd.Chase.active_triggers deps d in
      let m = Tgd.Chase.models deps d in
      let viol = Tgd.Chase.find_violation deps d in
      m = (active = [])
      && m = (viol = None)
      && (not stats.Tgd.Chase.fixpoint || m))

let test_models_after_fixpoint () =
  (* symmetric closure terminates; the incremental run must end in a model *)
  let deps = [ Tgd.Dep.make ~body:[ e "x" "y" ] ~head:[ e "y" "x" ] () ] in
  let d = Structure.create () in
  let a = Structure.fresh d and b = Structure.fresh d and c = Structure.fresh d in
  Structure.add2 d edge a b;
  Structure.add2 d edge b c;
  let stats = Tgd.Chase.run ~engine:`Seminaive deps d in
  check "fixpoint" true stats.Tgd.Chase.fixpoint;
  check "models" true (Tgd.Chase.models deps d);
  check "no violation" true (Tgd.Chase.find_violation deps d = None);
  check "no active triggers" true (Tgd.Chase.active_triggers deps d = [])

(* --- graph-rule chase against its bridged reference ---------------------- *)

module GG = Greengraph.Graph
module GR = Greengraph.Rule
module B = Greengraph.Bridge

(* The graph chase's reference ([Bridge.reference_chase]) from the start
   graph [g], with the 1-2 pattern stop when [pattern_stop]. *)
let bridged_reference ?(pattern_stop = false) ~max_stages rules g =
  B.reference_chase ~max_stages
    ~stop:(fun d -> pattern_stop && GG.has_12_pattern (B.of_structure d))
    rules g

(* Run for run: equal edge journals (fresh vertex ids included), equal
   stages and applications, and no more pairs considered than the
   reference. *)
let same_as_reference what (d, (rs : Tgd.Chase.stats)) g (s : GR.stats) =
  check (what ^ ": equal edge journals") true
    (GG.delta_since g 0 = GG.delta_since (B.of_structure d) 0);
  check_int (what ^ ": equal stages") rs.Tgd.Chase.stages s.GR.stages;
  check_int (what ^ ": equal applications") rs.Tgd.Chase.applications
    s.GR.applications;
  check (what ^ ": considers no more") true
    (s.GR.triggers_considered <= rs.Tgd.Chase.triggers_considered)

let d_i () =
  let g, _, _ = GG.d_i () in
  g

let test_graph_engines_tinf () =
  List.iter
    (fun stages ->
      let r =
        bridged_reference ~max_stages:stages Separating.Tinf.rules (d_i ())
      in
      let g, _, _, s = Separating.Tinf.chase ~stages () in
      same_as_reference (Printf.sprintf "T∞ %d stages" stages) r g s)
    [ 6; 10; 14 ]

let test_graph_engines_collision () =
  let g0, _, _ = Separating.Paths.collision ~t:3 ~t':4 in
  let ((d, _) as r) =
    bridged_reference ~pattern_stop:true ~max_stages:64 Separating.Tbox.rules
      g0
  in
  let p, s, g = Separating.Theorem14.collision_outcome ~t:3 ~t':4 () in
  check "same 1-2 verdict" true (p = GG.has_12_pattern (B.of_structure d));
  same_as_reference "collision (3,4)" r g s

let test_graph_engines_worm () =
  let wr = Reduction.Worm_rules.of_machine Rainworm.Zoo.eternal_creeper in
  let r =
    bridged_reference ~max_stages:15 wr.Reduction.Worm_rules.rules (d_i ())
  in
  let g, _, _, s = Reduction.Worm_rules.chase ~stages:15 wr in
  same_as_reference "worm rules" r g s

(* The graph effort counters, pinned: the graph engine counts each new
   lhs pair once; its bridged reference rescans and re-checks every lhs
   pair each stage.  Graph rows: (considered, pair checks, firings,
   shards); [par.shards] stays 0, since the graph engine runs no pool.
   Reference rows: (considered, applications, stages). *)
let graph_effort_counters =
  [
    "graph.triggers_considered"; "graph.pair_checks"; "graph.firings";
    "par.shards";
  ]

let test_graph_effort_pinned () =
  let tally run =
    let value n = Obs.Metrics.value (Obs.Metrics.counter n) in
    let before = List.map value graph_effort_counters in
    run ();
    List.map2 (fun n b -> value n - b) graph_effort_counters before
  in
  let e1 () = ignore (Separating.Tinf.chase ~stages:20 ()) in
  let e2 () =
    ignore (Separating.Theorem14.collision_outcome ~t:4 ~t':4 ())
  in
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      List.iter
        (fun (what, run, expected) ->
          Alcotest.(check (list int)) what expected (tally run))
        [
          ("E1 T∞ seminaive", e1, [ 39; 39; 20; 0 ]);
          ("E2 grid(4,4) seminaive", e2, [ 980; 980; 490; 0 ]);
        ]);
  let grid, _, _ = Separating.Paths.collision ~t:4 ~t':4 in
  List.iter
    (fun (what, (_, (s : Tgd.Chase.stats)), expected) ->
      Alcotest.(check (list int)) what expected
        Tgd.Chase.[ s.triggers_considered; s.applications; s.stages ])
    [
      ( "E1 T∞ bridged reference",
        bridged_reference ~max_stages:20 Separating.Tinf.rules (d_i ()),
        [ 400; 20; 20 ] );
      ( "E2 grid(4,4) bridged reference",
        bridged_reference ~pattern_stop:true ~max_stages:64
          Separating.Tbox.rules grid,
        [ 10318; 490; 18 ] );
    ]

let () =
  Alcotest.run "seminaive"
    [
      ( "delta",
        [
          Alcotest.test_case "structure journal" `Quick test_delta_journal;
          Alcotest.test_case "graph journal" `Quick test_graph_delta_journal;
        ] );
      ( "tgd",
        [
          Alcotest.test_case "T_Q fixture" `Quick test_tgd_engines_fixture;
          Alcotest.test_case "models after fixpoint" `Quick
            test_models_after_fixpoint;
          Alcotest.test_case "seminaive = par at one worker, effort included"
            `Quick test_one_pipeline;
        ] );
      ( "graph",
        [
          Alcotest.test_case "T∞" `Quick test_graph_engines_tinf;
          Alcotest.test_case "collision grid" `Quick test_graph_engines_collision;
          Alcotest.test_case "worm rules" `Quick test_graph_engines_worm;
          Alcotest.test_case "effort counters pinned" `Quick
            test_graph_effort_pinned;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            pin_index_property;
            hom_delta_property;
            tgd_engines_random_property;
            models_agree_property;
          ] );
    ]
