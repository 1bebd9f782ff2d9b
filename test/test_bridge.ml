(* Cross-validation: the dedicated swarm and green-graph engines agree
   with the generic TGD machinery run over the bridge encodings — on
   verdicts, and for green graphs on whole chase runs. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let f = Spider.Query.f

(* --- roundtrips ---------------------------------------------------------- *)

let test_swarm_roundtrip () =
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and y = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.red ~lower:2 ()) y x);
  let g' = Swarm.Bridge.of_structure (Swarm.Bridge.to_structure g) in
  check "swarm roundtrip" true (Swarm.Graph.equal g g')

let test_greengraph_roundtrip () =
  let g, _, _ = Greengraph.Graph.d_i () in
  ignore (Greengraph.Graph.add_edge g (Some 7) 0 1);
  let g' = Greengraph.Bridge.of_structure (Greengraph.Bridge.to_structure g) in
  check "green graph roundtrip" true (Greengraph.Graph.equal g g')

(* A round trip keeps a graph's edge journal entry for entry, on both
   bridges: seed 42's green-graph cases, as generated and after a
   budgeted chase (fresh vertices included), and the swarms decompiled
   from each stage of the Level-0 chase of T_Q(T∞) at s = 10. *)
let test_journal_roundtrip () =
  let module G = Greengraph.Graph in
  let module B = Greengraph.Bridge in
  let b = Oracle.Diff.default_budget in
  let same_journal what g =
    check (what ^ ": same edge journal") true
      (G.delta_since (B.of_structure (B.to_structure g)) 0 = G.delta_since g 0)
  in
  for case = 0 to 599 do
    let gc = Oracle.Gen.graph_case (Oracle.Gen.case_rng ~seed:42 ~case) in
    let g = Oracle.Gen.build_graph gc in
    same_journal (Printf.sprintf "seed 42 case %d" case) g;
    ignore
      (Greengraph.Rule.chase ~max_stages:b.Oracle.Diff.max_stages
         ~stop:(fun g ->
           G.size g > b.Oracle.Diff.max_facts
           || G.order g > b.Oracle.Diff.max_elems)
         gc.Oracle.Gen.rules g);
    same_journal (Printf.sprintf "seed 42 case %d, chased" case) g
  done;
  let module S = Swarm.Graph in
  let p = Greengraph.Precompile.to_level0 ~s:10 Separating.Tinf.rules in
  let ctx = p.Greengraph.Precompile.ctx in
  let st = Relational.Structure.create () in
  let x = Relational.Structure.fresh st and y = Relational.Structure.fresh st in
  ignore (Spider.Real.realize ctx st ~tail:x ~antenna:y Spider.Ideal.full_green);
  let stage = ref 0 in
  let decompiled st =
    let sw = Swarm.Compile.decompile ctx st in
    check
      (Printf.sprintf "T_Q(T∞) stage %d: same swarm journal" !stage)
      true
      (S.delta_since (Swarm.Bridge.of_structure (Swarm.Bridge.to_structure sw)) 0
      = S.delta_since sw 0);
    incr stage;
    false
  in
  ignore (decompiled st);
  ignore (Tgd.Chase.run ~max_stages:6 ~stop:decompiled p.Greengraph.Precompile.tgds st);
  check_int "swarms checked" 7 !stage

(* The bridged TGDs are named by [Rule.to_string]: the names of seed 42's
   graph cases and of T∞'s and T□'s rule sets are pinned by count and
   digest, as [Fmt.str "%a:>" Rule.pp] printed them before [Rule.pp] was
   rebuilt on [to_string]. *)
let test_tgd_names () =
  let b = Buffer.create 4096 and n = ref 0 in
  let add r =
    List.iter
      (fun d ->
        incr n;
        Buffer.add_string b (Tgd.Dep.name d);
        Buffer.add_char b '\n')
      (Greengraph.Bridge.tgds_of_rule r)
  in
  for case = 0 to 599 do
    let gc = Oracle.Gen.graph_case (Oracle.Gen.case_rng ~seed:42 ~case) in
    List.iter add gc.Oracle.Gen.rules
  done;
  List.iter add (Separating.Tinf.rules @ Separating.Tbox.rules);
  Alcotest.(check string) "first name" "g0: ∅ &·· 1 ] 5 &·· 0:>"
    (List.hd (String.split_on_char '\n' (Buffer.contents b)));
  Alcotest.(check int) "names" 2480 !n;
  Alcotest.(check string) "names digest" "edbaacdbd3fd00a1c41c93eda00b2155"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_roundtrip_property =
  QCheck.Test.make ~name:"green-graph bridge roundtrip (random)" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 10)
      (triple (int_bound 5) (int_bound 5) (option (int_range 5 20))))
    (fun edges ->
      let g = Greengraph.Graph.create () in
      List.iter (fun (x, y, lab) -> ignore (Greengraph.Graph.add_edge g lab x y)) edges;
      Greengraph.Graph.equal g
        (Greengraph.Bridge.of_structure (Greengraph.Bridge.to_structure g)))

(* --- green graphs: dedicated vs generic chase ------------------------------ *)

let generic_collision_outcome ~t ~t' =
  let g, _, _ = Separating.Paths.collision ~t ~t' in
  let st = Greengraph.Bridge.to_structure g in
  let deps = Greengraph.Bridge.tgds_of_rules Separating.Tbox.rules in
  let has_pattern st =
    Greengraph.Graph.has_12_pattern (Greengraph.Bridge.of_structure st)
  in
  let stats = Tgd.Chase.run ~max_stages:40 ~stop:has_pattern deps st in
  (has_pattern st, stats)

let test_generic_chase_agrees_unequal () =
  let pattern, _ = generic_collision_outcome ~t:2 ~t':3 in
  check "generic chase finds the pattern" true pattern

let test_generic_chase_agrees_equal () =
  let pattern, stats = generic_collision_outcome ~t:2 ~t':2 in
  check "generic chase stays clean" false pattern;
  check "generic chase converges" true stats.Tgd.Chase.fixpoint

let test_models_agree () =
  (* a finished equal-collision grid is a model for both engines *)
  let _, _, g = Separating.Theorem14.collision_outcome ~t:2 ~t':2 () in
  check "dedicated models" true (Greengraph.Rule.models Separating.Tbox.rules g);
  check "generic models" true
    (Tgd.Chase.models
       (Greengraph.Bridge.tgds_of_rules Separating.Tbox.rules)
       (Greengraph.Bridge.to_structure g))

let test_violations_agree () =
  (* an unfinished structure violates both ways *)
  let g, _, _ = Separating.Paths.collision ~t:1 ~t':2 in
  check "dedicated violation" false (Greengraph.Rule.models Separating.Tbox.rules g);
  check "generic violation" false
    (Tgd.Chase.models
       (Greengraph.Bridge.tgds_of_rules Separating.Tbox.rules)
       (Greengraph.Bridge.to_structure g))

(* The TGD pipeline over the bridged rules reproduces the graph engine
   run for run: the same edge journal, edge for edge in insertion order
   with the same vertex ids (both engines fire in the canonical order,
   so fresh vertices coincide), the same stage count and the same number
   of firings.  The TGD side runs [`Seminaive]; [stop] is the size
   budget in each engine's own terms. *)
let same_seminaive_chase ?(stop = fun _ _ -> false) ~max_stages what rules g =
  let module G = Greengraph.Graph in
  let module B = Greengraph.Bridge in
  let d = B.to_structure g in
  let gs =
    Greengraph.Rule.chase ~max_stages
      ~stop:(fun g -> stop (G.size g) (G.order g))
      rules g
  in
  let ts =
    Tgd.Chase.run ~engine:`Seminaive ~max_stages
      ~stop:(fun d ->
        stop (Relational.Structure.size d) (Relational.Structure.card d))
      (B.tgds_of_rules rules) d
  in
  check (what ^ ": same edges and vertex ids") true
    (G.edges g = G.edges (B.of_structure d));
  check (what ^ ": same edge journal") true
    (G.delta_since g 0 = G.delta_since (B.of_structure d) 0);
  check_int (what ^ ": same stages") gs.Greengraph.Rule.stages
    ts.Tgd.Chase.stages;
  check_int (what ^ ": same applications") gs.Greengraph.Rule.applications
    ts.Tgd.Chase.applications

let test_tgd_chase_reproduces_graph_cases () =
  let b = Oracle.Diff.default_budget in
  for case = 0 to 599 do
    let gc = Oracle.Gen.graph_case (Oracle.Gen.case_rng ~seed:42 ~case) in
    same_seminaive_chase
      ~stop:(fun size order ->
        size > b.Oracle.Diff.max_facts || order > b.Oracle.Diff.max_elems)
      ~max_stages:b.Oracle.Diff.max_stages
      (Printf.sprintf "seed 42 case %d" case)
      gc.Oracle.Gen.rules
      (Oracle.Gen.build_graph gc)
  done

let test_tgd_chase_reproduces_tinf () =
  let g, _, _ = Greengraph.Graph.d_i () in
  same_seminaive_chase ~max_stages:20 "T∞, 20 stages" Separating.Tinf.rules g

(* --- swarms: dedicated vs generic ------------------------------------------ *)

let test_swarm_bootstrap_generic () =
  (* footnote 10 through the generic chase over the bridge *)
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and x' = Swarm.Graph.fresh g in
  let y = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) x' y);
  let st = Swarm.Bridge.to_structure g in
  let deps = Swarm.Bridge.tgds_of_rules Greengraph.Precompile.base_rules in
  let has_red st =
    Swarm.Graph.has_full_red (Swarm.Bridge.of_structure st)
  in
  let _ = Tgd.Chase.run ~max_stages:5 ~stop:has_red deps st in
  check "full red spider via generic chase" true (has_red st)

let test_swarm_models_agree () =
  let rule = Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ()) in
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and x' = Swarm.Graph.fresh g in
  let y = Swarm.Graph.fresh g and y' = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) x' y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.red ~lower:1 ()) x y');
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.red ~lower:2 ()) x' y');
  let deps = Swarm.Bridge.tgds_of_rule rule in
  check "dedicated: model" true (Swarm.Rule.models [ rule ] g);
  check "generic: model" true (Tgd.Chase.models deps (Swarm.Bridge.to_structure g));
  (* drop a witness: both engines see the violation *)
  let g2 = Swarm.Graph.create () in
  ignore (Swarm.Graph.add_edge g2 (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g2 (Spider.Ideal.green ~upper:2 ()) x' y);
  check "dedicated: violation" false (Swarm.Rule.models [ rule ] g2);
  check "generic: violation" false
    (Tgd.Chase.models deps (Swarm.Bridge.to_structure g2))

let test_tgds_per_rule_count () =
  (* Definition 7's conjunction ranges over subset choices and colors:
     f^{1}_{1} &· f^{2}_{2} has 2⁴ subset choices × 2 colors, kept only
     when ♣ applies — which it always does for subsets *)
  let rule = Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ()) in
  check_int "32 TGDs" 32 (List.length (Swarm.Bridge.tgds_of_rule rule));
  let rule2 = Swarm.Rule.amp (f ()) (f ()) in
  check_int "2 TGDs for the full query" 2 (List.length (Swarm.Bridge.tgds_of_rule rule2))

let () =
  Alcotest.run "bridge"
    [
      ( "roundtrips",
        [
          Alcotest.test_case "swarm" `Quick test_swarm_roundtrip;
          Alcotest.test_case "green graph" `Quick test_greengraph_roundtrip;
          Alcotest.test_case "green graph journals, seed 42 cases" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "bridged TGD names, seed 42 cases" `Quick
            test_tgd_names;
        ] );
      ( "greengraph",
        [
          Alcotest.test_case "generic chase: unequal collision" `Quick
            test_generic_chase_agrees_unequal;
          Alcotest.test_case "generic chase: equal collision" `Quick
            test_generic_chase_agrees_equal;
          Alcotest.test_case "model checks agree" `Quick test_models_agree;
          Alcotest.test_case "violations agree" `Quick test_violations_agree;
          Alcotest.test_case "TGD chase = graph chase, seed 42 cases" `Quick
            test_tgd_chase_reproduces_graph_cases;
          Alcotest.test_case "TGD chase = graph chase, T∞" `Quick
            test_tgd_chase_reproduces_tinf;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "footnote 10 via generic chase" `Quick
            test_swarm_bootstrap_generic;
          Alcotest.test_case "model checks agree" `Quick test_swarm_models_agree;
          Alcotest.test_case "TGD counts" `Quick test_tgds_per_rule_count;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ test_roundtrip_property ] );
    ]
