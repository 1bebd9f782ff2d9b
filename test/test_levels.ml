(* Tests for the abstraction ladder (Section VI, Appendix A): swarms (L₁),
   green graphs (L₂), compile/decompile (Lemmas 27, 30), Precompile
   (Remark 10), and the red-spider bootstrap of footnote 10. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let f = Spider.Query.f

(* --- swarm semantics --------------------------------------------------- *)

let test_swarm_rule_fires () =
  (* the footnote-10 bootstrap, step 1: I^1 and I^2 sharing antennas plus
     rule f^1_1 &· f^2_2 produce H_1, H_2 *)
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and x' = Swarm.Graph.fresh g in
  let y = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) x' y);
  let rule = Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ()) in
  let stats = Swarm.Rule.chase ~max_stages:1 [ rule ] g in
  check_int "one firing" 1 stats.Swarm.Rule.applications;
  check_int "4 edges" 4 (Swarm.Graph.size g);
  check "H_1 present" true
    (Swarm.Graph.with_label g (Spider.Ideal.red ~lower:1 ()) <> []);
  check "H_2 present" true
    (Swarm.Graph.with_label g (Spider.Ideal.red ~lower:2 ()) <> []);
  (* the new red edges share their target (fresh antenna) *)
  (match
     ( Swarm.Graph.with_label g (Spider.Ideal.red ~lower:1 ()),
       Swarm.Graph.with_label g (Spider.Ideal.red ~lower:2 ()) )
   with
  | [ e1 ], [ e2 ] ->
      check "shared antenna" true (e1.Swarm.Graph.dst = e2.Swarm.Graph.dst);
      check "anchored at x" true (e1.Swarm.Graph.src = x);
      check "anchored at x'" true (e2.Swarm.Graph.src = x')
  | _ -> Alcotest.fail "expected exactly one edge of each label")

let test_swarm_rule_lazy () =
  (* a swarm already containing the witnesses is a model: no firing *)
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and x' = Swarm.Graph.fresh g in
  let y = Swarm.Graph.fresh g and y' = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) x' y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.red ~lower:1 ()) x y');
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.red ~lower:2 ()) x' y');
  let rule = Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ()) in
  check "model" true (Swarm.Rule.models [ rule ] g);
  let stats = Swarm.Rule.chase ~max_stages:3 [ rule ] g in
  check "fixpoint immediately" true stats.Swarm.Rule.fixpoint;
  check_int "no new edges" 4 (Swarm.Graph.size g)

(* Footnote 10 at Level 1: from a swarm 1-2 pattern, the three base rules
   of Precompile produce the full red spider in three steps. *)
let test_footnote10_level1 () =
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and x' = Swarm.Graph.fresh g in
  let y = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) x' y);
  let stats =
    Swarm.Rule.chase ~max_stages:5 ~stop:Swarm.Graph.has_full_red
      Greengraph.Precompile.base_rules g
  in
  check "full red spider reached" true (Swarm.Graph.has_full_red g);
  check "in three stages" true (stats.Swarm.Rule.stages <= 3)

(* Footnote 10 at Level 0, through Compile: the same bootstrap holds for
   the TGDs of the compiled binary queries. *)
let test_footnote10_level0 () =
  let ctx = Spider.Ctx.create 4 in
  let st = Relational.Structure.create () in
  let x = Relational.Structure.fresh st and x' = Relational.Structure.fresh st in
  let y = Relational.Structure.fresh st in
  ignore (Spider.Real.realize ctx st ~tail:x ~antenna:y (Spider.Ideal.green ~upper:1 ()));
  ignore (Spider.Real.realize ctx st ~tail:x' ~antenna:y (Spider.Ideal.green ~upper:2 ()));
  let tgds =
    Spider.Query.tgds_of_binaries ctx
      (Swarm.Rule.compile_set Greengraph.Precompile.base_rules)
  in
  let has_full_red st =
    List.exists
      (fun (r : Spider.Real.t) ->
        Spider.Ideal.equal r.Spider.Real.ideal Spider.Ideal.full_red)
      (Spider.Real.find_all ctx st)
  in
  let _ = Tgd.Chase.run ~max_stages:5 ~stop:has_full_red tgds st in
  check "full red spider at Level 0" true (has_full_red st)

(* --- compile / decompile ----------------------------------------------- *)

let mk_model_swarm () =
  (* the 4-edge model of {f^1_1 &· f^2_2} used in several tests *)
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and x' = Swarm.Graph.fresh g in
  let y = Swarm.Graph.fresh g and y' = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) x' y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.red ~lower:1 ()) x y');
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.red ~lower:2 ()) x' y');
  g

let test_lemma30_roundtrip () =
  (* decompile(compile(D)) = D *)
  let ctx = Spider.Ctx.create 3 in
  let g = mk_model_swarm () in
  let st = Swarm.Compile.compile ctx g in
  let g' = Swarm.Compile.decompile ctx st in
  check "Lemma 30" true (Swarm.Graph.equal g g')

let test_lemma30_random =
  QCheck.Test.make ~name:"Lemma 30 on random swarms" ~count:30
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (triple (int_bound 5) (int_bound 5)
           (pair (oneofl [ None; Some 1; Some 2; Some 3 ])
              (oneofl [ None; Some 1; Some 2; Some 3 ]))))
    (fun edges ->
      let ctx = Spider.Ctx.create 3 in
      let g = Swarm.Graph.create () in
      let colors = [ Relational.Symbol.Green; Relational.Symbol.Red ] in
      List.iteri
        (fun i (src, dst, (u, l)) ->
          let base = List.nth colors (i mod 2) in
          ignore
            (Swarm.Graph.add_edge g (Spider.Ideal.make ?upper:u ?lower:l base) src dst))
        edges;
      let st = Swarm.Compile.compile ctx g in
      Swarm.Graph.equal g (Swarm.Compile.decompile ctx st))

let test_lemma27_model_transfer () =
  (* D ⊨ T at Level 1 ⟹ compile(D) ⊨ Compile(T) at Level 0 *)
  let ctx = Spider.Ctx.create 3 in
  let rule = Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ()) in
  let g = mk_model_swarm () in
  check "swarm is a model" true (Swarm.Rule.models [ rule ] g);
  let st = Swarm.Compile.compile ctx g in
  let tgds = Spider.Query.tgds_of_binaries ctx [ Swarm.Rule.compile rule ] in
  check "compiled structure is a model (Lemma 27)" true (Tgd.Chase.models tgds st)

let test_lemma27_negative () =
  (* dropping the witnesses breaks both sides coherently *)
  let ctx = Spider.Ctx.create 3 in
  let rule = Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ()) in
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and x' = Swarm.Graph.fresh g in
  let y = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) x' y);
  check "swarm not a model" false (Swarm.Rule.models [ rule ] g);
  let st = Swarm.Compile.compile ctx g in
  let tgds = Spider.Query.tgds_of_binaries ctx [ Swarm.Rule.compile rule ] in
  check "compiled structure not a model" false (Tgd.Chase.models tgds st)

(* The compiled T_Q structures of both Lemma 27 tests, model and
   counter-model: [Tgd.Chase.Check] agrees with the body-match scan it
   replaced on the verdict, the violation and the trigger list. *)
let test_lemma27_check_spec () =
  let ctx = Spider.Ctx.create 3 in
  let rule = Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ()) in
  let tgds = Spider.Query.tgds_of_binaries ctx [ Swarm.Rule.compile rule ] in
  let unwitnessed = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh unwitnessed
  and x' = Swarm.Graph.fresh unwitnessed in
  let y = Swarm.Graph.fresh unwitnessed in
  ignore (Swarm.Graph.add_edge unwitnessed (Spider.Ideal.green ~upper:1 ()) x y);
  ignore (Swarm.Graph.add_edge unwitnessed (Spider.Ideal.green ~upper:2 ()) x' y);
  List.iter
    (fun (what, g) ->
      match Chase_spec.agree tgds (Swarm.Compile.compile ctx g) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" what msg)
    [ ("model", mk_model_swarm ()); ("not a model", unwitnessed) ]

(* --- green graphs ------------------------------------------------------ *)

let test_12_pattern () =
  let g = Greengraph.Graph.create () in
  let a = Greengraph.Graph.fresh g
  and a' = Greengraph.Graph.fresh g
  and b = Greengraph.Graph.fresh g in
  check "no pattern yet" false (Greengraph.Graph.has_12_pattern g);
  ignore (Greengraph.Graph.add_edge g (Some 1) a b);
  ignore (Greengraph.Graph.add_edge g (Some 2) a' b);
  check "pattern found" true (Greengraph.Graph.has_12_pattern g);
  check "witness" true (Option.is_some (Greengraph.Graph.find_12_pattern g))

let test_green_rule_equivalence_both_directions () =
  (* rule ∅&··∅ ] 5&··6 fires right-to-left too *)
  let r = Greengraph.Rule.amp (None, None) (Some 5, Some 6) in
  let g = Greengraph.Graph.create () in
  let x = Greengraph.Graph.fresh g and x' = Greengraph.Graph.fresh g in
  let y = Greengraph.Graph.fresh g in
  ignore (Greengraph.Graph.add_edge g (Some 5) x y);
  ignore (Greengraph.Graph.add_edge g (Some 6) x' y);
  let stats = Greengraph.Rule.chase ~max_stages:1 [ r ] g in
  check "fired" true (stats.Greengraph.Rule.applications >= 1);
  check "∅ edge from x" true
    (List.exists
       (fun (e : Greengraph.Graph.edge) ->
         e.Greengraph.Graph.label = None && e.Greengraph.Graph.src = x)
       (Greengraph.Graph.edges g))

let test_reserved_labels_rejected () =
  Alcotest.check_raises "label 3 rejected"
    (Invalid_argument "green-graph label 3 is reserved") (fun () ->
      ignore (Greengraph.Rule.amp (Some 3, None) (Some 5, Some 6)))

(* Remark 10: the two swarm rules produced by Precompile for a green rule
   simulate one green-graph rewriting in two steps (plus red by-products). *)
let test_remark10_simulation () =
  let r = Greengraph.Rule.amp ~name:"r" (Some 5, Some 6) (Some 7, Some 8) in
  (* green graph: lhs pair at shared target *)
  let gg = Greengraph.Graph.create () in
  let x = Greengraph.Graph.fresh gg and x' = Greengraph.Graph.fresh gg in
  let y = Greengraph.Graph.fresh gg in
  ignore (Greengraph.Graph.add_edge gg (Some 5) x y);
  ignore (Greengraph.Graph.add_edge gg (Some 6) x' y);
  let gg2 = Greengraph.Graph.copy gg in
  ignore (Greengraph.Rule.chase ~max_stages:1 [ r ] gg2);
  (* swarm side: precompiled rules on the swarm view *)
  let sw = Greengraph.Graph.to_swarm gg in
  let rules = Greengraph.Precompile.precompile [ r ] in
  ignore (Swarm.Rule.chase ~max_stages:2 rules sw);
  (* after two swarm stages the rhs pair (7,8) exists in the deprecompiled
     green graph, anchored at x and x' *)
  let back = Greengraph.Graph.of_swarm sw in
  let has lab src =
    List.exists
      (fun (e : Greengraph.Graph.edge) ->
        e.Greengraph.Graph.label = lab && e.Greengraph.Graph.src = src)
      (Greengraph.Graph.edges back)
  in
  check "I^7 at x" true (has (Some 7) x);
  check "I^8 at x'" true (has (Some 8) x');
  (* and the red by-products exist in the swarm *)
  check "red by-product H_5" true
    (Swarm.Graph.with_label sw (Spider.Ideal.red ~lower:5 ()) <> []);
  (* matching the green-graph chase *)
  let gg_has lab src =
    List.exists
      (fun (e : Greengraph.Graph.edge) ->
        e.Greengraph.Graph.label = lab && e.Greengraph.Graph.src = src)
      (Greengraph.Graph.edges gg2)
  in
  check "green chase also has I^7 at x" true (gg_has (Some 7) x)

let test_precompile_shape () =
  let r1 = Greengraph.Rule.amp (Some 5, Some 6) (Some 7, Some 8) in
  let r2 = Greengraph.Rule.slash (Some 5, None) (Some 6, Some 8) in
  let rules = Greengraph.Precompile.precompile [ r1; r2 ] in
  (* 3 base + 2 per rule *)
  check_int "rule count" (3 + 4) (List.length rules);
  check_int "required s" ((2 * 3) + 2) (Greengraph.Precompile.required_s [ r1; r2 ])

let test_pipeline_to_level0 () =
  let r = Greengraph.Rule.amp (Some 5, Some 6) (Some 7, Some 8) in
  let p = Greengraph.Precompile.to_level0 [ r ] in
  check_int "five binaries" 5 (List.length p.Greengraph.Precompile.binaries);
  check_int "ten TGDs" 10 (List.length p.Greengraph.Precompile.tgds);
  check_int "five queries" 5 (List.length p.Greengraph.Precompile.queries)

(* --- parity glasses ----------------------------------------------------- *)

let test_pg_words () =
  (* a tiny green graph: H∅(a,b), H5(a,c) [even: kept a→c],
     H7(d,c) [odd: reversed to c→d] — word 5.7 from a to d *)
  let g = Greengraph.Graph.create () in
  let a = Greengraph.Graph.fresh ~name:"a" g in
  let b = Greengraph.Graph.fresh ~name:"b" g in
  let c = Greengraph.Graph.fresh g and d = Greengraph.Graph.fresh g in
  ignore (Greengraph.Graph.add_edge g None a b);
  ignore (Greengraph.Graph.add_edge g (Some 6) a c);
  ignore (Greengraph.Graph.add_edge g (Some 7) d c);
  check "6.7 path a→d" true (Greengraph.Pg.in_paths g ~s:a ~t:d [ 6; 7 ]);
  check "∅ edges dropped" false (Greengraph.Pg.in_paths g ~s:a ~t:b []);
  check "prefix condition" false (Greengraph.Pg.in_paths g ~s:a ~t:c [ 6; 7 ])

let test_pg_prefix_rejection () =
  (* a loop back to a: word w accepted, but w.w rejected because the
     proper prefix w already hits the target *)
  let g = Greengraph.Graph.create () in
  let a = Greengraph.Graph.fresh g in
  let m = Greengraph.Graph.fresh g in
  ignore (Greengraph.Graph.add_edge g (Some 6) a m);
  ignore (Greengraph.Graph.add_edge g (Some 8) m a);
  check "6.8 in paths(a,a)" true (Greengraph.Pg.in_paths g ~s:a ~t:a [ 6; 8 ]);
  check "6.8.6.8 rejected" false
    (Greengraph.Pg.in_paths g ~s:a ~t:a [ 6; 8; 6; 8 ])

let test_alpha_beta_word () =
  check "αβ word" true
    (Greengraph.Pg.is_alpha_beta_word ~alpha:6 ~beta0:8 ~beta1:7 [ 6; 7; 8; 7; 8 ]);
  check "not αβ word" false
    (Greengraph.Pg.is_alpha_beta_word ~alpha:6 ~beta0:8 ~beta1:7 [ 6; 8 ])

let () =
  Alcotest.run "levels"
    [
      ( "swarm",
        [
          Alcotest.test_case "rule fires" `Quick test_swarm_rule_fires;
          Alcotest.test_case "rule lazy on models" `Quick test_swarm_rule_lazy;
          Alcotest.test_case "footnote 10 at Level 1" `Quick test_footnote10_level1;
          Alcotest.test_case "footnote 10 at Level 0" `Quick test_footnote10_level0;
        ] );
      ( "compile",
        [
          Alcotest.test_case "Lemma 30 roundtrip" `Quick test_lemma30_roundtrip;
          Alcotest.test_case "Lemma 27 transfer" `Quick test_lemma27_model_transfer;
          Alcotest.test_case "Lemma 27 negative" `Quick test_lemma27_negative;
          Alcotest.test_case "Lemma 27 checks match the spec" `Quick
            test_lemma27_check_spec;
        ] );
      ( "greengraph",
        [
          Alcotest.test_case "1-2 pattern" `Quick test_12_pattern;
          Alcotest.test_case "equivalence both directions" `Quick
            test_green_rule_equivalence_both_directions;
          Alcotest.test_case "reserved labels" `Quick test_reserved_labels_rejected;
          Alcotest.test_case "Remark 10 simulation" `Quick test_remark10_simulation;
          Alcotest.test_case "precompile shape" `Quick test_precompile_shape;
          Alcotest.test_case "pipeline to Level 0" `Quick test_pipeline_to_level0;
        ] );
      ( "parity-glasses",
        [
          Alcotest.test_case "words" `Quick test_pg_words;
          Alcotest.test_case "prefix rejection" `Quick test_pg_prefix_rejection;
          Alcotest.test_case "αβ words" `Quick test_alpha_beta_word;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ test_lemma30_random ] );
    ]
