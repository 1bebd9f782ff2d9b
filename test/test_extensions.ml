(* Tests for the Appendix A machinery (minimal models, Lemma 34, the
   Definition 36 precompile operation and Lemma 32(ii)), the view-rewriting
   engine, the generic semi-Thue module and the labelled-graph functor. *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let f = Spider.Query.f

(* --- minimal models (Definition 31) ------------------------------------ *)

(* A model of {f^∅_5 &· f^∅_6} from the seed: the seed edge plus the
   demanded red witnesses, plus an unreachable junk edge that minimality
   must drop. *)
let test_minimal_model_drops_junk () =
  let rule = Swarm.Rule.amp (f ~lower:5 ()) (f ~lower:6 ()) in
  let g, a, _b = Swarm.Graph.seed () in
  (* chase to a bounded depth, then add junk *)
  let _ = Swarm.Rule.chase ~max_stages:2 [ rule ] g in
  let junk_src = Swarm.Graph.fresh g and junk_dst = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:2 ()) junk_src junk_dst);
  let m = Swarm.Minimal.minimal_model [ rule ] g in
  check "junk dropped" false
    (List.exists
       (fun (e : Swarm.Graph.edge) -> e.Swarm.Graph.src = junk_src)
       (Swarm.Graph.edges m));
  check "seed kept" true
    (List.exists
       (fun (e : Swarm.Graph.edge) ->
         Spider.Ideal.equal e.Swarm.Graph.label Spider.Ideal.full_green
         && e.Swarm.Graph.src = a)
       (Swarm.Graph.edges m))

let test_lemma34 () =
  (* lower rules: in a minimal model, red ⟺ lower *)
  let rules =
    [
      Swarm.Rule.amp (f ~lower:5 ()) (f ~lower:6 ());
      Swarm.Rule.slash (f ~lower:7 ()) (f ~upper:5 ~lower:8 ());
    ]
  in
  check "rules are lower" true (List.for_all Swarm.Rule.is_lower rules);
  let g, _, _ = Swarm.Graph.seed () in
  let _ = Swarm.Rule.chase ~max_stages:3 rules g in
  let m = Swarm.Minimal.minimal_model rules g in
  check "Lemma 34 invariant" true (Swarm.Minimal.lemma34_holds m);
  check "model nonempty" true (Swarm.Graph.size m > 1)

let test_minimal_requires_seed () =
  let g = Swarm.Graph.create () in
  let x = Swarm.Graph.fresh g and y = Swarm.Graph.fresh g in
  ignore (Swarm.Graph.add_edge g (Spider.Ideal.green ~upper:5 ()) x y);
  Alcotest.check_raises "no seed"
    (Invalid_argument "Minimal.minimal_model: no H(I,_,_) seed") (fun () ->
      ignore (Swarm.Minimal.minimal_model [] g))

(* --- Definition 36 / Lemma 32(ii) --------------------------------------- *)

let test_lemma32_on_finite_model () =
  (* The §VIII.E countermodel M̄ is a green-graph model of T_M□ without a
     1-2 pattern; Definition 36's one red stage must turn it into a swarm
     model of Precompile(T_M□), with no full red spider. *)
  let wr, m, _ = Reduction.Finite_model.of_halting_machine Rainworm.Zoo.stillborn in
  let rules = Reduction.Worm_rules.with_grid wr in
  let d = m.Reduction.Finite_model.graph in
  check "precondition: model, no pattern" true
    (Greengraph.Rule.models rules d && not (Greengraph.Graph.has_12_pattern d));
  let sw = Greengraph.Precompile.precompile_graph rules d in
  check "no full red spider (Lemma 32(ii))" false (Swarm.Graph.has_full_red sw);
  check "swarm models Precompile(T) (Lemma 32(ii))" true
    (Swarm.Rule.models (Greengraph.Precompile.precompile rules) sw)

(* --- view-based rewriting ------------------------------------------------- *)

let edge = Symbol.make "E" 2
let v = Term.var
let e x y = Atom.app2 edge (v x) (v y)

let path_query k =
  let name i = if i = 0 then "x" else if i = k then "y" else Printf.sprintf "m%d" i in
  Cq.Query.make ~free:[ "x"; "y" ] (List.init k (fun i -> e (name i) (name (i + 1))))

let test_rewriting_composition () =
  let views = [ ("p2", path_query 2); ("p3", path_query 3) ] in
  match Determinacy.Rewriting.conjunctive ~views (path_query 5) with
  | Determinacy.Rewriting.Rewriting plan ->
      (* the universal plan mentions every view answer over A[P5]; its
         expansion must be exactly P5 *)
      check "some view atoms" true (List.length (Cq.Query.body plan) <= 7);
      let expansion = Determinacy.Rewriting.expand ~views plan in
      check "expansion equivalent to P5" true
        (Cq.Containment.equivalent expansion (path_query 5))
  | Determinacy.Rewriting.No_conjunctive_rewriting ->
      Alcotest.fail "expected a rewriting"

let test_rewriting_trivial () =
  let views = [ ("e", path_query 1) ] in
  match Determinacy.Rewriting.conjunctive ~views (path_query 3) with
  | Determinacy.Rewriting.Rewriting plan ->
      check_int "three view atoms" 3 (List.length (Cq.Query.body plan))
  | Determinacy.Rewriting.No_conjunctive_rewriting -> Alcotest.fail "expected"

let test_rewriting_impossible () =
  (* P2 does not determine E, so no rewriting can exist *)
  let views = [ ("p2", path_query 2) ] in
  check "no rewriting of E over P2" true
    (Determinacy.Rewriting.conjunctive ~views (path_query 1)
    = Determinacy.Rewriting.No_conjunctive_rewriting)

let test_rewriting_inexact_plan () =
  (* P4 over {P3}: the universal plan exists but its expansion is not
     equivalent *)
  let views = [ ("p3", path_query 3) ] in
  check "no rewriting of P4 over P3" true
    (Determinacy.Rewriting.conjunctive ~views (path_query 4)
    = Determinacy.Rewriting.No_conjunctive_rewriting)

let test_expand_unknown_view () =
  let views = [ ("p2", path_query 2) ] in
  let bogus =
    Cq.Query.make ~free:[ "x"; "y" ]
      [ Atom.app2 (Symbol.make "p9" 2) (v "x") (v "y") ]
  in
  Alcotest.check_raises "unknown view"
    (Invalid_argument "Rewriting.expand: unknown view p9") (fun () ->
      ignore (Determinacy.Rewriting.expand ~views bogus))

(* --- semi-Thue systems ------------------------------------------------------ *)

let test_thue_basics () =
  let sys = Thue.System.make [ Thue.System.rule [ 'a'; 'b' ] [ 'b'; 'a' ] ] in
  let trace, stopped = Thue.System.run ~max_steps:10 sys [ 'a'; 'a'; 'b' ] in
  check "bubble sort terminates" true stopped;
  check "sorted" true (List.rev trace |> List.hd = [ 'b'; 'a'; 'a' ]);
  check "reachable" true
    (Thue.System.reachable ~max_steps:10 sys ~from:[ 'a'; 'b' ] ~target:[ 'b'; 'a' ])

let test_thue_partial_function () =
  check "distinct lhs" true
    (Thue.System.partial_function
       [ Thue.System.rule [ 1 ] [ 2 ]; Thue.System.rule [ 2 ] [ 1 ] ]);
  check "duplicate lhs" false
    (Thue.System.partial_function
       [ Thue.System.rule [ 1 ] [ 2 ]; Thue.System.rule [ 1 ] [ 3 ] ])

let test_thue_rewrites_positions () =
  let sys = Thue.System.make [ Thue.System.rule [ 'a' ] [ 'b' ] ] in
  check_int "three redexes" 3
    (List.length (Thue.System.rewrites sys [ 'a'; 'a'; 'a' ]))

(* --- labelled graphs --------------------------------------------------------- *)

let test_lgraph_map_vertices () =
  let g = Greengraph.Graph.create () in
  let x = Greengraph.Graph.fresh g and y = Greengraph.Graph.fresh g in
  let z = Greengraph.Graph.fresh g in
  ignore (Greengraph.Graph.add_edge g (Some 6) x y);
  ignore (Greengraph.Graph.add_edge g (Some 6) x z);
  let q = Greengraph.Graph.map_vertices (fun v -> if v = z then y else v) g in
  check_int "edges merged" 1 (Greengraph.Graph.size q);
  check_int "vertices merged" 2 (Greengraph.Graph.order q)

(* tiny substring helper (no astring dependency) *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_lgraph_dot () =
  let g = Greengraph.Graph.create () in
  let x = Greengraph.Graph.fresh ~name:"a" g and y = Greengraph.Graph.fresh g in
  ignore (Greengraph.Graph.add_edge g (Some 6) x y);
  let dot = Fmt.str "%a" (fun ppf -> Greengraph.Graph.pp_dot ppf) g in
  check "digraph header" true (contains dot "digraph g");
  check "edge present" true (contains dot "n0 -> n1")

let () =
  Alcotest.run "extensions"
    [
      ( "minimal-models",
        [
          Alcotest.test_case "junk dropped" `Quick test_minimal_model_drops_junk;
          Alcotest.test_case "Lemma 34" `Quick test_lemma34;
          Alcotest.test_case "seed required" `Quick test_minimal_requires_seed;
        ] );
      ( "lemma32",
        [ Alcotest.test_case "Definition 36 on M̄" `Quick test_lemma32_on_finite_model ] );
      ( "rewriting",
        [
          Alcotest.test_case "composition P2∘P3 = P5" `Quick test_rewriting_composition;
          Alcotest.test_case "trivial over E" `Quick test_rewriting_trivial;
          Alcotest.test_case "impossible (not determined)" `Quick
            test_rewriting_impossible;
          Alcotest.test_case "inexact plan rejected" `Quick test_rewriting_inexact_plan;
          Alcotest.test_case "unknown view" `Quick test_expand_unknown_view;
        ] );
      ( "thue",
        [
          Alcotest.test_case "basics" `Quick test_thue_basics;
          Alcotest.test_case "partial function" `Quick test_thue_partial_function;
          Alcotest.test_case "redex positions" `Quick test_thue_rewrites_positions;
        ] );
      ( "lgraph",
        [
          Alcotest.test_case "map_vertices" `Quick test_lgraph_map_vertices;
          Alcotest.test_case "dot export" `Quick test_lgraph_dot;
        ] );
    ]
