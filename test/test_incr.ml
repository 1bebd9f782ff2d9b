(* Incremental view maintenance: after every edit script the maintained
   structure must be a universal model of the edited base — hom-equivalent
   (base elements pinned) to a from-scratch chase of the same base, with
   [models] true and the internal support audit clean.  Exercised on hand
   cases, the standing workloads (Tinf, E10, the grid collision) and a
   seeded oracle campaign of random edit scripts, including retractions
   that kill and re-derive through nulls.  Maintenance runs one engine;
   each case is checked against a from-scratch chase under each lazy
   delta engine, [`Seminaive] and [`Par]. *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge = Symbol.make "E" 2
let gedge = Symbol.green edge
let v = Term.var
let e x y = Atom.app2 edge (v x) (v y)

let path_query k =
  let name i =
    if i = 0 then "x" else if i = k then "y" else Printf.sprintf "m%d" i
  in
  Cq.Query.make ~free:[ "x"; "y" ]
    (List.init k (fun i -> e (name i) (name (i + 1))))

(* --- harness ------------------------------------------------------------ *)

(* Hom-equivalence with the elements of the pristine base pinned: the
   maintained structure and the from-scratch chase share base element
   ids, so a universal-model check may (and must) hold base points
   fixed. *)
let equiv ~base a b =
  let init =
    List.filter_map
      (fun el ->
        if Structure.elem_stage a el <> None && Structure.elem_stage b el <> None
        then Some (el, el)
        else None)
      (Structure.elems base)
  in
  Hom.exists_between ~init a b && Hom.exists_between ~init b a

(* From-scratch baseline: the ops applied directly to a copy of the
   pristine base, then chased with [engine]. *)
let scratch_base base ops =
  let d = Structure.copy base in
  List.iter
    (function
      | Tgd.Chase.Maint.Insert f -> ignore (Structure.add_fact d f)
      | Tgd.Chase.Maint.Retract f -> ignore (Structure.retract_fact d f))
    ops;
  d

let scratch ~engine deps base ops =
  let d = scratch_base base ops in
  ignore (Tgd.Chase.run ~engine:(engine :> Tgd.Chase.engine) deps d);
  d

let check_edit ?(msg = "edit") ~engine deps base scripts =
  let m, _ = Tgd.Chase.Maint.create deps (Structure.copy base) in
  List.iteri
    (fun i ops ->
      let _ = Tgd.Chase.Maint.apply_edit m ops in
      let d = Tgd.Chase.Maint.structure m in
      let s =
        scratch ~engine deps base
          (List.concat (List.filteri (fun j _ -> j <= i) scripts))
      in
      let tag = Printf.sprintf "%s #%d" msg i in
      Alcotest.(check (list string)) (tag ^ ": audit") []
        (Tgd.Chase.Maint.check m);
      check (tag ^ ": models") true (Tgd.Chase.models deps d);
      check (tag ^ ": hom-equivalent to scratch") true (equiv ~base d s))
    scripts

(* --- hand cases: the path view ------------------------------------------ *)

let deps2 = Tgd.Dep.t_q [ ("p2", path_query 2) ]

(* A green n-path with [spare] extra base elements pre-allocated for
   later insertions — allocating them up front keeps their ids clear of
   the chase's nulls on both the maintained and the scratch side.  Note
   T_q on cycles diverges (each round's nulls extend new paths), so the
   scripts below only ever extend or cut paths. *)
let path_base ?(spare = 0) n =
  let d = Structure.create () in
  let vs = Array.init (n + 1 + spare) (fun _ -> Structure.fresh d) in
  for i = 0 to n - 1 do
    Structure.add2 d gedge vs.(i) vs.(i + 1)
  done;
  (d, vs)

let test_insert_only engine () =
  let base, vs = path_base ~spare:2 3 in
  check_edit ~msg:"extend the path" ~engine deps2 base
    [
      [ Insert (Fact.make gedge [| vs.(3); vs.(4) |]) ];
      [ Insert (Fact.make gedge [| vs.(4); vs.(5) |]) ];
    ]

let test_retract_only engine () =
  let base, vs = path_base 4 in
  check_edit ~msg:"cut the path" ~engine deps2 base
    [
      [ Retract (Fact.make gedge [| vs.(1); vs.(2) |]) ];
      [ Retract (Fact.make gedge [| vs.(0); vs.(1) |]) ];
    ]

let test_mixed engine () =
  let base, vs = path_base ~spare:1 4 in
  check_edit ~msg:"mixed script" ~engine deps2 base
    [
      [
        Retract (Fact.make gedge [| vs.(2); vs.(3) |]);
        Insert (Fact.make gedge [| vs.(4); vs.(5) |]);
      ];
      (* resurrection: retract then re-insert in a later script *)
      [ Insert (Fact.make gedge [| vs.(2); vs.(3) |]) ];
    ]

(* Retraction through nulls: on a green 5-path, T_q({p2}) fires red
   2-paths through fresh nulls, and the red pairs re-derive green edges
   through further nulls.  Cutting a middle base edge must kill the
   derived spines hanging off it — a cascade through two layers of
   nulls — and leave exactly a universal model of the two remaining
   sub-paths. *)
let test_retract_through_nulls engine () =
  let base, vs = path_base 5 in
  let m, s0 = Tgd.Chase.Maint.create deps2 (Structure.copy base) in
  check "initial chase reached fixpoint" true s0.fixpoint;
  check "chase derived through nulls" true
    (Structure.size (Tgd.Chase.Maint.structure m) > 5);
  let cut = Fact.make gedge [| vs.(2); vs.(3) |] in
  let st = Tgd.Chase.Maint.apply_edit m [ Retract cut ] in
  check "cascade killed derived facts" true (st.e_killed >= 1);
  Alcotest.(check (list string)) "audit clean" []
    (Tgd.Chase.Maint.check m);
  let d = Tgd.Chase.Maint.structure m in
  check "models after the cut" true (Tgd.Chase.models deps2 d);
  let s = scratch ~engine deps2 base [ Retract cut ] in
  check "equivalent to scratch" true (equiv ~base d s)

(* --- maintained views: certain answers bit-identical ---------------------- *)

(* The view level is where bit-identity genuinely holds: certain answers
   are tuples over base elements, immune to null renaming. *)
let test_mview engine () =
  (* views = {p2} only: T_{p2,p3} diverges (p2's nulls build 2-paths
     that p3 extends, and so on), while T_{p2} fixpoints on paths.  The
     certain answers of q0 = p4 are still non-trivial — they need red
     4-paths composed across two chase nulls. *)
  let inst =
    Determinacy.Instance.make ~views:[ ("p2", path_query 2) ] ~q0:(path_query 4)
  in
  let base = Structure.create () in
  let vs = Array.init 7 (fun _ -> Structure.fresh base) in
  for i = 0 to 4 do
    Structure.add2 base edge vs.(i) vs.(i + 1)
  done;
  let mv, s0 = Determinacy.Mview.create inst base in
  check "initial chase reached fixpoint" true s0.fixpoint;
  (* the red q0-answers over base elements of a from-scratch chase of
     the painted, edited base *)
  let scratch_answers ops =
    let d = Structure.copy base in
    List.iter
      (function
        | Determinacy.Mview.Insert f -> ignore (Structure.add_fact d f)
        | Determinacy.Mview.Retract f -> ignore (Structure.retract_fact d f))
      ops;
    let g = Structure.paint Symbol.Green d in
    ignore (Tgd.Chase.run ~engine (Determinacy.Instance.tgds inst) g);
    Cq.Eval.Tuple_set.filter
      (fun tup -> Array.for_all (fun el -> Array.mem el vs) tup)
      (Cq.Eval.answers (Cq.Query.paint Symbol.Red (path_query 4)) g)
  in
  let scripts =
    [
      [ Determinacy.Mview.Insert (Fact.make edge [| vs.(5); vs.(6) |]) ];
      [ Determinacy.Mview.Retract (Fact.make edge [| vs.(2); vs.(3) |]) ];
      [ Determinacy.Mview.Insert (Fact.make edge [| vs.(2); vs.(3) |]) ];
    ]
  in
  let applied = ref [] in
  List.iteri
    (fun i ops ->
      let _ = Determinacy.Mview.apply_edit mv ops in
      applied := !applied @ ops;
      let got = Determinacy.Mview.certain_answers_q0 mv in
      let want = scratch_answers !applied in
      check
        (Printf.sprintf "certain answers bit-identical after edit #%d" i)
        true
        (Cq.Eval.Tuple_set.equal got want);
      Alcotest.(check (list string))
        (Printf.sprintf "audit clean after edit #%d" i)
        []
        (Tgd.Chase.Maint.check (Determinacy.Mview.maint mv)))
    scripts;
  (* the q0 = p4 answers over the final 6-path: exactly (v_i, v_{i+4}) *)
  let final = Determinacy.Mview.certain_answers_q0 mv in
  check_int "expected answer count" 3 (Cq.Eval.Tuple_set.cardinal final)

(* --- green graphs --------------------------------------------------------- *)

(* L₂ rules are maintained as TGDs over the bridge ([Greengraph.Bridge])
   and judged by [Rule.models].  The dedicated graph engine
   ([Rule.chase]) builds the [`Seminaive] scratch side, the bridged
   rules under [`Par] the other. *)

module G = Greengraph.Graph
module R = Greengraph.Rule
module L = Greengraph.Label
module B = Greengraph.Bridge
module M = Tgd.Chase.Maint

let gfact l s d = Fact.make (G.symbol_of l) [| s; d |]

let graph_maint ?max_stages rules g =
  M.create ?max_stages (B.tgds_of_rules rules) (B.to_structure g)

let maint_graph m = B.of_structure (M.structure m)

let graph_scratch ~engine rules base ops =
  let d = scratch_base (B.to_structure base) ops in
  match engine with
  | `Seminaive ->
      let g = B.of_structure d in
      ignore (R.chase rules g);
      B.to_structure g
  | `Par ->
      ignore (Tgd.Chase.run ~engine:`Par (B.tgds_of_rules rules) d);
      d

(* [f ()] with the [hom.candidates_scanned] it cost. *)
let with_scanned f =
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      let before = Obs.Metrics.snapshot () in
      let r = f () in
      ( r,
        Obs.Metrics.diff before (Obs.Metrics.snapshot ())
        |> List.assoc_opt "hom.candidates_scanned"
        |> Option.value ~default:0 ))

(* [scanned], when given, pins the candidates each step's equivalence
   check scans: [Hom.between] orders its search by the structures' fold
   order, so a store change that moves that order fails here at once
   instead of only in wall time. *)
let check_graph_edit ?(msg = "gedit") ?scanned ~engine rules base scripts =
  let m, _ = graph_maint rules base in
  let sbase = B.to_structure base in
  List.iteri
    (fun i ops ->
      let _ = M.apply_edit m ops in
      let s =
        graph_scratch ~engine rules base
          (List.concat (List.filteri (fun j _ -> j <= i) scripts))
      in
      let tag = Printf.sprintf "%s #%d" msg i in
      Alcotest.(check (list string)) (tag ^ ": audit") [] (M.check m);
      check (tag ^ ": models") true (R.models rules (maint_graph m));
      let eq, n = with_scanned (fun () -> equiv ~base:sbase (M.structure m) s) in
      check (tag ^ ": hom-equivalent to scratch") true eq;
      Option.iter
        (fun c -> check_int (tag ^ ": candidates scanned") (List.nth c i) n)
        scanned)
    scripts

let test_graph_edits engine () =
  let base, a, b = G.d_i () in
  let x = G.fresh base in
  ignore (G.add_edge base (L.l 1) a x);
  let rules =
    [ R.amp (L.empty, L.empty) (L.l 1, L.l 2); R.amp (L.l 1, L.l 1) (L.l 5, L.l 5) ]
  in
  check_graph_edit ~msg:"graph edits" ~engine rules base
    [
      [ M.Insert (gfact (L.l 1) b x) ];
      [ M.Retract (gfact L.empty a b) ];
      [ M.Insert (gfact L.empty a b) ];
    ]

let test_graph_retract_through_fresh engine () =
  let base, a, b = G.d_i () in
  let rules = [ R.amp (L.empty, L.empty) (L.l 1, L.l 2) ] in
  let m, s0 = graph_maint rules base in
  check "initial chase fired" true (s0.Tgd.Chase.applications >= 1);
  let cut = [ M.Retract (gfact L.empty a b) ] in
  let st = M.apply_edit m cut in
  check "cascade killed product edges" true (st.M.e_killed >= 2);
  check_int "graph back to empty base" 0 (Structure.size (M.structure m));
  Alcotest.(check (list string)) "audit clean" [] (M.check m);
  let s = graph_scratch ~engine rules base cut in
  check "equivalent to scratch" true
    (equiv ~base:(B.to_structure base) (M.structure m) s)

(* --- the standing workloads --------------------------------------------- *)

(* E10: T_q over the green canonical 5-path.  The full E10 view set
   {p2, p3} diverges (each view's nulls feed the other's body), so the
   maintained twin runs its terminating restriction {p2} — the same
   seed, the same machinery, a genuine fixpoint to maintain. *)
let test_e10_workload engine () =
  let base = fst (Tgd.Greenred.green_canonical (path_query 5)) in
  let spare = Structure.fresh base in
  let greens =
    List.sort Fact.compare (Structure.facts_with_sym base gedge)
  in
  let mid = List.nth greens (List.length greens / 2) in
  let last = List.nth greens (List.length greens - 1) in
  let tail = (Fact.args last).(1) in
  let deps = Tgd.Dep.t_q [ ("p2", path_query 2) ] in
  check_edit ~msg:"E10" ~engine deps base
    [
      [ Tgd.Chase.Maint.Retract mid ];
      [ Tgd.Chase.Maint.Insert mid ];
      [ Tgd.Chase.Maint.Insert (Fact.make gedge [| tail; spare |]) ];
    ]

(* The grid collision workloads: T□ over the fold of two αβ-paths
   (Theorem 14's finite-leads mechanism).  Cutting a fold edge tears the
   grid hanging off it; restoring it regrows an equivalent one.  The
   cut+regrow hom check is exponential in the regrown grid's fresh
   vertices, so the full cycle is certified at (3,3) (542 edges) while
   (4,4) (998 edges, 18 stages) gets a fully-checked cut plus invariant
   checks on the regrow. *)
let first_edge g =
  let e = List.hd (G.edges g) in
  gfact e.G.label e.G.src e.G.dst

let test_grid33_workload engine () =
  let base, _, _ = Separating.Paths.collision ~t:3 ~t':3 in
  let cut = first_edge base in
  check_graph_edit ~msg:"grid(3,3)" ~scanned:[ 1614; 39145 ] ~engine
    Separating.Tbox.rules base
    [ [ M.Retract cut ]; [ M.Insert cut ] ]

let test_grid44_workload engine () =
  let base, _, _ = Separating.Paths.collision ~t:4 ~t':4 in
  let rules = Separating.Tbox.rules in
  let cut = first_edge base in
  let m, s0 = graph_maint rules base in
  check "initial chase reached fixpoint" true s0.Tgd.Chase.fixpoint;
  (* the cut, fully checked *)
  let st = M.apply_edit m [ M.Retract cut ] in
  check "cut tore grid off the fold edge" true (st.M.e_killed >= 50);
  Alcotest.(check (list string)) "audit after cut" [] (M.check m);
  let scr = graph_scratch ~engine rules base [ M.Retract cut ] in
  check "cut models" true (R.models rules (maint_graph m));
  check "cut equivalent to scratch" true
    (equiv ~base:(B.to_structure base) (M.structure m) scr);
  (* the regrow: size, pattern and audit against a fresh chase *)
  let st2 = M.apply_edit m [ M.Insert cut ] in
  check "regrow reached fixpoint" true st2.M.e_run.Tgd.Chase.fixpoint;
  Alcotest.(check (list string)) "audit after regrow" [] (M.check m);
  let g = maint_graph m in
  let scr2 = B.of_structure (graph_scratch ~engine rules base []) in
  check "regrow models" true (R.models rules g);
  check_int "regrown grid size" (G.size scr2) (G.size g);
  check "regrown 1-2 pattern agrees" (G.has_12_pattern scr2)
    (G.has_12_pattern g)

(* Maint compiles each dependency's plans once, at [create], and its
   continuations reuse them: an insert+retract pair at the grid(4,4)
   tail (T□ is 82 TGDs) compiles only the plans of its own witness
   searches — 4, against 496 when every continuation recompiled every
   dependency. *)
let test_grid44_plan_reuse () =
  let base, _, _ = Separating.Paths.collision ~t:4 ~t':4 in
  let edges = G.edges base in
  let e = List.nth edges (List.length edges - 1) in
  let held = B.to_structure base in
  let tail = gfact e.G.label e.G.dst (Structure.fresh held) in
  let m, _ = M.create (B.tgds_of_rules Separating.Tbox.rules) held in
  let compilations () =
    Obs.set_metrics true;
    Fun.protect
      ~finally:(fun () -> Obs.set_metrics false)
      (fun () ->
        let before = Obs.Metrics.snapshot () in
        ignore (M.apply_edit m [ M.Insert tail ]);
        ignore (M.apply_edit m [ M.Retract tail ]);
        Obs.Metrics.diff before (Obs.Metrics.snapshot ())
        |> List.assoc_opt "plan.compilations"
        |> Option.value ~default:0)
  in
  List.iter
    (fun pair -> check_int (Printf.sprintf "pair %d" pair) 4 (compilations ()))
    [ 1; 2; 3 ]

(* E1: chase(T∞, D_I) has no fixpoint — Figure 1's point — so its
   incremental property is the continuation: a capped maintained run
   resumed with [continue_] must be bit-identical (same edges, same
   ids) to a single longer capped run of the graph engine, stage for
   stage. *)
let test_e1_continuation () =
  let g, _, _ = G.d_i () in
  let m, s0 = graph_maint ~max_stages:6 Separating.Tinf.rules g in
  check "capped run is pending" true
    ((not s0.Tgd.Chase.fixpoint) && M.pending m);
  let s1 = M.continue_ ~max_stages:6 m in
  check "still short of fixpoint" false s1.Tgd.Chase.fixpoint;
  let scratch, _, _, s2 = Separating.Tinf.chase ~stages:12 () in
  check_int "same stage count" s2.R.stages s1.Tgd.Chase.stages;
  let edges g =
    List.sort compare
      (List.map (fun (e : G.edge) -> (e.G.label, e.G.src, e.G.dst)) (G.edges g))
  in
  check "bit-identical to the 12-stage run" true
    (edges (maint_graph m) = edges scratch)

(* --- the oracle campaign ------------------------------------------------- *)

(* ≥200 seeded edit scripts across random TGD and graph instances, both
   engines, zero violations (ISSUE 8's acceptance bar). *)
let test_oracle_campaign () =
  let r = Oracle.Incr.run_cases ~seed:42 ~cases:60 () in
  check "campaign diffed at least 200 scripts" true (r.Oracle.Incr.scripts >= 200);
  List.iter
    (fun (case, vs) ->
      List.iter (fun v -> Alcotest.failf "case %d: %s" case v) vs)
    r.Oracle.Incr.violations

(* --- suite -------------------------------------------------------------- *)

let engines = [ ("seminaive", `Seminaive); ("par", `Par) ]

let per_engine mk =
  List.map (fun (nm, eng) -> (nm, mk eng)) engines

let cases name mk =
  List.map
    (fun (nm, t) ->
      Alcotest.test_case (Printf.sprintf "%s [%s]" name nm) `Quick t)
    (per_engine mk)

let () =
  Alcotest.run "incr"
    [
      ( "tgd",
        cases "insert only" test_insert_only
        @ cases "retract only" test_retract_only
        @ cases "mixed" test_mixed
        @ cases "retract through nulls" test_retract_through_nulls );
      ("mview", cases "certain answers" test_mview);
      ( "graph",
        cases "graph edits" test_graph_edits
        @ cases "retract through fresh" test_graph_retract_through_fresh );
      ( "workloads",
        cases "E10" test_e10_workload
        @ cases "grid(3,3)" test_grid33_workload
        @ cases "grid(4,4)" test_grid44_workload
        @ [
            Alcotest.test_case "E1 continuation" `Quick test_e1_continuation;
            Alcotest.test_case "grid(4,4) edits reuse compiled plans" `Quick
              test_grid44_plan_reuse;
          ] );
      ( "oracle",
        [ Alcotest.test_case "campaign: 200 scripts, 0 violations" `Quick
            test_oracle_campaign ] );
    ]
