(* Model checking by frontier key ([Tgd.Chase.Check]) against the
   body-match scan it replaced ([Chase_spec]): equal verdicts, violations
   and trigger lists on every oracle result of seed 42, on generated
   bodies built to hit the component split's corner cases, and on
   hand-made ones; plus the compile and head-check counts the scan is
   meant to save. *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let v = Term.var
let c = Term.cst
let u_sym = Symbol.make "U" 1
let e_sym = Symbol.make "E" 2
let t_sym = Symbol.make "T" 3
let z_sym = Symbol.make "Z" 2 (* never in a generated structure *)
let u x = Atom.make u_sym [ x ]
let e x y = Atom.make e_sym [ x; y ]
let t x y z = Atom.make t_sym [ x; y; z ]

let agrees what deps d =
  match Chase_spec.agree deps d with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" what msg

(* --- every oracle result of seed 42 ------------------------------------- *)

let engines =
  [
    (`Stage, None);
    (`Seminaive, None);
    (`Oblivious, None);
    (`Par, None);
    (`Par, Some { Tgd.Chase.default_tuning with Tgd.Chase.par_fire = `Staged });
  ]

(* The results [Oracle.Diff.diff_tgd] rescans: within 4x of the budget. *)
let small (b : Oracle.Diff.budget) st =
  Structure.size st <= 4 * b.Oracle.Diff.max_facts
  && Structure.card st <= 4 * b.Oracle.Diff.max_elems

let run_case case engine tuning =
  let inst = Oracle.Gen.instance (Oracle.Gen.case_rng ~seed:42 ~case) in
  (inst, Oracle.Diff.run_tgd ?tuning Oracle.Diff.default_budget engine inst)

let test_oracle_results () =
  let budget = Oracle.Diff.default_budget in
  let results = ref 0 in
  for case = 0 to 599 do
    let inst = Oracle.Gen.instance (Oracle.Gen.case_rng ~seed:42 ~case) in
    let chk = Tgd.Chase.Check.make inst.Oracle.Gen.deps in
    List.iter
      (fun (engine, tuning) ->
        let r = Oracle.Diff.run_tgd ?tuning budget engine inst in
        let d = r.Oracle.Diff.result in
        if small budget d then begin
          incr results;
          match Chase_spec.agree ~chk inst.Oracle.Gen.deps d with
          | None -> ()
          | Some msg ->
              Alcotest.failf "case %d [%a]: %s" case Tgd.Chase.pp_engine engine
                msg
        end)
      engines
  done;
  check_int "results within the slack" 2989 !results

(* --- generated bodies --------------------------------------------------- *)

(* Dependencies over U/1, E/2, T/3 and the absent Z/2, with body terms
   from six variables and the constants a, b (in every structure) and c
   (in none): bodies fall apart into components, atoms go constant-only,
   variables repeat, an atom may be duplicated, and a head built from
   existentials and constants alone has an empty frontier. *)
let gen_case =
  let open QCheck.Gen in
  let body_var = oneofl [ "x"; "y"; "z"; "p"; "q"; "r" ] in
  let term vars csts =
    frequency [ (5, map v vars); (1, map c (oneofl csts)) ]
  in
  let atom term =
    frequency
      [
        (2, map u term);
        (4, map2 e term term);
        (2, map3 t term term term);
        (1, map2 (fun x y -> Atom.make z_sym [ x; y ]) term term);
      ]
  in
  let body =
    list_size (int_range 1 4) (atom (term body_var [ "a"; "b"; "c" ]))
    >>= fun atoms ->
    frequency
      [
        (3, return atoms);
        (* a duplicated atom *)
        (1, map (fun a -> atoms @ [ a ]) (oneofl atoms));
        (* a constant-only atom *)
        ( 1,
          map
            (fun a -> atoms @ [ a ])
            (atom (map c (oneofl [ "a"; "b"; "b"; "c" ]))) );
      ]
  in
  let dep i =
    body >>= fun body ->
    let bvars = Term.Var_set.elements (Atom.vars_of_list body) in
    let head_var =
      frequency
        ((2, oneofl [ "n"; "m" ])
        :: (if bvars = [] then [] else [ (3, oneofl bvars) ]))
    in
    list_size (int_range 1 2) (atom (term head_var [ "a"; "c" ]))
    >|= fun head ->
    Tgd.Dep.make ~name:(Printf.sprintf "d%d" i) ~body ~head ()
  in
  let fact n =
    let el = int_bound (n + 1) in
    frequency
      [
        (1, map (fun x -> (u_sym, [| x |])) el);
        (3, map2 (fun x y -> (e_sym, [| x; y |])) el el);
        (1, map3 (fun x y z -> (t_sym, [| x; y; z |])) el el el);
      ]
  in
  int_range 1 3 >>= fun ndeps ->
  flatten_l (List.init ndeps dep) >>= fun deps ->
  int_range 1 4 >>= fun n ->
  list_size (int_range 0 12) (fact n) >|= fun facts -> (deps, n, facts)

(* Elements [0, n) are plain; [n] is the constant a and [n + 1] is b. *)
let build (_, n, facts) =
  let d = Structure.create () in
  for _ = 1 to n do
    ignore (Structure.fresh d)
  done;
  ignore (Structure.constant d "a");
  ignore (Structure.constant d "b");
  List.iter
    (fun (s, args) -> ignore (Structure.add_fact d (Fact.make s args)))
    facts;
  d

let print_case ((deps, n, _) as case) =
  let d = build case in
  Format.asprintf "@[<v>deps: %a@,%d plain elements; facts: %a@]"
    (Fmt.list ~sep:(Fmt.any ";@ ") Tgd.Dep.pp)
    deps n
    (Fmt.list ~sep:Fmt.comma (Fact.pp ()))
    (Structure.facts d)

(* On the structure as built, and after a few stages of the chase, which
   witnesses some heads and so mixes witnessed and active keys. *)
let prop_generated =
  QCheck.Test.make ~name:"Check agrees with the spec on generated bodies"
    ~count:400
    (QCheck.make ~print:print_case gen_case)
    (fun ((deps, _, _) as case) ->
      let d = build case in
      let chk = Tgd.Chase.Check.make deps in
      let ok d =
        match Chase_spec.agree ~chk deps d with
        | None -> true
        | Some msg -> QCheck.Test.fail_report msg
      in
      ok d
      &&
      let stop d = Structure.size d > 60 in
      ignore (Tgd.Chase.run ~max_stages:3 ~stop deps d);
      ok d)

(* --- hand-made corner cases --------------------------------------------- *)

let fixture () =
  let d = Structure.create () in
  let x0 = Structure.fresh d and x1 = Structure.fresh d in
  let x2 = Structure.fresh d in
  let a = Structure.constant d "a" in
  List.iter
    (fun (s, args) -> ignore (Structure.add_fact d (Fact.make s args)))
    [
      (e_sym, [| x0; x1 |]);
      (e_sym, [| x1; x2 |]);
      (e_sym, [| x2; a |]);
      (e_sym, [| a; a |]);
      (u_sym, [| x1 |]);
      (u_sym, [| a |]);
      (t_sym, [| x0; x0; x2 |]);
    ];
  d

let dep name body head = Tgd.Dep.make ~name ~body ~head ()

let corner_deps =
  [
    (* two components, {p, x} and {q, y}, interleaved in the key order
       p q x y *)
    dep "interleaved"
      [ e (v "p") (v "x"); e (v "q") (v "y"); u (v "x") ]
      [ e (v "x") (v "q"); e (v "y") (v "p") ];
    (* a Boolean component beside a frontier one *)
    dep "boolean" [ e (v "x") (v "y"); u (v "z") ] [ u (v "x") ];
    (* a constant-only atom, present and absent *)
    dep "const-present" [ e (c "a") (c "a"); e (v "x") (v "y") ] [ u (v "y") ];
    dep "const-absent" [ e (c "c") (c "a"); e (v "x") (v "y") ] [ u (v "y") ];
    (* a missing constant inside a frontier component *)
    dep "missing-in-comp" [ e (v "x") (c "c") ] [ u (v "x") ];
    (* an empty frontier: the head only has existentials and constants *)
    dep "empty-frontier" [ e (v "x") (v "y") ] [ e (v "n") (c "a") ];
    dep "empty-frontier-unmet"
      [ e (v "x") (v "y") ]
      [ t (v "n") (v "n") (c "a") ];
    (* a repeated variable and a duplicated atom *)
    dep "repeated"
      [ t (v "x") (v "x") (v "y"); t (v "x") (v "x") (v "y") ]
      [ e (v "y") (v "n") ];
    (* an empty component stops the scan: beside a Boolean one, first
       in key order, last in key order (the streamed one) *)
    dep "empty-comp"
      [ e (v "x") (v "y"); Atom.make z_sym [ v "p"; v "q" ] ]
      [ u (v "p") ];
    dep "empty-first"
      [ Atom.make z_sym [ v "p"; v "q" ]; e (v "x") (v "y") ]
      [ e (v "p") (v "x") ];
    dep "empty-last"
      [ e (v "p") (v "q"); Atom.make z_sym [ v "x"; v "y" ] ]
      [ e (v "p") (v "x") ];
  ]

let test_corners () =
  let d = fixture () in
  List.iter (fun dep -> agrees (Tgd.Dep.name dep) [ dep ] d) corner_deps;
  agrees "all" corner_deps d;
  let d' = Structure.copy d in
  ignore (Tgd.Chase.run ~max_stages:2 corner_deps d');
  agrees "chased" corner_deps d'

(* --- counters ----------------------------------------------------------- *)

let with_metrics f =
  Obs.set_metrics true;
  Fun.protect ~finally:(fun () -> Obs.set_metrics false) f

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

let delta name f =
  let before = counter name in
  let r = f () in
  (r, counter name - before)

(* Components per body: interleaved 2, boolean 2, const-present 2,
   const-absent 2, missing-in-comp 1, empty-frontier 1,
   empty-frontier-unmet 1, repeated 1, and 2 for each empty-* — 18, plus
   11 heads. *)
let test_compile_counts () =
  with_metrics (fun () ->
      let d = fixture () in
      let chk, n =
        delta "plan.compilations" (fun () -> Tgd.Chase.Check.make corner_deps)
      in
      check_int "one compile per component and per head" 29 n;
      let (), n =
        delta "plan.compilations" (fun () ->
            ignore (Tgd.Chase.Check.models chk d);
            ignore (Tgd.Chase.Check.find_violation chk d);
            ignore (Tgd.Chase.Check.active_triggers chk d))
      in
      check_int "scans compile nothing" 0 n)

(* Seed 42, case 444, oblivious: 178k body matches for 10.7k keys. *)
let test_head_checks () =
  with_metrics (fun () ->
      let inst, r = run_case 444 `Oblivious None in
      let deps = inst.Oracle.Gen.deps and d = r.Oracle.Diff.result in
      check "within the slack" true (small Oracle.Diff.default_budget d);
      let spec, n_spec =
        delta "tgd.head_checks" (fun () -> Chase_spec.find_violation deps d)
      in
      let got, n =
        delta "tgd.head_checks" (fun () -> Tgd.Chase.find_violation deps d)
      in
      check "same violation" true
        (Option.map Chase_spec.trigger spec
        = Option.map Chase_spec.trigger got);
      check "a violation" true (got <> None);
      check_int "spec head checks" 9410 n_spec;
      if n >= n_spec then
        Alcotest.failf "%d head checks, not fewer than the spec's %d" n n_spec)

(* Head probes are planned with the frontier bound.  Under
   R(x,z) ⇒ ∃v,u. R(v,u) ∧ R(u,x), a probe for key x starts at R(u,x),
   whose x-pin holds at most one fact of a path, and then R(v,u), pinned
   by u: at most two candidates a probe.  Planned as if nothing were
   bound, the probe starts at R(v,u) and scans every R-fact, so its
   cost grows with the structure.  The probes answer yes or no, so the
   number of head checks is what it was. *)
let r_sym = Symbol.make "R" 2
let r x y = Atom.make r_sym [ x; y ]
let back_dep = dep "back" [ r (v "x") (v "z") ] [ r (v "v") (v "u"); r (v "u") (v "x") ]

let r_path n =
  let d = Structure.create () in
  let es = Array.init (n + 1) (fun _ -> Structure.fresh d) in
  for i = 0 to n - 1 do
    Structure.add2 d r_sym es.(i) es.(i + 1)
  done;
  d

(* (candidates scanned, head checks) of [f ()] *)
let effort f =
  let ((), scanned), checks =
    delta "tgd.head_checks" (fun () -> delta "hom.candidates_scanned" f)
  in
  (scanned, checks)

(* [scanned] pays the n body candidates of a path of n R-facts plus at
   most two a head probe: no head probe's cost grows with n.  At the
   unbound plans it was 1.5n a probe (6,238 scanned at n = 64). *)
let bounded what n (scanned, checks) =
  if scanned > n + (2 * checks) then
    Alcotest.failf "%s, path %d: %d scanned for %d head checks" what n scanned
      checks

let test_head_plans () =
  with_metrics (fun () ->
      let chk = Tgd.Chase.Check.make [ back_dep ] in
      List.iter
        (fun n ->
          let what = Printf.sprintf "active_triggers, path %d" n in
          let ((scanned, checks) as e) =
            effort (fun () -> ignore (Tgd.Chase.Check.active_triggers chk (r_path n)))
          in
          check_int (what ^ ": head checks") n checks;
          (* keys 0 and 1 scan 0 and 1, every other key 2 *)
          check_int (what ^ ": scanned") ((3 * n) - 3) scanned;
          bounded what n e;
          let what = Printf.sprintf "seminaive, path %d" n in
          let apps = ref 0 in
          let ((scanned, checks) as e) =
            effort (fun () ->
                let st =
                  Tgd.Chase.run ~engine:`Seminaive ~jobs:1 ~max_stages:3
                    [ back_dep ] (r_path n)
                in
                apps := st.Tgd.Chase.applications)
          in
          check_int (what ^ ": firings") 3 !apps;
          check_int (what ^ ": head checks") (n + 10) checks;
          check_int (what ^ ": scanned") ((2 * n) + 11) scanned;
          bounded what n e)
        [ 8; 64 ];
      (* seed 42, case 285, oblivious: this head over a result of 254
         keys, which the unbound plans probed at 92,812 candidates *)
      let inst, r = run_case 285 `Oblivious None in
      let chk = Tgd.Chase.Check.make inst.Oracle.Gen.deps in
      let scanned, checks =
        effort (fun () ->
            ignore (Tgd.Chase.Check.active_triggers chk r.Oracle.Diff.result))
      in
      check_int "case 285: head checks" 254 checks;
      check_int "case 285: scanned" 696 scanned)

let () =
  Alcotest.run "check"
    [
      ( "spec",
        [
          Alcotest.test_case "seed 42 oracle results" `Slow test_oracle_results;
          Alcotest.test_case "corner cases" `Quick test_corners;
          QCheck_alcotest.to_alcotest prop_generated;
        ] );
      ( "counters",
        [
          Alcotest.test_case "compiles" `Quick test_compile_counts;
          Alcotest.test_case "head checks" `Quick test_head_checks;
          Alcotest.test_case "head plans" `Quick test_head_plans;
        ] );
    ]
