(* Tests for the chase variants (lazy vs semi-oblivious), the §IX.A
   one-atom-difference observation, and the binary-counter stress
   machine. *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge = Symbol.make "E" 2
let v = Term.var
let e x y = Atom.app2 edge (v x) (v y)

(* --- lazy vs semi-oblivious chase ---------------------------------------- *)

(* The [`Oblivious] pipeline variant against the full-rescan spec. *)
let agrees_with_spec ?tuning ?max_stages ?stop what deps build =
  match Chase_spec.agree_oblivious ?tuning ?max_stages ?stop deps build with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: %s" what msg

let test_oblivious_ignores_satisfaction () =
  (* on a 2-cycle, the lazy chase of E(x,y) ⇒ ∃z E(y,z) is inert, the
     semi-oblivious one fires once per frontier tuple *)
  let dep = Tgd.Dep.make ~body:[ e "x" "y" ] ~head:[ e "y" "z" ] () in
  let mk () =
    let s = Structure.create () in
    let a = Structure.fresh s and b = Structure.fresh s in
    Structure.add2 s edge a b;
    Structure.add2 s edge b a;
    s
  in
  let lazy_s = mk () in
  let st1 = Tgd.Chase.run [ dep ] lazy_s in
  check "lazy: fixpoint, inert" true (st1.Tgd.Chase.fixpoint && Structure.size lazy_s = 2);
  let obl_s = mk () in
  let st2 = Tgd.Chase.run ~engine:`Oblivious ~max_stages:1 [ dep ] obl_s in
  check_int "oblivious: two firings" 2 st2.Tgd.Chase.applications;
  check_int "oblivious: grew" 4 (Structure.size obl_s);
  agrees_with_spec ~max_stages:3 "2-cycle" [ dep ] mk

let test_oblivious_fires_once_per_trigger () =
  (* across stages a trigger never refires *)
  let dep = Tgd.Dep.make ~body:[ e "x" "y" ] ~head:[ e "y" "z" ] () in
  let mk () =
    let s = Structure.create () in
    let a = Structure.fresh s and b = Structure.fresh s in
    Structure.add2 s edge a b;
    s
  in
  let s = mk () in
  let st = Tgd.Chase.run ~engine:`Oblivious ~max_stages:4 [ dep ] s in
  (* stage 1 fires y=b; stage 2 fires y=fresh1; ... one per stage *)
  check_int "one firing per stage" 4 st.Tgd.Chase.applications;
  check_int "grew linearly" 5 (Structure.size s);
  agrees_with_spec ~max_stages:4 "path" [ dep ] mk

let test_oblivious_agrees_on_verdict () =
  (* determinacy verdicts agree when the lazy chase converges: the
     oblivious chase is a superset, so red(Q0) still appears *)
  let p2 = Cq.Query.make ~free:[ "x"; "y" ] [ e "x" "m"; e "m" "y" ] in
  let p3 = Cq.Query.make ~free:[ "x"; "y" ] [ e "x" "m"; e "m" "n"; e "n" "y" ] in
  let p5 =
    Cq.Query.make ~free:[ "x"; "y" ]
      [ e "x" "a"; e "a" "b"; e "b" "c"; e "c" "d"; e "d" "y" ]
  in
  let queries = [ ("p2", p2); ("p3", p3) ] in
  let d, tuple = Tgd.Greenred.green_canonical p5 in
  let red_p5 = Cq.Query.paint Symbol.Red p5 in
  let found d = Cq.Eval.holds_at red_p5 d tuple in
  let deps = Tgd.Dep.t_q queries in
  let _ = Tgd.Chase.run ~engine:`Oblivious ~max_stages:4 ~stop:found deps d in
  check "oblivious chase also certifies determinacy" true (found d);
  agrees_with_spec ~max_stages:4 ~stop:found "T_Q" deps (fun () ->
      fst (Tgd.Greenred.green_canonical p5))

(* Every generated instance of the oracle's seed 42, under its budget,
   through both firing paths (sequential replay and staged). *)
let test_oblivious_spec_seed42 () =
  let budget = Oracle.Diff.default_budget in
  let stop d =
    Structure.card d > budget.Oracle.Diff.max_elems
    || Structure.size d > budget.Oracle.Diff.max_facts
  in
  let staged = { Tgd.Chase.default_tuning with Tgd.Chase.par_fire = `Staged } in
  for case = 0 to 599 do
    let inst = Oracle.Gen.instance (Oracle.Gen.case_rng ~seed:42 ~case) in
    List.iter
      (fun (tuning, path) ->
        agrees_with_spec ?tuning ~max_stages:budget.Oracle.Diff.max_stages
          ~stop
          (Printf.sprintf "seed 42 case %d (%s)" case path)
          inst.Oracle.Gen.deps
          (fun () -> Oracle.Gen.build inst))
      [ (None, "replay"); (Some staged, "staged") ]
  done

(* --- §IX.A: the one-atom difference --------------------------------------- *)

let test_attempt1_one_atom () =
  let t = Ef.Theorem2.q_infinity () in
  List.iter
    (fun i ->
      let _, _, diff = Ef.Theorem2.attempt1 t i in
      check_int (Printf.sprintf "chase_%d views differ by one atom" i) 1 diff)
    [ 1; 2; 3; 4; 5 ]

(* --- the binary counter stress machine ------------------------------------- *)

let test_binary_counter_direct () =
  (* after enough steps the tape holds w then a binary number *)
  let tm = Rainworm.Zoo.tm_binary_counter in
  check "diverges" false (Rainworm.Turing.halts ~max_steps:2_000 tm);
  let _, outcome = Rainworm.Turing.run ~max_steps:2_000 tm in
  match outcome with
  | Rainworm.Turing.Running c ->
      let tape = Rainworm.Turing.tape_list tm c in
      check "wall first" true (List.hd tape = "w");
      check "binary digits" true
        (List.for_all (fun x -> x = "0" || x = "1" || x = "_" || x = "w") tape)
  | Rainworm.Turing.Halted _ -> Alcotest.fail "must diverge"

let test_binary_counter_compiled () =
  let t =
    Rainworm.Sim.creep ~max_steps:60_000 ~validate:true
      (Rainworm.Tm_compiler.oracle Rainworm.Zoo.tm_binary_counter)
  in
  check "worm creeps" false (Rainworm.Sim.halted t);
  check "many cycles" true (t.Rainworm.Sim.cycles > 50);
  (* the simulated tape inside the worm is consistent: decode and check
     the digits *)
  let tape = Rainworm.Tm_compiler.decode_tape (Rainworm.Sim.final_config t) in
  check "decoded tape nonempty" true (List.length tape > 3);
  check "decoded symbols are digits"
    true
    (List.for_all
       (fun (sym, _) -> List.mem sym [ "0"; "1"; "_"; "w" ])
       tape)

let test_binary_counter_lockstep () =
  (* run TM directly for the number of simulated steps the worm performed
     and compare the tape digit strings at a cycle boundary *)
  let tm = Rainworm.Zoo.tm_binary_counter in
  let worm =
    Rainworm.Sim.creep ~max_cycles:40 ~max_steps:200_000
      (Rainworm.Tm_compiler.oracle tm)
  in
  let worm_tape =
    Rainworm.Tm_compiler.decode_tape (Rainworm.Sim.final_config worm)
  in
  (* find the mark: it identifies how many TM steps happened *)
  check "mark present" true
    (List.exists
       (fun (_, m) -> m <> Rainworm.Tm_compiler.No_mark)
       worm_tape)

(* --- backward analysis (Lemmas 22–23) --------------------------------------- *)

let test_predecessor_bound () =
  (* Lemma 22(3): fan-in bounded by c_M, checked along a real run *)
  let m = Rainworm.Zoo.eternal_creeper in
  let configs =
    Rainworm.Sim.reachable_configs ~max_steps:200 (Rainworm.Machine.oracle m)
  in
  List.iter
    (fun w ->
      check "fan-in ≤ c_M" true
        (List.length (Rainworm.Analysis.predecessors m w)
        <= Rainworm.Analysis.c_m m))
    configs

let test_predecessors_invert_step () =
  let m = Rainworm.Zoo.eternal_creeper in
  let o = Rainworm.Machine.oracle m in
  let rec walk n w =
    if n = 0 then ()
    else
      match Rainworm.Sim.step o w with
      | None -> ()
      | Some w' ->
          check "w ∈ preds(step w)" true
            (List.mem w (Rainworm.Analysis.predecessors m w'));
          walk (n - 1) w'
  in
  walk 100 Rainworm.Config.initial

let test_lemma23_closure () =
  (* the backward closure of a halting machine's u_M contains exactly the
     forward-reachable configurations, and is finite *)
  let m = Rainworm.Zoo.stillborn in
  match Rainworm.Analysis.halting_analysis m with
  | None -> Alcotest.fail "stillborn halts"
  | Some (u_m, k_m, closure) ->
      check "k_M small" true (k_m < 20);
      check "closure finite and small" true (List.length closure < 100);
      let forward =
        Rainworm.Sim.reachable_configs ~max_steps:(k_m + 1)
          (Rainworm.Machine.oracle m)
      in
      (* Lemma 23(1): forward-reachable ⊆ backward closure of u_M *)
      List.iter
        (fun w -> check "forward ⊆ backward closure" true (List.mem w closure))
        forward;
      (* Lemma 23(2): closure members satisfy Definition 19(1–3) when they
         are configurations on the tree path; u_M itself is valid *)
      check "u_M valid" true (Rainworm.Config.is_valid u_m)

let () =
  Alcotest.run "variants"
    [
      ( "oblivious-chase",
        [
          Alcotest.test_case "ignores head satisfaction" `Quick
            test_oblivious_ignores_satisfaction;
          Alcotest.test_case "fires once per trigger" `Quick
            test_oblivious_fires_once_per_trigger;
          Alcotest.test_case "agrees on determinacy" `Quick
            test_oblivious_agrees_on_verdict;
          Alcotest.test_case "pipeline = spec, seed 42" `Slow
            test_oblivious_spec_seed42;
        ] );
      ( "attempt1",
        [ Alcotest.test_case "views differ by one atom (§IX.A)" `Quick
            test_attempt1_one_atom ] );
      ( "binary-counter",
        [
          Alcotest.test_case "direct" `Quick test_binary_counter_direct;
          Alcotest.test_case "compiled" `Quick test_binary_counter_compiled;
          Alcotest.test_case "lockstep mark" `Quick test_binary_counter_lockstep;
        ] );
      ( "backward-analysis",
        [
          Alcotest.test_case "fan-in ≤ c_M (Lemma 22(3))" `Quick
            test_predecessor_bound;
          Alcotest.test_case "predecessors invert step" `Quick
            test_predecessors_invert_step;
          Alcotest.test_case "finite closure (Lemma 23)" `Quick test_lemma23_closure;
        ] );
    ]
