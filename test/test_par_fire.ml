(* Parallel-firing bit-identity.  The par engine — at jobs 1, 2 and 3,
   with staged (two-phase, partition-then-canonical-merge) firing both
   auto-selected and forced on, and under "par.shard"/"par.fire"
   failpoints — must produce the same structure, journal, firing
   sequence and stats record as the sequential semi-naive reference.
   The fault cases additionally pin the retry-then-degrade ladder:
   a probability-1 site must tick both resilience counters while
   leaving the run bit-identical. *)

open Relational
module FP = Resilience.Failpoint

let check = Alcotest.(check bool)

let counter name =
  match List.assoc_opt name (Obs.Metrics.snapshot ()) with
  | Some v -> v
  | None -> 0

let staged =
  { Tgd.Chase.default_tuning with Tgd.Chase.par_fire = `Staged }

(* --- TGD chase ------------------------------------------------------------ *)

let run_tgd ?tuning ?jobs engine inst =
  let d = Oracle.Gen.build inst in
  let stop d = Structure.card d > 100 || Structure.size d > 300 in
  let firings = ref [] in
  let on_fire ~stage dep fb =
    firings := (stage, Tgd.Dep.name dep, Term.Var_map.bindings fb) :: !firings
  in
  let stats =
    Tgd.Chase.run ~engine ?jobs ?tuning ~max_stages:6 ~stop ~on_fire
      inst.Oracle.Gen.deps d
  in
  (d, stats, List.rev !firings)

let same_tgd_run what (d1, s1, f1) (d2, s2, f2) =
  check (what ^ ": structures equal") true (Structure.equal_sets d1 d2);
  check
    (what ^ ": journals equal")
    true
    (Structure.delta_since d1 0 = Structure.delta_since d2 0);
  check (what ^ ": firing sequences equal") true (f1 = f2);
  check (what ^ ": stats equal") true (s1 = s2)

let test_tgd_jobs () =
  for case = 0 to 19 do
    let r = Oracle.Gen.case_rng ~seed:23 ~case in
    let inst = Oracle.Gen.instance r in
    let base = run_tgd `Seminaive inst in
    List.iter
      (fun jobs ->
        same_tgd_run
          (Printf.sprintf "case %d jobs %d" case jobs)
          base
          (run_tgd ~jobs `Par inst);
        same_tgd_run
          (Printf.sprintf "case %d jobs %d staged" case jobs)
          base
          (run_tgd ~tuning:staged ~jobs `Par inst))
      [ 1; 2; 3 ]
  done

(* Each run compiles its dependencies afresh, so every lazy plan is
   unforced when the first pool fan-out starts.  Forcing one lazy from
   two domains raises [CamlinternalLazy.Undefined]; the par engine must
   force its plans on the calling domain first.  Four jobs and staged
   firing fan out both the trigger scan and the head staging, on every
   stage, several dozen times. *)
let test_tgd_fresh_plans_jobs4 () =
  for case = 0 to 47 do
    let r = Oracle.Gen.case_rng ~seed:41 ~case in
    let inst = Oracle.Gen.instance r in
    let base = run_tgd `Seminaive inst in
    let par =
      try run_tgd ~tuning:staged ~jobs:4 `Par inst
      with e ->
        Alcotest.failf "case %d jobs 4 staged raised %s" case
          (Printexc.to_string e)
    in
    same_tgd_run (Printf.sprintf "case %d jobs 4 staged, fresh plans" case)
      base par
  done

(* A probability-1 failpoint faults the first attempt and the retry, so
   every armed stage walks the whole ladder: retried once, then degraded
   to the sequential rung — and the run must stay bit-identical.
   "par.fire" only draws when a stage actually has triggers to fire, so
   the counter assertions are aggregated over the case loop rather than
   per case. *)
let test_tgd_faulted () =
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics false;
      FP.clear ())
    (fun () ->
      List.iter
        (fun site ->
          let retries0 = counter "resilience.par_retries" in
          let degraded0 = counter "resilience.par_degraded" in
          for case = 0 to 9 do
            let r = Oracle.Gen.case_rng ~seed:29 ~case in
            let inst = Oracle.Gen.instance r in
            FP.clear ();
            let base = run_tgd `Seminaive inst in
            FP.configure_exn ~seed:(100 + case) site;
            let faulted = run_tgd ~jobs:2 `Par inst in
            FP.clear ();
            same_tgd_run (Printf.sprintf "case %d under %s" case site) base
              faulted
          done;
          check (site ^ ": ladder retried") true
            (counter "resilience.par_retries" > retries0);
          check (site ^ ": ladder degraded") true
            (counter "resilience.par_degraded" > degraded0))
        [ "par.shard"; "par.fire" ])

let () =
  Alcotest.run "par_fire"
    [
      ( "tgd",
        [
          Alcotest.test_case "jobs 1/2/3 bit-identical" `Quick test_tgd_jobs;
          Alcotest.test_case "fresh plans, jobs 4 staged: no lazy race" `Quick
            test_tgd_fresh_plans_jobs4;
          Alcotest.test_case "faulted ladders bit-identical" `Quick
            test_tgd_faulted;
        ] );
    ]
