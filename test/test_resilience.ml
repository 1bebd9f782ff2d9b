(* The resilience layer: governor semantics, failpoint determinism,
   checkpoint atomicity, governed graph-chase rows on the grid(4,4)
   collision, the run-until-k + resume ≡ uninterrupted contract on the
   TGD chase (the E10 workload), plus the end-to-end fault campaign. *)

open Relational
module G = Resilience.Governor
module FP = Resilience.Failpoint
module CK = Resilience.Checkpoint

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

(* The E10 bench workload: T_Q for {p2, p3} chased from green(path 5). *)
let e10_deps () = Tgd.Dep.t_q [ ("p2", path_query 2); ("p3", path_query 3) ]
let e10_seed () = fst (Tgd.Greenred.green_canonical (path_query 5))

(* --- governor ----------------------------------------------------------- *)

let test_governor_basics () =
  check "unlimited is unlimited" true (G.is_unlimited G.unlimited);
  check "made governor is not" false (G.is_unlimited (G.make ()));
  let g = G.make ~deadline:(Obs.Clock.now_s () -. 1.) () in
  check "deadline passed" true (G.deadline_passed g);
  check "interrupted = deadline" true (G.interrupted g = Some G.Deadline);
  let c = G.Cancel.create () in
  let g = G.make ~deadline:(Obs.Clock.now_s () -. 1.) ~cancel:c () in
  G.Cancel.trip c;
  check "cancellation wins over the deadline" true
    (G.interrupted g = Some G.Cancelled);
  G.Cancel.reset c;
  check "reset untrips" true (G.interrupted g = Some G.Deadline);
  let g = G.make ~max_elems:10 ~max_facts:100 () in
  check "within budget" true (G.over_budget g ~elems:10 ~facts:100 = None);
  check "element budget" true
    (G.over_budget g ~elems:11 ~facts:0 = Some (G.Budget G.Elems));
  check "fact budget" true
    (G.over_budget g ~elems:0 ~facts:101 = Some (G.Budget G.Facts))

let test_exit_codes () =
  check_int "fixpoint" 0 (G.exit_code G.Fixpoint);
  check_int "budget" 3 (G.exit_code (G.Budget G.Stages));
  check_int "deadline" 3 (G.exit_code G.Deadline);
  check_int "cancelled" 4 (G.exit_code G.Cancelled);
  check_int "faulted" 1 (G.exit_code (G.Faulted "arena.grow"))

let test_cancel_polling () =
  let c = G.Cancel.create () in
  G.Cancel.poll ();
  (* no-op when disarmed *)
  let raised =
    G.Cancel.with_polling c (fun () ->
        G.Cancel.poll ();
        (* not tripped yet: returns *)
        G.Cancel.trip c;
        try
          G.Cancel.poll ();
          false
        with G.Cancel.Cancelled -> true)
  in
  check "poll raised after trip" true raised;
  (* disarmed again outside the scope: polling a tripped token is a
     no-op (the dynamic extent ended) *)
  G.Cancel.poll ();
  (* the armed state is domain-local: another domain polling while this
     one holds a tripped token armed must NOT observe it *)
  G.Cancel.with_polling c (fun () ->
      let other =
        Domain.spawn (fun () ->
            try
              G.Cancel.poll ();
              true
            with G.Cancel.Cancelled -> false)
      in
      check "other domain unaffected by this domain's armed token" true
        (Domain.join other))

(* The shared stage loop on a scripted step.  [script i] says what stage
   [i] does: fire that many triggers, or raise mid-stage.  Snapshots are
   taken every two stages; the result is (last stage, outcome, snapshot
   stages). *)
type scripted = Fires of int | Cancel_mid | Fault_mid

let run_scripted ?(governor = G.unlimited) ?(start_stage = 0)
    ?(max_stages = max_int) ?(stop_after = max_int) script =
  let snaps = ref [] and ran = ref 0 in
  let step i =
    match script i with
    | Fires n ->
        ran := i;
        (n, n)
    | Cancel_mid -> raise G.Cancel.Cancelled
    | Fault_mid -> raise (FP.Injected "scripted")
  in
  let stage, outcome =
    G.run_stages governor ~span:"test.stage" ~start_stage ~max_stages
      ~sizes:(fun () -> (0, 10 * !ran))
      ~stop:(fun () -> !ran >= stop_after)
      ~snapshot_every:2
      ~snapshot:(fun i -> snaps := i :: !snaps)
      step
  in
  (stage, outcome, List.rev !snaps)

let test_run_stages () =
  let expect what (stage, outcome, snaps) got =
    let g_stage, g_outcome, g_snaps = got in
    check_int (what ^ ": stage") stage g_stage;
    check (what ^ ": outcome") true (outcome = g_outcome);
    Alcotest.(check (list int)) (what ^ ": snapshots") snaps g_snaps
  in
  let fires_until k i = Fires (if i < k then 1 else 0) in
  expect "fixpoint" (4, G.Fixpoint, [ 2; 4 ])
    (run_scripted (fires_until 4));
  expect "stage fuel" (3, G.Budget G.Stages, [ 2; 3 ])
    (run_scripted ~max_stages:3 (fun _ -> Fires 1));
  expect "governor fuel wins when lower" (2, G.Budget G.Stages, [ 2 ])
    (run_scripted ~governor:(G.make ~max_stages:2 ()) ~max_stages:9
       (fun _ -> Fires 1));
  expect "resumed cadence counts from the start stage"
    (8, G.Budget G.Stages, [ 7; 8 ])
    (run_scripted ~start_stage:5 ~max_stages:8 (fun _ -> Fires 1));
  expect "stop" (3, G.Budget G.Stop, [ 2; 3 ])
    (run_scripted ~stop_after:3 (fun _ -> Fires 1));
  expect "one snapshot per stage" (2, G.Budget G.Stop, [ 2 ])
    (run_scripted ~stop_after:2 (fun _ -> Fires 1));
  expect "fact budget" (3, G.Budget G.Facts, [ 2; 3 ])
    (run_scripted ~governor:(G.make ~max_facts:25 ()) (fun _ -> Fires 1));
  expect "cancel mid-stage: no snapshot" (3, G.Cancelled, [ 2 ])
    (run_scripted (fun i -> if i = 4 then Cancel_mid else Fires 1));
  expect "fault mid-stage: no snapshot" (2, G.Faulted "scripted", [ 2 ])
    (run_scripted (fun i -> if i = 3 then Fault_mid else Fires 1));
  let c = G.Cancel.create () in
  G.Cancel.trip c;
  expect "cancelled at the first boundary" (0, G.Cancelled, [ 0 ])
    (run_scripted ~governor:(G.make ~cancel:c ()) (fun _ -> Fires 1));
  (* sizes are read only under a size budget *)
  let sized = ref false in
  ignore
    (G.run_stages G.unlimited ~span:"test.stage" ~start_stage:0 ~max_stages:3
       ~sizes:(fun () ->
         sized := true;
         (0, 0))
       ~stop:(fun () -> false)
       ~snapshot_every:1 ~snapshot:ignore
       (fun _ -> (1, 1)));
  check "no size budget, no size count" false !sized

(* --- failpoints --------------------------------------------------------- *)

let schedule spec seed n =
  FP.configure_exn ~seed spec;
  let s = List.init n (fun _ -> FP.fire "par.shard") in
  FP.clear ();
  s

let test_failpoint_determinism () =
  let a = schedule "par.shard=0.5" 7 64 in
  let b = schedule "par.shard=0.5" 7 64 in
  let c = schedule "par.shard=0.5" 8 64 in
  check "same (seed, spec) replays the schedule" true (a = b);
  check "different seed, different schedule" false (a = c);
  check "some fired" true (List.mem true a);
  check "some did not" true (List.mem false a)

let test_failpoint_spec () =
  check "bad probability rejected" true
    (match FP.configure "par.shard=1.5" with Error _ -> true | Ok () -> false);
  check "garbage rejected" true
    (match FP.configure "par.shard=x" with Error _ -> true | Ok () -> false);
  FP.configure_exn "arena.grow";
  check "bare name fires always" true (FP.fire "arena.grow");
  check "unarmed site never fires" false (FP.fire "par.shard");
  check "armed" true (FP.active ());
  FP.clear ();
  check "cleared" false (FP.active ());
  check "cleared sites do not fire" false (FP.fire "arena.grow")

(* --- checkpoint files --------------------------------------------------- *)

(* Temp files are now unique per (pid, counter) — [path ^ ".tmp.<pid>.<n>"]
   — so leak checks scan for any sibling with the temp prefix instead of
   probing one fixed name. *)
let tmp_siblings path =
  let dir = Filename.dirname path and base = Filename.basename path in
  let prefix = base ^ ".tmp" in
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> String.starts_with ~prefix f)

let with_tmp f =
  let path = Filename.temp_file "redspider-test" ".ckpt" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f ->
          try Sys.remove (Filename.concat (Filename.dirname path) f)
          with Sys_error _ -> ())
        (tmp_siblings path);
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_tmp (fun path ->
      let d = e10_seed () in
      let journal = Structure.delta_since d 0 in
      check "save ok" true (CK.save ~kind:"t" path d = Ok ());
      match (CK.load ~kind:"t" path : (Structure.t, string) result) with
      | Error m -> Alcotest.failf "load failed: %s" m
      | Ok d' ->
          check "facts survive" true (Structure.equal_sets d d');
          check "journal order survives" true
            (Structure.delta_since d' 0 = journal);
          check "kind mismatch is a clean error" true
            (match (CK.load ~kind:"u" path : (Structure.t, string) result) with
            | Error _ -> true
            | Ok _ -> false))

let test_checkpoint_truncation () =
  with_tmp (fun path ->
      check "save ok" true (CK.save ~kind:"t" path [ 1; 2; 3 ] = Ok ());
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full - 4)));
      check "truncated file is a clean error" true
        (match (CK.load ~kind:"t" path : (int list, string) result) with
        | Error _ -> true
        | Ok _ -> false))

let test_checkpoint_torn_write () =
  with_tmp (fun path ->
      check "first save ok" true (CK.save ~kind:"t" path [ 1; 2; 3 ] = Ok ());
      FP.configure_exn "checkpoint.write";
      let second = CK.save ~kind:"t" path [ 4; 5; 6 ] in
      FP.clear ();
      check "faulted save reports" true
        (match second with Error _ -> true | Ok () -> false);
      check "no temp file left behind" true (tmp_siblings path = []);
      check "previous checkpoint intact" true
        (CK.load ~kind:"t" path = Ok [ 1; 2; 3 ]))

(* A stale temp file from a crashed writer (or another process) must not
   break the next publish, and must not be mistaken for ours and
   deleted. *)
let test_checkpoint_stale_tmp () =
  with_tmp (fun path ->
      let stale = path ^ ".tmp.99999.0" in
      Out_channel.with_open_bin stale (fun oc ->
          Out_channel.output_string oc "garbage");
      check "save ok despite stale temp" true
        (CK.save ~kind:"t" path [ 7; 8 ] = Ok ());
      check "published value readable" true
        (CK.load ~kind:"t" path = Ok [ 7; 8 ]);
      check "stale temp untouched" true (Sys.file_exists stale))

(* The header's payload length is validated against the bytes actually
   present, so a corrupt length can neither over-allocate nor feed
   [Marshal] a short buffer. *)
let rewrite_length path f =
  let full = In_channel.with_open_bin path In_channel.input_all in
  let nl = String.index full '\n' in
  let header = String.sub full 0 nl in
  let payload = String.sub full (nl + 1) (String.length full - nl - 1) in
  let parts = String.split_on_char ' ' header in
  let n = List.nth parts (List.length parts - 1) in
  let forged = f (int_of_string n) (String.length payload) in
  let header' =
    String.concat " "
      (List.mapi
         (fun i p -> if i = List.length parts - 1 then forged else p)
         parts)
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (header' ^ "\n" ^ payload))

let test_checkpoint_bad_length () =
  with_tmp (fun path ->
      check "save ok" true (CK.save ~kind:"t" path [ 1; 2; 3 ] = Ok ());
      rewrite_length path (fun _ _ -> string_of_int max_int);
      check "oversized length is a clean error, not an allocation" true
        (match (CK.load ~kind:"t" path : (int list, string) result) with
        | Error _ -> true
        | Ok _ -> false);
      check "save again ok" true (CK.save ~kind:"t" path [ 1; 2; 3 ] = Ok ());
      rewrite_length path (fun _ _ -> "-1");
      check "negative length is a clean error" true
        (match (CK.load ~kind:"t" path : (int list, string) result) with
        | Error _ -> true
        | Ok _ -> false);
      check "save again ok" true (CK.save ~kind:"t" path [ 1; 2; 3 ] = Ok ());
      rewrite_length path (fun _ have -> string_of_int (have + 1));
      check "length past end-of-file is a clean error" true
        (match (CK.load ~kind:"t" path : (int list, string) result) with
        | Error _ -> true
        | Ok _ -> false))

(* Two domains saving to the same path concurrently: unique temp names
   mean neither torn output nor a stolen rename — the survivor is one of
   the two committed values, intact. *)
let test_checkpoint_concurrent_save () =
  with_tmp (fun path ->
      let save v () = CK.save ~kind:"t" path (List.init 2000 (fun i -> i * v)) in
      let other = Domain.spawn (save 3) in
      let mine = save 5 () in
      let theirs = Domain.join other in
      check "both saves succeed" true (mine = Ok () && theirs = Ok ());
      check "no temp files left behind" true (tmp_siblings path = []);
      match (CK.load ~kind:"t" path : (int list, string) result) with
      | Error m -> Alcotest.failf "load after concurrent save: %s" m
      | Ok l ->
          check "survivor is one committed value, not a mix" true
            (l = List.init 2000 (fun i -> i * 3)
            || l = List.init 2000 (fun i -> i * 5)))

(* Checkpoints of the retired formats: a current file under an old
   magic.  Version 1 payloads were laid out for the old [Structure.t]
   and [Symbol.t], version 2 for the boxed-fact store; whatever the
   payload, the loader must refuse the file by its header, naming the
   version, and never unmarshal it. *)
let retired_magics = [ "REDSPIDER-CKPT-1"; "REDSPIDER-CKPT-2" ]

let save_retired magic path =
  let snap = ref None in
  ignore
    (Tgd.Chase.run ~engine:`Seminaive ~max_stages:2 ~snapshot_every:1
       ~on_snapshot:(fun s -> snap := Some s)
       (e10_deps ()) (e10_seed ()));
  (match CK.save ~kind:"tgd-chase" path (Option.get !snap) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "checkpoint write failed: %s" m);
  let full = In_channel.with_open_bin path In_channel.input_all in
  let sp = String.index full ' ' in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (magic ^ String.sub full sp (String.length full - sp)))

let names magic m =
  let n = String.length magic in
  let rec at i =
    i + n <= String.length m && (String.sub m i n = magic || at (i + 1))
  in
  at 0

(* the CLI, built next to this test (a dependency of the test stanza) *)
let redspider =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/redspider.exe"

let test_checkpoint_retired_refused magic =
  with_tmp (fun path ->
      save_retired magic path;
      (match
         (CK.load ~kind:"tgd-chase" path : (Tgd.Chase.snapshot, string) result)
       with
      | Error m -> check ("the loader names the version: " ^ m) true (names magic m)
      | Ok _ -> Alcotest.failf "a %s checkpoint was unmarshalled" magic);
      (* the CLI: [chase --resume] exits 2 *)
      let pid =
        Unix.create_process redspider
          [| redspider; "chase"; "-v"; "p2(x,y) :- E(x,m), E(m,y)"; "-q";
             "q0(x,y) :- E(x,a), E(a,b), E(b,y)"; "--resume"; path |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code -> check_int "chase --resume exit code" 2 code
      | _ -> Alcotest.fail "chase --resume did not exit");
  (* the daemon: the job resuming it faults *)
  let dir = Filename.temp_file "redspider-test" ".store" in
  Sys.remove dir;
  let store = Serve.Store.open_ dir in
  let job =
    Serve.Job.make ~seq:1
      (Serve.Job.Chase
         { views = [ ("p2", "p2(x,y) :- E(x,m), E(m,y)") ];
           q0 = "q0(x,y) :- E(x,a), E(a,b), E(b,y)"; max_stages = 6;
           engine = `Seminaive })
  in
  let ckpt = Serve.Store.ckpt_path store job.Serve.Job.id in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      save_retired magic ckpt;
      Serve.Runner.run_slice ~store ~instances:(Serve.Runner.instances ())
        ~cancel:G.Cancel.never
        ~quantum:{ Serve.Runner.stages = 2; seconds = 0. }
        job;
      match job.Serve.Job.state with
      | Serve.Job.Faulted m ->
          check ("the daemon names the version: " ^ m) true (names magic m)
      | st -> Alcotest.failf "job ended %s" (Serve.Job.state_name st))

let test_checkpoint_v1_refused () =
  List.iter test_checkpoint_retired_refused retired_magics

(* A structure back from a Marshal round trip keeps one symbol bucket
   per symbol, also for symbols it first meets after the trip: unused
   bucket slots must not come back as one shared vector. *)
let test_clone_symbol_buckets () =
  let sym name = Symbol.make name 1 in
  let d = Structure.create () in
  let x = Structure.fresh d in
  Structure.add d (sym "A") [| x |];
  let d' = CK.clone d in
  Structure.add d' (sym "B") [| x |];
  Structure.add d' (sym "C") [| x |];
  List.iter
    (fun name ->
      check_int (name ^ " bucket") 1
        (List.length (Structure.facts_with_sym d' (sym name))))
    [ "A"; "B"; "C" ];
  Alcotest.(check (list string)) "audit" [] (Oracle.Audit.structure d')

(* --- governed chase ----------------------------------------------------- *)

let run_e10 ?governor ?on_fire ~max_stages engine =
  let d = e10_seed () in
  let stats = Tgd.Chase.run ~engine ?governor ?on_fire ~max_stages (e10_deps ()) d in
  (stats, d)

let test_governed_prefix () =
  let full_stats, full = run_e10 ~max_stages:6 `Seminaive in
  let g = G.make ~max_stages:3 () in
  let cut_stats, cut = run_e10 ~governor:g ~max_stages:6 `Seminaive in
  check "cut by the governor's stage fuel" true
    (cut_stats.Tgd.Chase.outcome = G.Budget G.Stages);
  check_int "exactly three stages" 3 cut_stats.Tgd.Chase.stages;
  let jf = Structure.delta_since full 0 in
  let jc = Structure.delta_since cut 0 in
  check "governed run is a journal prefix of the ungoverned one" true
    (List.length jc < List.length jf
    && jc = List.filteri (fun i _ -> i < List.length jc) jf);
  check "full run kept going" true
    (full_stats.Tgd.Chase.stages = 6)

let test_cancelled_before_start () =
  let c = G.Cancel.create () in
  G.Cancel.trip c;
  let g = G.make ~cancel:c () in
  let stats, _ = run_e10 ~governor:g ~max_stages:6 `Seminaive in
  check "tripped token cancels at the first boundary" true
    (stats.Tgd.Chase.outcome = G.Cancelled);
  check_int "no stage ran" 0 stats.Tgd.Chase.stages

let test_arena_fault_reported () =
  FP.configure_exn "arena.grow";
  let stats, _ = run_e10 ~max_stages:6 `Seminaive in
  FP.clear ();
  check "arena fault surfaces as the structured verdict" true
    (stats.Tgd.Chase.outcome = G.Faulted "arena.grow");
  check "fixpoint flag agrees" false stats.Tgd.Chase.fixpoint

let test_par_fault_bit_identical () =
  let baseline_stats, baseline = run_e10 ~max_stages:5 `Seminaive in
  FP.configure_exn ~seed:3 "par.shard=0.8";
  let par_stats, par = run_e10 ~max_stages:5 `Par in
  let injected = FP.injected_total () in
  FP.clear ();
  check "faults were actually injected" true (injected > 0);
  check "retry/degrade keeps the runs bit-identical" true
    (Structure.delta_since baseline 0 = Structure.delta_since par 0);
  check "stats agree" true
    (baseline_stats.Tgd.Chase.applications = par_stats.Tgd.Chase.applications
    && baseline_stats.Tgd.Chase.stages = par_stats.Tgd.Chase.stages
    && baseline_stats.Tgd.Chase.triggers_considered
       = par_stats.Tgd.Chase.triggers_considered
    && baseline_stats.Tgd.Chase.outcome = par_stats.Tgd.Chase.outcome)

(* A maintenance run faulted mid-stage leaves triggers it considered but
   never fired; their keys must stay unseen, so that [continue_] fires
   them and still reaches the model the uninterrupted run builds.  The
   arena fault strikes inside a stage's firing pass on the bridged
   grid(4,4). *)
let test_maint_continues_faulted_run () =
  let g, _, _ = Separating.Paths.collision ~t:4 ~t':4 in
  let deps = Greengraph.Bridge.tgds_of_rules Separating.Tbox.rules in
  let d = Greengraph.Bridge.to_structure g in
  FP.configure_exn "arena.grow";
  let t, s =
    Fun.protect ~finally:FP.clear (fun () -> Tgd.Chase.Maint.create deps d)
  in
  check "faulted mid-run" true
    (s.Tgd.Chase.outcome = G.Faulted "arena.grow"
    && Tgd.Chase.Maint.pending t);
  let s = Tgd.Chase.Maint.continue_ t in
  check "continued to the fixpoint" true s.Tgd.Chase.fixpoint;
  Alcotest.(check (list string)) "audit clean" [] (Tgd.Chase.Maint.check t);
  check "models T□" true (Tgd.Chase.models deps d);
  check_int "the uninterrupted run's 998 edges" 998 (Structure.size d)

(* The graph chase and the maintenance of its rules on the shared stage
   loop: rows (stages, applications, triggers considered, outcome, edges)
   on the grid(4,4) collision, recorded before the three loops became
   one.  Maintenance runs the bridged rules through [Tgd.Chase.Maint];
   its rows are the ones recorded when green graphs had a maintainer of
   their own. *)
let test_graph_stage_loop_rows () =
  let module R = Greengraph.Rule in
  let module GG = Greengraph.Graph in
  let grid () =
    let g, _, _ = Separating.Paths.collision ~t:4 ~t':4 in
    g
  in
  let row (s : R.stats) =
    (s.R.stages, s.R.applications, s.R.triggers_considered, s.R.outcome)
  in
  let c = G.Cancel.create () in
  G.Cancel.trip c;
  let stop g = GG.size g > 250 in
  let chase ?(stop = fun _ -> false) governor =
    let g = grid () in
    let s = R.chase ~governor ~stop Separating.Tbox.rules g in
    (row s, GG.size g)
  in
  let same what expected got =
    check what true (expected = got)
  in
  same "seminaive max_facts"
    ((6, 182, 320, G.Budget G.Facts), 382)
    (chase (G.make ~max_facts:300 ()));
  same "seminaive max_elems"
    ((7, 230, 412, G.Budget G.Elems), 478)
    (chase (G.make ~max_elems:200 ()));
  same "seminaive pre-tripped cancel"
    ((0, 0, 0, G.Cancelled), 18)
    (chase (G.make ~cancel:c ()));
  same "seminaive stop"
    ((5, 138, 234, G.Budget G.Stop), 294)
    (chase ~stop G.unlimited);
  same "seminaive stop under stage fuel"
    ((4, 96, 156, G.Budget G.Stages), 210)
    (chase ~stop (G.make ~max_stages:4 ()));
  let deps = Greengraph.Bridge.tgds_of_rules Separating.Tbox.rules in
  let trow (s : Tgd.Chase.stats) =
    Tgd.Chase.(s.stages, s.applications, s.triggers_considered, s.outcome)
  in
  List.iter
    (fun (name, governor, first) ->
      let t, s =
        Tgd.Chase.Maint.create ~governor deps
          (Greengraph.Bridge.to_structure (grid ()))
      in
      same ("maint " ^ name) first (trow s);
      check ("maint " ^ name ^ " pending") true (Tgd.Chase.Maint.pending t);
      let s = Tgd.Chase.Maint.continue_ t in
      same ("maint " ^ name ^ " continued") (18, 490, 980, G.Fixpoint) (trow s);
      check ("maint " ^ name ^ " settled") false (Tgd.Chase.Maint.pending t);
      check_int ("maint " ^ name ^ " edges") 998
        (Structure.size (Tgd.Chase.Maint.structure t)))
    [
      ("max_facts", G.make ~max_facts:300 (), (6, 182, 320, G.Budget G.Facts));
      ("pre-tripped cancel", G.make ~cancel:c (), (0, 0, 0, G.Cancelled));
      ("stage fuel", G.make ~max_stages:4 (), (4, 96, 156, G.Budget G.Stages));
    ]

(* --- run-until-k + resume ≡ uninterrupted ------------------------------- *)

let record () =
  let firings = ref [] in
  let on_fire ~stage dep fb =
    firings := (stage, Tgd.Dep.name dep, Term.Var_map.bindings fb) :: !firings
  in
  (firings, on_fire)

let test_e10_resume_bit_identical () =
  List.iter
    (fun engine ->
      let name = Format.asprintf "%a" Tgd.Chase.pp_engine engine in
      let full_fs, on_fire = record () in
      let full_stats, full = run_e10 ~on_fire ~max_stages:6 engine in
      List.iter
        (fun k ->
          let fs, on_fire = record () in
          let d = e10_seed () in
          let snap = ref None in
          let _ =
            Tgd.Chase.run ~engine ~on_fire ~max_stages:k ~snapshot_every:1
              ~on_snapshot:(fun s -> snap := Some s)
              (e10_deps ()) d
          in
          let snap = CK.clone (Option.get !snap) in
          let stats, d' =
            Tgd.Chase.resume ~on_fire ~max_stages:6 (e10_deps ()) snap
          in
          check
            (Printf.sprintf "%s k=%d: journal identical after resume" name k)
            true
            (Structure.delta_since d' 0 = Structure.delta_since full 0);
          check
            (Printf.sprintf "%s k=%d: firing sequence identical" name k)
            true (!fs = !full_fs);
          check
            (Printf.sprintf "%s k=%d: stats identical" name k)
            true (stats = full_stats))
        [ 1; 2; 3; 5 ])
    [ `Seminaive; `Oblivious ]

let test_e10_resume_through_file () =
  List.iter
    (fun engine ->
      let name = Format.asprintf "%a" Tgd.Chase.pp_engine engine in
      let full_stats, full = run_e10 ~max_stages:6 engine in
      with_tmp (fun path ->
          let d = e10_seed () in
          let _ =
            Tgd.Chase.run ~engine ~max_stages:3 ~snapshot_every:1
              ~on_snapshot:(fun s ->
                match CK.save ~kind:"tgd-chase" path s with
                | Ok () -> ()
                | Error m -> Alcotest.failf "checkpoint write failed: %s" m)
              (e10_deps ()) d
          in
          match
            (CK.load ~kind:"tgd-chase" path
              : (Tgd.Chase.snapshot, string) result)
          with
          | Error m -> Alcotest.failf "checkpoint load failed: %s" m
          | Ok snap ->
              let stats, d' =
                Tgd.Chase.resume ~max_stages:6 (e10_deps ()) snap
              in
              check (name ^ ": journal identical through the file") true
                (Structure.delta_since d' 0 = Structure.delta_since full 0);
              check (name ^ ": stats identical through the file") true
                (stats = full_stats)))
    [ `Seminaive; `Oblivious ]

let test_resume_rejects_other_deps () =
  let d = e10_seed () in
  let snap = ref None in
  let _ =
    Tgd.Chase.run ~engine:`Seminaive ~max_stages:2 ~snapshot_every:1
      ~on_snapshot:(fun s -> snap := Some s)
      (e10_deps ()) d
  in
  let other = Tgd.Dep.t_q [ ("p2", path_query 2) ] in
  check "resume with different deps raises" true
    (try
       ignore (Tgd.Chase.resume ~max_stages:6 other (Option.get !snap));
       false
     with Invalid_argument _ -> true)

(* --- the campaign ------------------------------------------------------- *)

let test_campaign_clean () =
  let r = Oracle.Fault.run_campaign ~seed:11 ~cases:30 () in
  check_int "no silent corruption" 0 (List.length r.Oracle.Fault.corruptions);
  check "faults were injected" true (r.Oracle.Fault.injected > 0);
  check "some runs recovered bit-identically" true
    (r.Oracle.Fault.recovered > 0);
  check "checkpoint round-trips verified" true
    (r.Oracle.Fault.checkpoint_roundtrips > 0);
  check "torn writes observed and survived" true
    (r.Oracle.Fault.checkpoint_write_faults > 0)

let () =
  Alcotest.run "resilience"
    [
      ( "governor",
        [
          Alcotest.test_case "basics" `Quick test_governor_basics;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "cancel polling" `Quick test_cancel_polling;
          Alcotest.test_case "run_stages" `Quick test_run_stages;
        ] );
      ( "failpoints",
        [
          Alcotest.test_case "determinism" `Quick test_failpoint_determinism;
          Alcotest.test_case "spec parsing" `Quick test_failpoint_spec;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "truncation" `Quick test_checkpoint_truncation;
          Alcotest.test_case "torn write" `Quick test_checkpoint_torn_write;
          Alcotest.test_case "stale temp" `Quick test_checkpoint_stale_tmp;
          Alcotest.test_case "bad header length" `Quick
            test_checkpoint_bad_length;
          Alcotest.test_case "concurrent save" `Quick
            test_checkpoint_concurrent_save;
          Alcotest.test_case "v1 format refused" `Quick
            test_checkpoint_v1_refused;
          Alcotest.test_case "clone keeps symbol buckets apart" `Quick
            test_clone_symbol_buckets;
        ] );
      ( "governed chase",
        [
          Alcotest.test_case "prefix bit-identity" `Quick test_governed_prefix;
          Alcotest.test_case "cancelled before start" `Quick
            test_cancelled_before_start;
          Alcotest.test_case "arena fault reported" `Quick
            test_arena_fault_reported;
          Alcotest.test_case "par fault bit-identical" `Quick
            test_par_fault_bit_identical;
          Alcotest.test_case "graph stage loop rows" `Quick
            test_graph_stage_loop_rows;
          Alcotest.test_case "maint continues a faulted run" `Quick
            test_maint_continues_faulted_run;
        ] );
      ( "resume",
        [
          Alcotest.test_case "E10 run-until-k" `Quick
            test_e10_resume_bit_identical;
          Alcotest.test_case "E10 through a file" `Quick
            test_e10_resume_through_file;
          Alcotest.test_case "deps signature check" `Quick
            test_resume_rejects_other_deps;
        ] );
      ( "campaign",
        [ Alcotest.test_case "30 cases, 0 corruptions" `Quick test_campaign_clean ] );
    ]
