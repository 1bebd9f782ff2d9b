(* redspiderd: the wire JSON codec, job manifests, the on-disk store,
   and a live daemon — submit/wait round-trips, quantum preemption with
   bit-identical resume, concurrent clients, graceful drain, and
   daemon-restart recovery from the job store. *)

open Serve

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- json --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\te\x01f");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ]);
      ]
  in
  check "print/parse round-trips" true (Json.parse (Json.to_string v) = Ok v);
  check "unicode escape decodes to UTF-8" true
    (Json.parse {|"éA"|} = Ok (Json.String "\xc3\xa9A"));
  check "whitespace tolerated" true
    (Json.parse " { \"a\" : [ 1 , 2 ] } "
    = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
  check "trailing garbage rejected" true
    (match Json.parse "{} x" with Error _ -> true | Ok _ -> false);
  check "truncated rejected" true
    (match Json.parse "{\"a\": [1," with Error _ -> true | Ok _ -> false);
  check "floats survive" true
    (match Json.parse "[0.25, 2e3]" with
    | Ok (Json.List [ Json.Float a; Json.Float b ]) -> a = 0.25 && b = 2000.
    | _ -> false)

let test_json_surrogates () =
  (* a surrogate pair decodes to ONE 4-byte UTF-8 code point (U+1F600),
     not to two 3-byte encodings of the surrogate halves *)
  check "surrogate pair recombines" true
    (Json.parse {|"\ud83d\ude00"|} = Ok (Json.String "\xf0\x9f\x98\x80"));
  check "first astral scalar U+10000 decodes" true
    (Json.parse {|"\ud800\udc00"|} = Ok (Json.String "\xf0\x90\x80\x80"));
  check "last scalar U+10FFFF decodes" true
    (Json.parse {|"\udbff\udfff"|} = Ok (Json.String "\xf4\x8f\xbf\xbf"));
  (* the printer passes raw UTF-8 through, so parse·print·parse is the
     identity on non-BMP text *)
  let v = Json.Obj [ ("emoji", Json.String "\xf0\x9f\x98\x80 ok") ] in
  check "non-BMP print/parse round-trips" true
    (Json.parse (Json.to_string v) = Ok v);
  (* surrogate halves on their own are malformed JSON *)
  List.iter
    (fun s ->
      check (Printf.sprintf "%s rejected" s) true
        (match Json.parse s with Error _ -> true | Ok _ -> false))
    [
      {|"\ud83d"|} (* lone high *);
      {|"\ude00"|} (* lone low *);
      {|"\ud83dx"|} (* high chased by a raw char *);
      {|"\ud83d\n"|} (* high chased by a non-u escape *);
      {|"\ud83d\ud83d"|} (* high chased by another high *);
      {|"\ud83dA"|} (* high chased by a BMP scalar *);
    ]

let divergent_views =
  [
    ("p2", "p2(x,y) :- E(x,m), E(m,y)");
    ("p3", "p3(x,y) :- E(x,m), E(m,n), E(n,y)");
  ]

let divergent_q0 = "q0(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y)"

let divergent_spec stages =
  Job.Chase
    { views = divergent_views; q0 = divergent_q0; max_stages = stages;
      engine = `Seminaive }

(* [spec] on the wire, with its engine field naming [name] *)
let json_naming_engine name spec =
  match Job.spec_to_json spec with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (function "engine", _ -> ("engine", Json.String name) | f -> f)
           fields)
  | j -> j

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let counter = ref 0

let fresh_dir () =
  incr counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "redspider-test-store-%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf d;
  d

(* Run [job] to a terminal state through [Runner.run_slice] in a private
   store, as a daemon worker does but with no cache in front; [between]
   sees the store and the job after every slice that left it
   unfinished.  Returns the result digest. *)
let run_uncached ?(quantum = 1_000_000) ?(between = fun _ _ -> ()) spec =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Store.open_ dir in
      let job = Job.make ~seq:1 spec in
      let quantum = { Runner.stages = quantum; seconds = 0. } in
      let instances = Runner.instances () in
      let rec go () =
        Runner.run_slice ~store ~instances
          ~cancel:Resilience.Governor.Cancel.never ~quantum job;
        if not (Job.terminal job) then begin
          between store job;
          go ()
        end
      in
      go ();
      match job.Job.state with
      | Job.Done r -> (job, r.Job.digest)
      | st -> Alcotest.failf "uncached run ended %s" (Job.state_name st))

let test_spec_roundtrip () =
  let specs =
    [
      divergent_spec 9;
      Job.Determinacy
        { views = divergent_views; q0 = divergent_q0; max_stages = 16;
          engine = `Oblivious };
      Job.Worm { machine = "creeper"; steps = 77 };
      Job.Audit { seed = 5; cases = 12; max_stages = 3; family = "incr"; from_case = 4 };
      Job.Mutate
        {
          instance = "i1";
          views = divergent_views;
          q0 = divergent_q0;
          ops =
            [
              { Job.add = false; rel = "E"; args = [ 0; 1 ] };
              { Job.add = true; rel = "E"; args = [ 4; -1 ] };
            ];
          max_stages = 16;
          engine = `Seminaive;
        };
    ]
  in
  List.iter
    (fun spec ->
      check "spec json round-trips" true
        (Job.spec_of_json (Job.spec_to_json spec) = Ok spec))
    specs;
  (* [stage] and [par] are aliases of [seminaive]: the same spec, so the
     same cache key and the same result digest *)
  let seminaive_digest = snd (run_uncached (divergent_spec 9)) in
  List.iter
    (fun name ->
      match Job.spec_of_json (json_naming_engine name (divergent_spec 9)) with
      | Error m -> Alcotest.failf "a spec naming the %s engine: %s" name m
      | Ok spec ->
          check
            (Printf.sprintf "a spec naming the %s engine runs seminaive" name)
            true
            (spec = divergent_spec 9);
          check
            (Printf.sprintf "a %s spec keys with its seminaive twin" name)
            true
            (Job.cache_class spec = Job.cache_class (divergent_spec 9));
          check_str
            (Printf.sprintf "a %s spec digests as its seminaive twin" name)
            seminaive_digest
            (snd (run_uncached spec)))
    [ "stage"; "par" ];
  check "unknown kind rejected" true
    (match Job.spec_of_json (Json.Obj [ ("kind", Json.String "frobnicate") ]) with
    | Error _ -> true
    | Ok _ -> false);
  check "malformed rule rejected at validate" true
    (match
       Job.validate
         (Job.Chase
            { views = [ ("v", "not a rule") ]; q0 = divergent_q0;
              max_stages = 4; engine = `Seminaive })
     with
    | Error _ -> true
    | Ok () -> false);
  check "unknown machine rejected at validate" true
    (match Job.validate (Job.Worm { machine = "nope"; steps = 5 }) with
    | Error _ -> true
    | Ok () -> false);
  check "anonymous mutate instance rejected at validate" true
    (match
       Job.validate
         (Job.Mutate
            { instance = ""; views = divergent_views; q0 = divergent_q0;
              ops = []; max_stages = 4; engine = `Seminaive })
     with
    | Error _ -> true
    | Ok () -> false);
  check "non-incremental mutate engine rejected at validate" true
    (match
       Job.validate
         (Job.Mutate
            { instance = "i"; views = divergent_views; q0 = divergent_q0;
              ops = []; max_stages = 4; engine = `Oblivious })
     with
    | Error _ -> true
    | Ok () -> false)

let test_manifest_roundtrip () =
  let job = Job.make ~seq:7 ~quantum:2 (divergent_spec 9) in
  job.Job.state <-
    Job.Done
      {
        Job.outcome = "fixpoint";
        exit_code = 0;
        digest = "abc";
        detail = [ ("stages", Json.Int 3) ];
      };
  job.Job.slices <- 4;
  job.Job.stages_done <- 9;
  job.Job.applications <- 123;
  match Job.manifest_of_json (Job.manifest_json job) with
  | Error m -> Alcotest.failf "manifest: %s" m
  | Ok j' ->
      check_str "id survives" job.Job.id j'.Job.id;
      check_int "seq survives" job.Job.seq j'.Job.seq;
      check "spec survives" true (j'.Job.spec = job.Job.spec);
      check "state survives" true (j'.Job.state = job.Job.state);
      check_int "slices survive" job.Job.slices j'.Job.slices;
      check_int "stages survive" job.Job.stages_done j'.Job.stages_done;
      check "quantum override survives" true
        (j'.Job.quantum_override = Some 2)

(* --- store -------------------------------------------------------------- *)

let test_store_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Store.open_ dir in
      let mk seq spec = Job.make ~seq spec in
      let jobs =
        [
          mk 2 (Job.Worm { machine = "creeper"; steps = 10 });
          mk 1 (divergent_spec 9);
          mk 3 (Job.Audit { seed = 1; cases = 2; max_stages = 2; family = "audit"; from_case = 0 });
        ]
      in
      List.iter
        (fun j ->
          check "manifest saved" true (Store.save_manifest store j = Ok ()))
        jobs;
      (* one corrupt manifest must not take recovery down *)
      Out_channel.with_open_bin (Filename.concat dir "zz9999.job") (fun oc ->
          Out_channel.output_string oc "{ not json");
      let loaded, bad = Store.load_all store in
      check_int "all good manifests load" 3 (List.length loaded);
      check_int "the corrupt one is reported" 1 (List.length bad);
      check "sorted by seq" true
        (List.map (fun (j : Job.t) -> j.Job.seq) loaded = [ 1; 2; 3 ]);
      check_int "next_seq is max+1" 4 (Store.next_seq loaded);
      check "no checkpoint yet" false (Store.has_checkpoint store "j000001");
      Store.remove_checkpoint store "j000001" (* no-op, must not raise *);
      (* the orphan sweep: a checkpoint without a live owner goes, one
         with a live owner stays *)
      let plant id =
        Out_channel.with_open_bin (Store.ckpt_path store id) (fun oc ->
            Out_channel.output_string oc "snapshot bytes")
      in
      plant "j000001";
      plant "j999999" (* no manifest at all *);
      let swept =
        List.sort compare
          (Store.sweep_checkpoints store ~keep:(fun id -> id = "j000001"))
      in
      check "only the orphan is swept" true (swept = [ "j999999" ]);
      check "kept checkpoint survives the sweep" true
        (Store.has_checkpoint store "j000001");
      check "orphan checkpoint is gone" false
        (Store.has_checkpoint store "j999999"))

(* --- live daemon harness ------------------------------------------------ *)

let fresh_socket () =
  incr counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "rs-t-%d-%d.sock" (Unix.getpid ()) !counter)

let start_daemon ~socket ~store_dir ~workers ~quantum ?(cache = 512)
    ?(cache_persist = true) ?(read_deadline_s = 60.) ?(max_frame = 1 lsl 20)
    () =
  let cfg =
    {
      Server.socket;
      tcp_port = None;
      workers;
      quantum = { Runner.stages = quantum; seconds = 0. };
      store_dir;
      cache_capacity = cache;
      cache_persist;
      read_deadline_s;
      max_frame;
      log = false;
    }
  in
  let d = Domain.spawn (fun () -> Server.serve cfg) in
  let rec await n =
    if not (Sys.file_exists socket) then
      if n = 0 then Alcotest.fail "daemon did not come up"
      else begin
        Unix.sleepf 0.02;
        await (n - 1)
      end
  in
  await 250;
  d

let connect socket =
  match Client.connect ~socket () with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let drain_and_join socket daemon =
  (match Client.connect ~socket () with
  | Ok c ->
      ignore (Client.drain c);
      Client.close c
  | Error _ -> ());
  Domain.join daemon

let with_daemon ?(workers = 2) ?(quantum = 2) ?(cache = 512) ?store_dir f =
  let socket = fresh_socket () in
  let store_dir = match store_dir with Some d -> d | None -> fresh_dir () in
  let daemon = start_daemon ~socket ~store_dir ~workers ~quantum ~cache () in
  Fun.protect
    ~finally:(fun () ->
      drain_and_join socket daemon;
      rm_rf store_dir)
    (fun () -> f socket)

let ok_or_fail what = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" what m

let job_field j k = Json.mem_str k j
let job_int j k = Option.value ~default:(-1) (Json.mem_int k j)

let job_digest j =
  Option.value ~default:""
    (Option.bind (Json.member "result" j) (Json.mem_str "digest"))

(* The uninterrupted governed reference run, in-process. *)
let uninterrupted ?(engine = `Seminaive) stages =
  let views, q0 =
    ok_or_fail "parse" (Job.parse_rules divergent_views divergent_q0)
  in
  let deps = Tgd.Dep.t_q views in
  let d = fst (Tgd.Greenred.green_canonical q0) in
  let stats = Tgd.Chase.run ~engine ~max_stages:stages deps d in
  (stats, Job.structure_digest d)

(* --- live tests --------------------------------------------------------- *)

let test_submit_wait () =
  with_daemon (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          ignore (ok_or_fail "ping" (Client.ping conn));
          let worm =
            ok_or_fail "submit worm"
              (Client.submit conn (Job.Worm { machine = "halt-now"; steps = 50 }))
          in
          let audit =
            ok_or_fail "submit audit"
              (Client.submit conn (Job.Audit { seed = 42; cases = 5; max_stages = 3; family = "audit"; from_case = 0 }))
          in
          let jw = ok_or_fail "wait worm" (Client.wait_terminal conn worm) in
          let ja = ok_or_fail "wait audit" (Client.wait_terminal conn audit) in
          check "worm done" true (job_field jw "state" = Some "done");
          check "worm halted at fixpoint" true
            (Option.bind (Json.member "result" jw) (Json.mem_str "outcome")
            = Some "fixpoint");
          check "audit done" true (job_field ja "state" = Some "done");
          let stats = ok_or_fail "stats" (Client.stats conn) in
          check "stats counts jobs" true
            (Option.bind (Json.member "counts" stats) (Json.mem_int "done")
            = Some 2);
          check "stats carries metrics" true
            (Json.member "metrics" stats <> None);
          (* submit-side validation is synchronous *)
          check "bad rule refused at submit" true
            (match
               Client.submit conn
                 (Job.Chase
                    { views = [ ("v", "nonsense") ]; q0 = divergent_q0;
                      max_stages = 4; engine = `Seminaive })
             with
            | Error _ -> true
            | Ok _ -> false)))

let test_preemption_bit_identity () =
  let stages = 9 in
  let ref_stats, ref_digest = uninterrupted stages in
  with_daemon ~workers:2 ~quantum:2 (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let id =
            ok_or_fail "submit" (Client.submit conn (divergent_spec stages))
          in
          (* short jobs keep completing around the preempted chase *)
          let shorts =
            List.init 3 (fun _ ->
                ok_or_fail "submit short"
                  (Client.submit conn (Job.Worm { machine = "halt-now"; steps = 50 })))
          in
          let j = ok_or_fail "wait" (Client.wait_terminal conn id) in
          check "divergent job done" true (job_field j "state" = Some "done");
          check "preempted into several slices" true (job_int j "slices" >= 3);
          check_int "all stages ran" stages (job_int j "stages_done");
          check_str "resumed structure digest = uninterrupted digest"
            ref_digest (job_digest j);
          check_int "applications agree with the uninterrupted run"
            ref_stats.Tgd.Chase.applications
            (job_int j "applications");
          (* the three shorts are identical submissions: exactly one
             executes (one slice); the others are answered by the cache
             — coalesced behind it or served from its entry — at zero
             slices, with the identical result *)
          let short_digests =
            List.map
              (fun sid ->
                let js =
                  ok_or_fail "wait short" (Client.wait_terminal conn sid)
                in
                check "short job done" true (job_field js "state" = Some "done");
                check "short job took at most one slice" true
                  (job_int js "slices" <= 1);
                job_digest js)
              shorts
          in
          (match short_digests with
          | d :: rest ->
              check "duplicate shorts all carry the identical digest" true
                (List.for_all (String.equal d) rest)
          | [] -> ())))

(* The semi-oblivious chase suspends like the lazy one: a checkpoint
   between every pair of slices, and a finished digest equal to the
   uninterrupted run's. *)
let test_oblivious_checkpoints () =
  let stages = 4 in
  let ref_stats, ref_digest = uninterrupted ~engine:`Oblivious stages in
  let between store (job : Job.t) =
    check "suspended, not requeued" true (job.Job.state = Job.Suspended);
    check "checkpoint left between slices" true
      (Store.has_checkpoint store job.Job.id)
  in
  let job, digest =
    run_uncached ~quantum:1 ~between
      (Job.Chase
         { views = divergent_views; q0 = divergent_q0; max_stages = stages;
           engine = `Oblivious })
  in
  check_int "one slice per stage" stages job.Job.slices;
  check_int "applications agree with the uninterrupted run"
    ref_stats.Tgd.Chase.applications job.Job.applications;
  check_str "resumed digest = uninterrupted digest" ref_digest digest

let test_concurrent_clients () =
  with_daemon ~workers:4 ~quantum:2 (fun socket ->
      let session i =
        let conn = connect socket in
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            let spec =
              if i mod 2 = 0 then Job.Worm { machine = "creeper"; steps = 60 }
              else
                Job.Chase
                  { views = [ ("p2", "p2(x,y) :- E(x,m), E(m,y)") ];
                    q0 = "q0(x,y) :- E(x,a), E(a,b), E(b,y)";
                    max_stages = 8; engine = `Seminaive }
            in
            let id = ok_or_fail "submit" (Client.submit conn spec) in
            let j = ok_or_fail "wait" (Client.wait_terminal conn id) in
            job_field j "state" = Some "done")
      in
      let doms = Array.init 8 (fun i -> Domain.spawn (fun () -> session i)) in
      let oks = Array.map Domain.join doms in
      check "8 concurrent clients all served" true
        (Array.for_all (fun b -> b) oks))

let test_drain_restart_recovery () =
  let stages = 12 in
  let _, ref_digest = uninterrupted stages in
  let store_dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf store_dir)
    (fun () ->
      (* first daemon: get the divergent job preempted at least once,
         then drain mid-job *)
      let socket = fresh_socket () in
      let daemon =
        start_daemon ~socket ~store_dir ~workers:2 ~quantum:1 ()
      in
      let conn = connect socket in
      let id = ok_or_fail "submit" (Client.submit conn (divergent_spec stages)) in
      let rec await_progress n =
        if n = 0 then Alcotest.fail "job never progressed"
        else
          let j =
            ok_or_fail "status"
              (Result.bind (Client.status conn id) Client.job_of_reply)
          in
          if job_int j "slices" < 1 then begin
            Unix.sleepf 0.02;
            await_progress (n - 1)
          end
      in
      await_progress 500;
      ignore (ok_or_fail "drain" (Client.drain conn));
      Client.close conn;
      Domain.join daemon;
      check "socket removed on drain" false (Sys.file_exists socket);
      (* the job survived as durable state *)
      let store = Store.open_ store_dir in
      let loaded, bad = Store.load_all store in
      check_int "no manifest corrupted by drain" 0 (List.length bad);
      check "job manifest persisted" true
        (List.exists (fun (j : Job.t) -> j.Job.id = id) loaded);
      let persisted =
        List.find (fun (j : Job.t) -> j.Job.id = id) loaded
      in
      check "job is resumable, not terminal" false (Job.terminal persisted);
      (* second daemon on the same store finishes it *)
      let socket2 = fresh_socket () in
      let daemon2 =
        start_daemon ~socket:socket2 ~store_dir ~workers:2 ~quantum:4 ()
      in
      Fun.protect
        ~finally:(fun () -> drain_and_join socket2 daemon2)
        (fun () ->
          let conn2 = connect socket2 in
          Fun.protect
            ~finally:(fun () -> Client.close conn2)
            (fun () ->
              let j = ok_or_fail "wait" (Client.wait_terminal conn2 id) in
              check "recovered job completes" true
                (job_field j "state" = Some "done");
              check_int "absolute stage count preserved" stages
                (job_int j "stages_done");
              check_str "digest across daemon restart = uninterrupted"
                ref_digest (job_digest j)));
      (* the suspend checkpoint must not outlive the finished job: after
         the second daemon completed it and drained, the store holds
         manifests only *)
      let leaked =
        List.filter
          (fun f -> Filename.check_suffix f ".ckpt")
          (Array.to_list (Sys.readdir store_dir))
      in
      check_int "no checkpoint leaked across drain + restart + completion" 0
        (List.length leaked))

(* --- mutate jobs -------------------------------------------------------- *)

(* A terminating multi-stage workload: composing the path views makes the
   initial chase take several stages, so a 1-stage quantum preempts it. *)
let mutate_views =
  [
    ("p2", "p2(x,y) :- E(x,m), E(m,y)");
    ("p4", "p4(x,y) :- p2(x,m), p2(m,y)");
  ]

let mutate_q0 = "q0(x,y) :- E(x,a), E(a,b), E(b,c), E(c,y)"

let mutate_spec ~instance ops =
  Job.Mutate
    { instance; views = mutate_views; q0 = mutate_q0; ops; max_stages = 64;
      engine = `Seminaive }

let test_mutate_jobs () =
  (* the in-process reference: the same maintained instance, the same
     edits in submission order — the daemon result must be bit-identical
     (same digest), because the maintenance path is deterministic *)
  let views, q0 = ok_or_fail "parse" (Job.parse_rules mutate_views mutate_q0) in
  let deps = Tgd.Dep.t_q views in
  let base = fst (Tgd.Greenred.green_canonical q0) in
  let m, _ = Tgd.Chase.Maint.create deps base in
  let ge = Relational.Symbol.make ~color:Relational.Symbol.Green "E" 2 in
  let edge =
    List.hd
      (List.sort Relational.Fact.compare
         (Relational.Structure.facts_with_sym (Tgd.Chase.Maint.structure m) ge))
  in
  let a = (Relational.Fact.args edge).(0)
  and b = (Relational.Fact.args edge).(1) in
  let digest_after ops =
    ignore (Tgd.Chase.Maint.apply_edit m ops);
    check "reference maintenance is at fixpoint" false
      (Tgd.Chase.Maint.pending m);
    Job.structure_digest (Tgd.Chase.Maint.structure m)
  in
  let d1 = digest_after [ Tgd.Chase.Maint.Retract edge ] in
  let d2 = digest_after [ Tgd.Chase.Maint.Insert edge ] in
  with_daemon ~workers:2 ~quantum:1 (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* both jobs drive the same held instance; the scheduler must
             serialize them in submission order even with 2 workers *)
          let j1 =
            ok_or_fail "submit mutate 1"
              (Client.submit conn
                 (mutate_spec ~instance:"i1"
                    [ { Job.add = false; rel = "E"; args = [ a; b ] } ]))
          in
          let j2 =
            ok_or_fail "submit mutate 2"
              (Client.submit conn
                 (mutate_spec ~instance:"i1"
                    [ { Job.add = true; rel = "E"; args = [ a; b ] } ]))
          in
          let r1 = ok_or_fail "wait mutate 1" (Client.wait_terminal conn j1) in
          let r2 = ok_or_fail "wait mutate 2" (Client.wait_terminal conn j2) in
          check "mutate 1 done" true (job_field r1 "state" = Some "done");
          check "mutate 2 done" true (job_field r2 "state" = Some "done");
          let applied r =
            Option.bind (Json.member "result" r) (Json.mem_bool "applied")
          in
          check "edit 1 went through the maintenance path" true
            (applied r1 = Some true);
          check "edit 2 went through the maintenance path" true
            (applied r2 = Some true);
          (* quantum 1 on a multi-stage initial chase: preempted, and the
             suspended state lived in daemon memory, not in a .ckpt *)
          check "first mutate preempted into several slices" true
            (job_int r1 "slices" >= 2);
          check_str "maintained digest after edit 1 = reference"
            d1 (job_digest r1);
          check_str "maintained digest after edit 2 = reference"
            d2 (job_digest r2);
          (* the second job rode the held instance: its stage counter
             continues the instance's absolute numbering instead of
             restarting at a fresh create (and its digest above encodes
             job 1's retraction in the journal history, which a
             re-chase from scratch could not reproduce) *)
          check "second mutate continued the held instance's stages" true
            (job_int r2 "stages_done" >= job_int r1 "stages_done")))

(* --- result cache ------------------------------------------------------- *)

let cache_int stats k =
  Option.value ~default:(-1)
    (Option.bind (Json.member "cache" stats) (Json.mem_int k))

let test_cache_hit_and_coalesce () =
  let stages = 9 in
  let ref_stats, ref_digest = uninterrupted stages in
  with_daemon ~workers:2 ~quantum:2 (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* one pipelined batch of identical chases: one primary
             executes (preempted several times at quantum 2), the rest
             coalesce behind it or hit its entry — all four must carry
             the bit-identical result *)
          let ids =
            ok_or_fail "submit batch"
              (Client.submit_many conn
                 (List.init 4 (fun _ -> divergent_spec stages)))
          in
          let js =
            List.map
              (fun id -> ok_or_fail "wait" (Client.wait_terminal conn id))
              ids
          in
          List.iter
            (fun j ->
              check "duplicate done" true (job_field j "state" = Some "done");
              check_str "digest = uninterrupted reference" ref_digest
                (job_digest j);
              check_int "stage counter replayed" stages (job_int j "stages_done");
              check_int "applications replayed"
                ref_stats.Tgd.Chase.applications
                (job_int j "applications"))
            js;
          let executed = List.filter (fun j -> job_int j "slices" > 0) js in
          check_int "exactly one of four duplicates executed" 1
            (List.length executed);
          check "the one that executed was preempted" true
            (List.for_all (fun j -> job_int j "slices" >= 3) executed);
          let stats = ok_or_fail "stats" (Client.stats conn) in
          check "at least the primary missed" true (cache_int stats "misses" >= 1);
          check_int "three duplicates answered without running" 3
            (cache_int stats "hits" + cache_int stats "coalesced");
          check "entry table populated" true (cache_int stats "entries" >= 1);
          (* a spec naming [par] runs [`Seminaive], so it is served by
             the [`Seminaive] entry *)
          let id_par =
            let spec =
              json_naming_engine "par"
                (Job.Chase
                   { views = divergent_views; q0 = divergent_q0;
                     max_stages = stages; engine = `Seminaive })
            in
            ok_or_fail "submit par duplicate"
              (Result.bind
                 (Client.request_ok conn (Client.op "submit" [ ("spec", spec) ]))
                 (fun reply ->
                   Option.to_result ~none:"submit reply carried no id"
                     (Json.mem_str "id" reply)))
          in
          let j_par =
            ok_or_fail "wait par duplicate" (Client.wait_terminal conn id_par)
          in
          check_int "cross-engine duplicate served at zero slices" 0
            (job_int j_par "slices");
          check_str "cross-engine duplicate digest identical" ref_digest
            (job_digest j_par)))

(* The semi-oblivious chase builds another structure than the lazy
   engines, so its jobs key apart: each kind runs lazily first, then as
   an oblivious duplicate that must miss and carry its own result. *)
let test_cache_engine_classes () =
  with_daemon ~workers:2 ~quantum:2 (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let run spec =
            let id = ok_or_fail "submit" (Client.submit conn spec) in
            let j = ok_or_fail "wait" (Client.wait_terminal conn id) in
            check "job done" true (job_field j "state" = Some "done");
            j
          in
          List.iter
            (fun (kind, spec) ->
              ignore (run (spec `Seminaive));
              let j = run (spec `Oblivious) in
              check (kind ^ ": oblivious duplicate missed the cache") true
                (job_int j "slices" >= 1);
              check_str
                (kind ^ ": digest = uncached oblivious run")
                (snd (run_uncached (spec `Oblivious)))
                (job_digest j))
            [
              ( "chase",
                fun engine ->
                  Job.Chase
                    { views = divergent_views; q0 = divergent_q0;
                      max_stages = 4; engine } );
              ( "determinacy",
                fun engine ->
                  Job.Determinacy
                    { views = divergent_views; q0 = divergent_q0;
                      max_stages = 4; engine } );
            ]))

let test_mutate_read_invalidation () =
  (* pick a base edge of the canonical instance, exactly as the daemon
     will build it (bit-identity makes the element ids line up) *)
  let views, q0 = ok_or_fail "parse" (Job.parse_rules mutate_views mutate_q0) in
  let deps = Tgd.Dep.t_q views in
  let base = fst (Tgd.Greenred.green_canonical q0) in
  let m, _ = Tgd.Chase.Maint.create deps base in
  let ge = Relational.Symbol.make ~color:Relational.Symbol.Green "E" 2 in
  let edge =
    List.hd
      (List.sort Relational.Fact.compare
         (Relational.Structure.facts_with_sym (Tgd.Chase.Maint.structure m) ge))
  in
  let a = (Relational.Fact.args edge).(0)
  and b = (Relational.Fact.args edge).(1) in
  with_daemon ~workers:2 ~quantum:4 (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let run spec =
            let id = ok_or_fail "submit" (Client.submit conn spec) in
            let j = ok_or_fail "wait" (Client.wait_terminal conn id) in
            check "job done" true (job_field j "state" = Some "done");
            j
          in
          let read = mutate_spec ~instance:"m" [] in
          let r0 = run read in
          let d0 = job_digest r0 in
          check "first read executed" true (job_int r0 "slices" >= 1);
          (* identical read, instance untouched: cache hit *)
          let r1 = run read in
          check_int "unedited re-read served at zero slices" 0
            (job_int r1 "slices");
          check_str "unedited re-read digest identical" d0 (job_digest r1);
          (* commit an edit: the instance version moves on *)
          let re =
            run
              (mutate_spec ~instance:"m"
                 [ { Job.add = false; rel = "E"; args = [ a; b ] } ])
          in
          check "edit went through the maintenance path" true
            (Option.bind (Json.member "result" re) (Json.mem_bool "applied")
            = Some true);
          (* the same read after the edit must MISS — never the stale
             digest — and observe the retraction in the journal *)
          let r2 = run read in
          check "post-edit re-read executed (stale entry not served)" true
            (job_int r2 "slices" >= 1);
          check "post-edit digest differs from the stale entry" true
            (job_digest r2 <> d0)))

let test_cache_persistence_restart () =
  let stages = 12 in
  let _, ref_digest = uninterrupted stages in
  let store_dir = fresh_dir () in
  let res_count () =
    List.length
      (List.filter
         (fun f -> Filename.check_suffix f ".res")
         (Array.to_list (Sys.readdir store_dir)))
  in
  Fun.protect
    ~finally:(fun () -> rm_rf store_dir)
    (fun () ->
      (* daemon 1: a finished worm persists its entry; a duplicate chase
         pair is drained with the primary suspended mid-flight and the
         follower still parked *)
      let socket = fresh_socket () in
      let daemon = start_daemon ~socket ~store_dir ~workers:2 ~quantum:1 () in
      let conn = connect socket in
      let worm_spec = Job.Worm { machine = "halt-now"; steps = 50 } in
      let wid = ok_or_fail "submit worm" (Client.submit conn worm_spec) in
      let jw = ok_or_fail "wait worm" (Client.wait_terminal conn wid) in
      check "worm done before drain" true (job_field jw "state" = Some "done");
      let worm_digest = job_digest jw in
      let ids =
        ok_or_fail "submit duplicate chases"
          (Client.submit_many conn (List.init 2 (fun _ -> divergent_spec stages)))
      in
      let primary_id = List.hd ids in
      let rec await_progress n =
        if n = 0 then Alcotest.fail "chase never progressed"
        else
          let j =
            ok_or_fail "status"
              (Result.bind (Client.status conn primary_id) Client.job_of_reply)
          in
          if job_int j "slices" < 1 then begin
            Unix.sleepf 0.02;
            await_progress (n - 1)
          end
      in
      await_progress 500;
      ignore (ok_or_fail "drain" (Client.drain conn));
      Client.close conn;
      Domain.join daemon;
      check "a result entry file was persisted" true (res_count () >= 1);
      let n_res = res_count () in
      (* daemon 2 on the same store *)
      let socket2 = fresh_socket () in
      let daemon2 =
        start_daemon ~socket:socket2 ~store_dir ~workers:2 ~quantum:4 ()
      in
      Fun.protect
        ~finally:(fun () -> drain_and_join socket2 daemon2)
        (fun () ->
          let conn2 = connect socket2 in
          Fun.protect
            ~finally:(fun () -> Client.close conn2)
            (fun () ->
              (* resubmitting the finished worm hits the entry loaded
                 from disk: zero slices, identical digest *)
              let wid2 = ok_or_fail "resubmit worm" (Client.submit conn2 worm_spec) in
              let jw2 =
                ok_or_fail "wait worm hit" (Client.wait_terminal conn2 wid2)
              in
              check_int "persisted entry serves at zero slices" 0
                (job_int jw2 "slices");
              check_str "persisted entry digest identical" worm_digest
                (job_digest jw2);
              (* the drained duplicate pair reforms across the restart:
                 the primary resumes from its checkpoint, the follower is
                 completed by replication — one execution, two identical
                 results *)
              let jds =
                List.map
                  (fun id ->
                    ok_or_fail "wait chase" (Client.wait_terminal conn2 id))
                  ids
              in
              List.iter
                (fun j ->
                  check "recovered duplicate done" true
                    (job_field j "state" = Some "done");
                  check_str "recovered duplicate digest = uninterrupted"
                    ref_digest (job_digest j))
                jds;
              check_int "the reformed pair executed exactly once" 1
                (List.length
                   (List.filter (fun j -> job_int j "slices" > 0) jds))));
      (* the chase pair adds exactly one entry file; serving hits adds
         none, and nothing is orphaned *)
      check_int "entry files accounted for, no orphans" (n_res + 1)
        (res_count ());
      let leaked =
        List.filter
          (fun f -> Filename.check_suffix f ".ckpt")
          (Array.to_list (Sys.readdir store_dir))
      in
      check_int "no checkpoint leaked" 0 (List.length leaked))

(* --- decoder fuzz ------------------------------------------------------- *)

(* Seeded fuzz over malformed, truncated, mutated and oversized frames:
   [Json.parse] must return [Ok]/[Error] on every input — no exception
   may escape, and adversarial nesting must hit the depth cap instead of
   the OCaml stack. *)
let test_json_fuzz () =
  let state = ref 0x2545F4914F6CDD1DL in
  let next () =
    let open Int64 in
    state := add !state 0x9e3779b97f4a7c15L;
    let z = mul (logxor !state (shift_right_logical !state 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 2)
  in
  let rand n = if n <= 0 then 0 else next () mod n in
  let valid =
    Json.to_string (Job.manifest_json (Job.make ~seq:7 ~quantum:2 (divergent_spec 9)))
  in
  let no_exn what s =
    match Json.parse s with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "%s: exception escaped the decoder: %s (input %S)" what
          (Printexc.to_string e)
          (if String.length s > 80 then String.sub s 0 80 ^ "…" else s)
  in
  (* pure noise *)
  for _ = 1 to 2_000 do
    let s = String.init (rand 64) (fun _ -> Char.chr (rand 256)) in
    no_exn "noise" s
  done;
  (* truncations of a real manifest frame *)
  for _ = 1 to 1_000 do
    no_exn "truncated" (String.sub valid 0 (rand (String.length valid)))
  done;
  (* single-byte mutations of a real frame *)
  for _ = 1 to 2_000 do
    let b = Bytes.of_string valid in
    Bytes.set b (rand (Bytes.length b)) (Char.chr (rand 256));
    no_exn "mutated" (Bytes.to_string b)
  done;
  (* adversarial nesting: far past any sane frame, must be a normal
     parse error, not a stack overflow *)
  List.iter
    (fun n ->
      let s = String.make n '[' in
      no_exn "deep-nesting" s;
      check (Printf.sprintf "%d-deep nesting rejected" n) true
        (match Json.parse s with Error _ -> true | Ok _ -> false);
      no_exn "deep-nesting-obj" (String.concat "" (List.init n (fun _ -> "{\"a\":"))))
    [ 600; 10_000; 200_000 ];
  (* oversized atom: a multi-megabyte string token parses (the frame
     limit is the daemon's job, not the decoder's) without incident *)
  let big = "\"" ^ String.make (2 * 1024 * 1024) 'x' ^ "\"" in
  check "oversized string atom parses" true
    (match Json.parse big with Ok (Json.String _) -> true | _ -> false);
  (* moderate nesting within the cap still parses *)
  let nested =
    String.make 100 '[' ^ "1" ^ String.make 100 ']'
  in
  check "100-deep nesting parses" true
    (match Json.parse nested with Ok _ -> true | _ -> false)

(* Garbage on a live daemon socket: every bad line gets a structured
   error reply, and the connection stays usable for a well-formed ping
   afterwards. *)
let test_daemon_garbage () =
  with_daemon ~workers:1 ~quantum:2 (fun socket ->
      let conn = connect socket in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          List.iter
            (fun garbage ->
              output_string conn.Client.oc garbage;
              output_char conn.Client.oc '\n';
              flush conn.Client.oc;
              let line = input_line conn.Client.ic in
              match Json.parse line with
              | Ok reply ->
                  check "garbage gets a structured error" true
                    (Json.mem_bool "ok" reply = Some false)
              | Error m -> Alcotest.failf "error reply not JSON: %s" m)
            [ "not json"; "{\"op\": \"ping\""; "[1,2,"; "\xff\xfe\x00" ];
          check "connection survives garbage" true
            (match Client.ping conn with Ok _ -> true | Error _ -> false)))

(* --- connection hardening ----------------------------------------------- *)

(* An idle client is dropped at the read deadline with a structured
   error; a client the daemon owes a reply (a registered waiter) is
   exempt, and an active client is never touched. *)
let test_read_deadline () =
  let socket = fresh_socket () in
  let store_dir = fresh_dir () in
  let daemon =
    start_daemon ~socket ~store_dir ~workers:1 ~quantum:1
      ~read_deadline_s:0.3 ()
  in
  Fun.protect
    ~finally:(fun () ->
      drain_and_join socket daemon;
      rm_rf store_dir)
    (fun () ->
      let idle = connect socket in
      let active = connect socket in
      let waiter = connect socket in
      (* the waiter blocks on a job that cannot finish: an effectively
         unbounded divergent chase on the daemon's only worker *)
      let id = ok_or_fail "submit" (Client.submit active (divergent_spec 100_000)) in
      let waiter_dom =
        Domain.spawn (fun () -> Client.wait waiter id (* no timeout *))
      in
      (* keep [active] chatty well past the deadline; [idle] says nothing *)
      for _ = 1 to 8 do
        Unix.sleepf 0.1;
        ignore (ok_or_fail "active ping" (Client.ping active))
      done;
      (* the idle client was sent the structured error, then dropped *)
      (match Json.parse (input_line idle.Client.ic) with
      | Ok reply ->
          check "idle client told why" true
            (match Json.mem_str "error" reply with
            | Some m -> Json.mem_bool "ok" reply = Some false
                        && String.length m >= 13
                        && String.sub m 0 13 = "read deadline"
            | None -> false)
      | Error m -> Alcotest.failf "deadline error not JSON: %s" m);
      check "idle client connection closed" true
        (match input_line idle.Client.ic with
        | _ -> false
        | exception End_of_file -> true);
      Client.close idle;
      (* the waiter outlived the deadline because the daemon owes it a
         reply; cancelling the job delivers that reply on the old
         connection *)
      ignore (ok_or_fail "cancel" (Client.cancel active id));
      (match Domain.join waiter_dom with
      | Ok reply ->
          check "waiter survived the deadline and got the job" true
            (match Client.job_of_reply reply with
            | Ok j -> Json.mem_str "state" j = Some "cancelled"
            | Error _ -> false)
      | Error m -> Alcotest.failf "waiter dropped: %s" m);
      Client.close waiter;
      Client.close active)

(* A frame above --max-frame gets a structured error and the socket is
   closed, before any parse is attempted. *)
let test_max_frame () =
  let socket = fresh_socket () in
  let store_dir = fresh_dir () in
  let daemon =
    start_daemon ~socket ~store_dir ~workers:1 ~quantum:2 ~max_frame:4096 ()
  in
  Fun.protect
    ~finally:(fun () ->
      drain_and_join socket daemon;
      rm_rf store_dir)
    (fun () ->
      let conn = connect socket in
      (* 8 KiB of an unterminated frame against a 4 KiB limit *)
      output_string conn.Client.oc (String.make 8192 'x');
      flush conn.Client.oc;
      (match Json.parse (input_line conn.Client.ic) with
      | Ok reply ->
          check "oversized frame gets a structured error" true
            (match Json.mem_str "error" reply with
            | Some m -> Json.mem_bool "ok" reply = Some false
                        && String.length m >= 15
                        && String.sub m 0 15 = "frame too large"
            | None -> false)
      | Error m -> Alcotest.failf "max-frame error not JSON: %s" m);
      check "oversized client connection closed" true
        (match input_line conn.Client.ic with
        | _ -> false
        | exception End_of_file -> true);
      Client.close conn;
      (* a fresh client under the limit is served normally *)
      let conn2 = connect socket in
      check "daemon healthy after oversized frame" true
        (match Client.ping conn2 with Ok _ -> true | Error _ -> false);
      Client.close conn2)

(* --- client retry -------------------------------------------------------- *)

(* connect_retry rides out a daemon that comes up late; a dead socket
   exhausts the deadline with a bounded number of jittered attempts. *)
let test_connect_retry () =
  let gone = fresh_socket () in
  let t0 = Unix.gettimeofday () in
  (match Client.connect_retry ~deadline_s:0.4 ~base_s:0.02 ~cap_s:0.1 ~seed:7
           ~socket:gone () with
  | Ok _ -> Alcotest.fail "connected to a nonexistent socket"
  | Error m ->
      check "deadline exhausted with attempt count" true
        (let held = Unix.gettimeofday () -. t0 in
         held >= 0.4 && held < 5.
         &&
         (* the message names the attempts, e.g. "gave up after 9 attempts" *)
         let has_sub s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has_sub m "gave up after"));
  (* daemon comes up 0.3s late; with_retry keeps reconnecting until the
     ping lands *)
  let socket = fresh_socket () in
  let store_dir = fresh_dir () in
  let starter =
    Domain.spawn (fun () ->
        Unix.sleepf 0.3;
        start_daemon ~socket ~store_dir ~workers:1 ~quantum:2 ())
  in
  let reply =
    Client.with_retry ~deadline_s:10. ~base_s:0.02 ~cap_s:0.1 ~seed:7 ~socket
      (fun conn -> Client.ping conn)
  in
  let daemon = Domain.join starter in
  Fun.protect
    ~finally:(fun () ->
      drain_and_join socket daemon;
      rm_rf store_dir)
    (fun () ->
      check "with_retry outlasted the late daemon start" true
        (match reply with Ok _ -> true | Error _ -> false))

(* --- store sweeps -------------------------------------------------------- *)

(* Orphaned result segments and torn temp files are swept on recovery:
   a cache-backed [.res] survives a restart, an orphan does not, and
   neither [.res] orphans nor [.tmp.*] debris outlive drain + crash +
   restart. *)
let test_store_sweeps () =
  let store_dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf store_dir)
    (fun () ->
      (* daemon 1 persists one real cache entry *)
      let socket = fresh_socket () in
      let daemon = start_daemon ~socket ~store_dir ~workers:1 ~quantum:2 () in
      let conn = connect socket in
      let wid =
        ok_or_fail "submit"
          (Client.submit conn (Job.Worm { machine = "halt-now"; steps = 50 }))
      in
      ignore (ok_or_fail "wait" (Client.wait_terminal conn wid));
      ignore (ok_or_fail "drain" (Client.drain conn));
      Client.close conn;
      Domain.join daemon;
      let files () = List.sort compare (Array.to_list (Sys.readdir store_dir)) in
      let with_suffix sfx =
        List.filter (fun f -> Filename.check_suffix f sfx) (files ())
      in
      check_int "one persisted cache entry" 1 (List.length (with_suffix ".res"));
      let real_res = List.hd (with_suffix ".res") in
      (* simulate a crash mid-write: an orphan result segment (its digest
         is in no manifest and no cache) plus torn write_atomic temps *)
      let plant name content =
        let oc = open_out (Filename.concat store_dir name) in
        output_string oc content;
        close_out oc
      in
      plant "deadbeef0123.res" "{\"torn\": true";
      plant "j000042.ckpt.tmp.1234" "half a checkpoint";
      plant "deadbeef0123.res.tmp.99" "half a result";
      (* daemon 2, cache persistence ON: the real entry is re-adopted,
         the orphan and the temps are swept *)
      let socket2 = fresh_socket () in
      let daemon2 =
        start_daemon ~socket:socket2 ~store_dir ~workers:1 ~quantum:2 ()
      in
      (match Client.connect ~socket:socket2 () with
      | Ok c ->
          ignore (ok_or_fail "drain 2" (Client.drain c));
          Client.close c
      | Error m -> Alcotest.failf "connect 2: %s" m);
      Domain.join daemon2;
      check "cache-backed result survives recovery" true
        (List.mem real_res (files ()));
      check "orphan result swept on recovery" false
        (List.mem "deadbeef0123.res" (files ()));
      check_int "no temp debris survives recovery" 0
        (List.length
           (List.filter
              (fun f ->
                let has_sub s sub =
                  let n = String.length s and m = String.length sub in
                  let rec go i =
                    i + m <= n && (String.sub s i m = sub || go (i + 1))
                  in
                  go 0
                in
                has_sub f ".tmp.")
              (files ())));
      (* daemon 3, cache disabled: nothing backs the entry now, so even
         the real segment is swept — no .res outlives its cache *)
      let socket3 = fresh_socket () in
      let daemon3 =
        start_daemon ~socket:socket3 ~store_dir ~workers:1 ~quantum:2 ~cache:0
          ()
      in
      (match Client.connect ~socket:socket3 () with
      | Ok c ->
          ignore (ok_or_fail "drain 3" (Client.drain c));
          Client.close c
      | Error m -> Alcotest.failf "connect 3: %s" m);
      Domain.join daemon3;
      check_int "cache off: every result segment swept" 0
        (List.length (with_suffix ".res")))

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogates;
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "manifest round-trip" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "decoder fuzz" `Quick test_json_fuzz;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "orphan + temp sweeps" `Quick test_store_sweeps;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "garbage frames on a live socket" `Quick
            test_daemon_garbage;
          Alcotest.test_case "read deadline drops idle, spares waiters" `Quick
            test_read_deadline;
          Alcotest.test_case "max frame closes with an error" `Quick
            test_max_frame;
          Alcotest.test_case "connect/request retry with backoff" `Quick
            test_connect_retry;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "submit/wait" `Quick test_submit_wait;
          Alcotest.test_case "preemption bit-identity" `Quick
            test_preemption_bit_identity;
          Alcotest.test_case "8 concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "drain + restart recovery" `Quick
            test_drain_restart_recovery;
          Alcotest.test_case "mutate jobs on a held instance" `Quick
            test_mutate_jobs;
          Alcotest.test_case "oblivious chase checkpoints" `Quick
            test_oblivious_checkpoints;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit + coalesce bit-identity" `Quick
            test_cache_hit_and_coalesce;
          Alcotest.test_case "mutate-read strict invalidation" `Quick
            test_mutate_read_invalidation;
          Alcotest.test_case "persistence across restart" `Quick
            test_cache_persistence_restart;
          Alcotest.test_case "lazy and oblivious key apart" `Quick
            test_cache_engine_classes;
        ] );
    ]
