(* Workload serve-mix: a fresh [redspider serve --workers 2] daemon in
   its own process, driven over its Unix socket by a closed loop of two
   client connections with a seeded job mix: chases (some over the
   stage quantum, so they are preempted and checkpointed), determinacy
   and worm jobs, [mutate] edits on two daemon-held instances
   interleaved with instance reads, and about 25% exact resubmissions of
   recent pure jobs.  Framing, queue wait, checkpointing, cache lookup
   and invalidation and incremental maintenance dominate; writes and
   reads hit the same cache. *)

open Harness
module J = Serve.Json

let clients = 2
let workers = 2

(* --- the op mix ----------------------------------------------------------- *)

type kind = Chase | Determinacy | Worm | Write | Read | Resubmit | Burst

let class_name = function
  | Chase | Burst -> "chase"
  | Determinacy -> "determinacy"
  | Worm -> "worm"
  | Write | Read -> "mutate"
  | Resubmit -> "cache_hit"

let path name len =
  let v i = if i = 0 then "x" else if i = len then "y" else Printf.sprintf "v%d" i in
  Printf.sprintf "%s(x,y) :- %s" name
    (String.concat ", "
       (List.init len (fun i -> Printf.sprintf "E(%s,%s)" (v i) (v (i + 1)))))

(* q0 is a path plus a unary atom unique to the op, so fresh pure jobs
   never share a cache key by accident. *)
let tagged_q0 tag len = path "q0" len ^ Printf.sprintf ", T%s(x)" tag

let views_json vs =
  J.List
    (List.map (fun (n, r) -> J.Obj [ ("name", J.String n); ("rule", J.String r) ]) vs)

(* View pairs with the longest q0 each keeps within milliseconds: under
   (p2, p3) a q0 path of 5 already chases for seconds. *)
let view_pairs = [| (2, 3, 4); (2, 4, 5); (3, 4, 5); (2, 5, 5) |]

(* Two path views and the q0 length, drawn together. *)
let views_of r =
  let a, b, max_len = view_pairs.(Rng.int r (Array.length view_pairs)) in
  let view n = ("p" ^ string_of_int n, path ("p" ^ string_of_int n) n) in
  ([ view a; view b ], Rng.range r 3 max_len)

(* Specs leave [engine] out, so the daemon's default engine runs them. *)
let query_spec kind ~views ~q0 ~max_stages =
  J.Obj
    [
      ("kind", J.String kind);
      ("views", views_json views);
      ("q0", J.String q0);
      ("max_stages", J.Int max_stages);
    ]

let machines = [| "creeper"; "halt-now"; "write-3"; "zigzag"; "bouncer-2" |]

let instance_views = [ ("p2", path "p2" 2) ]
let instance_q0 = path "q0" 3

let mutate_spec ~client edits =
  J.Obj
    [
      ("kind", J.String "mutate");
      ("instance", J.String (Printf.sprintf "c%d" client));
      ("views", views_json instance_views);
      ("q0", J.String instance_q0);
      ( "ops",
        J.List
          (List.map
             (fun (add, args) ->
               J.Obj
                 [
                   ("op", J.String (if add then "insert" else "retract"));
                   ("rel", J.String "E");
                   ("args", J.List (List.map (fun a -> J.Int a) args));
                 ])
             edits) );
      ("max_stages", J.Int 8);
    ]

(* Per-client generator state: the recent pure specs (for exact
   resubmission), the client's live inserted edges and its fresh-id
   counter. *)
type gen = {
  client : int;
  mutable recent : J.t list;
  mutable live : int list list;
  mutable next_fresh : int;
}

(* Op [j] of a client: its kind and the specs it submits (two for a
   burst: the same fresh spec twice back to back, so the second
   coalesces onto the first in flight). *)
let next_op ~seed g j =
  let r = Rng.derive ((seed * 31) + g.client) j in
  let tag = Printf.sprintf "%dx%d" g.client j in
  let fresh_chase () =
    let views, len = views_of r in
    query_spec "chase" ~views ~q0:(tagged_q0 tag len) ~max_stages:(Rng.range r 2 8)
  in
  let u = Rng.int r 100 in
  if u < 25 && g.recent <> [] then
    if Rng.int r 5 = 0 then
      let s = fresh_chase () in
      (Burst, [ s; s ])
    else (Resubmit, [ List.nth g.recent (Rng.int r (List.length g.recent)) ])
  else if u < 50 then (Chase, [ fresh_chase () ])
  else if u < 62 then
    let views, len = views_of r in
    ( Determinacy,
      [ query_spec "determinacy" ~views ~q0:(tagged_q0 tag len) ~max_stages:(Rng.range r 2 5) ] )
  else if u < 75 then
    ( Worm,
      [
        J.Obj
          [
            ("kind", J.String "worm");
            ("machine", J.String machines.(Rng.int r (Array.length machines)));
            ("steps", J.Int (Rng.range r 20 400));
          ];
      ] )
  else if u < 88 then begin
    let edit =
      if g.live <> [] && Rng.int r 3 = 0 then begin
        let e = List.nth g.live (Rng.int r (List.length g.live)) in
        g.live <- List.filter (( != ) e) g.live;
        (false, e)
      end
      else begin
        g.next_fresh <- g.next_fresh + 1;
        let e = [ Rng.int r 4; -g.next_fresh ] in
        g.live <- e :: g.live;
        (true, e)
      end
    in
    (Write, [ mutate_spec ~client:g.client [ edit ] ])
  end
  else (Read, [ mutate_spec ~client:g.client [] ])

let remember g kind spec =
  match kind with
  | Chase | Determinacy | Worm ->
      g.recent <- List.filteri (fun i _ -> i < 15) (spec :: g.recent)
  | Write | Read | Resubmit | Burst -> ()

(* --- the wire ------------------------------------------------------------- *)

(* Client-side frame costs, summed over a traced half. *)
type wire = {
  mutable enc_s : float;
  mutable dec_s : float;
  mutable frames : int;
  mutable pings : float list;
}

let wire_mu = Mutex.create ()

let rpc w (conn : Serve.Client.conn) req =
  let t0 = now () in
  let line = J.to_string req in
  let t1 = now () in
  output_string conn.Serve.Client.oc line;
  output_char conn.Serve.Client.oc '\n';
  flush conn.Serve.Client.oc;
  let reply = input_line conn.Serve.Client.ic in
  let t2 = now () in
  let v = J.parse reply in
  let t3 = now () in
  Mutex.lock wire_mu;
  w.enc_s <- w.enc_s +. (t1 -. t0);
  w.dec_s <- w.dec_s +. (t3 -. t2);
  w.frames <- w.frames + 1;
  Mutex.unlock wire_mu;
  match v with Ok v -> v | Error m -> failwith ("bad reply: " ^ m)

let submit w conn spec =
  let reply = rpc w conn (J.Obj [ ("op", J.String "submit"); ("spec", spec) ]) in
  match J.mem_str "id" reply with
  | Some id -> id
  | None -> failwith (Option.value ~default:"submit refused" (J.mem_str "error" reply))

let rec wait w conn id =
  let reply =
    rpc w conn
      (J.Obj [ ("op", J.String "wait"); ("id", J.String id); ("timeout_s", J.Float 30.) ])
  in
  match J.member "job" reply with
  | None -> failwith "wait reply without job"
  | Some job -> (
      match J.mem_str "state" job with
      | Some ("done" | "faulted" | "cancelled") -> job
      | _ -> wait w conn id)

(* --- the daemon ----------------------------------------------------------- *)

let tmp_root = ".perfbench_tmp"

let rec rm_rf p =
  match Sys.is_directory p with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove p with Sys_error _ -> ())

let mkdir_p d =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ tmp_root; d ]

type daemon = { pid : int; socket : string; dir : string }

let live_daemons : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_daemons;
  live_daemons := []

(* Start a daemon on a fresh store; returns it with the time until it
   answered its first ping. *)
let start ~exe ~metrics k =
  let dir = Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) k) in
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" in
  let t0 = now () in
  let args =
    [ exe; "serve"; "--socket"; socket; "--store"; Filename.concat dir "store";
      "--workers"; string_of_int workers ]
    @ if metrics then [ "--metrics" ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) null Unix.stderr Unix.stderr in
  Unix.close null;
  live_daemons := pid :: !live_daemons;
  let rec ready tries =
    match Serve.Client.connect ~socket () with
    | Ok c ->
        let ok = Result.is_ok (Serve.Client.ping c) in
        Serve.Client.close c;
        if not ok then failwith "daemon ping failed"
    | Error m ->
        if tries = 0 then failwith ("daemon did not start: " ^ m);
        Unix.sleepf 0.002;
        ready (tries - 1)
  in
  ready 5000;
  ({ pid; socket; dir }, now () -. t0)

let request_once d req =
  match Serve.Client.connect ~socket:d.socket () with
  | Error m -> failwith m
  | Ok c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> req c)

(* Drain the daemon and wait for it to exit (killing it after 20 s). *)
let stop d =
  (try ignore (request_once d Serve.Client.drain) with _ -> ());
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when n > 0 ->
        Unix.sleepf 0.01;
        reap (n - 1)
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  reap 2000;
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  rm_rf d.dir

(* --- one measured window -------------------------------------------------- *)

type sample = {
  client : int;
  seq : int; (* op order within the client *)
  kind : kind;
  spec : J.t;
  lat_s : float;
  done_at : float;
  job : (J.t, string) Stdlib.result; (* the terminal job summary *)
}

(* The daemon's peak RSS is read once the window has completed this many
   jobs, so it measures a fixed amount of work whatever the run's speed. *)
let rss_at_jobs = 1500

let client_loop ~seed ~deadline ~ping ~completed ~rss w d c =
  let g = { client = c; recent = []; live = []; next_fresh = 0 } in
  let acc = ref [] in
  (match Serve.Client.connect_retry ~socket:d.socket () with
   | Error m ->
       acc := [ { client = c; seq = 0; kind = Chase; spec = J.Null; lat_s = 0.; done_at = now (); job = Error m } ]
   | Ok conn ->
       Fun.protect
         ~finally:(fun () -> Serve.Client.close conn)
         (fun () ->
           let j = ref 0 in
           while now () < deadline do
             let kind, specs = next_op ~seed g !j in
             if ping && !j mod 8 = 0 then begin
               let t0 = now () in
               ignore (rpc w conn (J.Obj [ ("op", J.String "ping") ]));
               let dt = now () -. t0 in
               Mutex.lock wire_mu;
               w.pings <- dt :: w.pings;
               Mutex.unlock wire_mu
             end;
             let t0 = now () in
             let results =
               match
                 Span.with_ ~op:((c * 1_000_000) + !j) "serve.job" (fun () ->
                     let ids = List.map (submit w conn) specs in
                     List.map
                       (fun id ->
                         let job = wait w conn id in
                         (job, now () -. t0))
                       ids)
               with
               | rs -> List.map (fun (job, dt) -> (Ok job, dt)) rs
               | exception e ->
                   List.map (fun _ -> (Error (Printexc.exn_slot_name e), now () -. t0)) specs
             in
             List.iteri
               (fun i (job, lat_s) ->
                 let kind = if kind = Burst && i = 1 then Resubmit else kind in
                 acc :=
                   { client = c; seq = !j; kind; spec = List.nth specs i; lat_s;
                     done_at = t0 +. lat_s; job }
                   :: !acc)
               results;
             let k = List.length results in
             let before = Atomic.fetch_and_add completed k in
             if before < rss_at_jobs && before + k >= rss_at_jobs then
               rss := peak_rss_mb ~pid:(string_of_int d.pid) ();
             (match results with
              | (Ok job, _) :: _ when J.mem_str "state" job = Some "done" ->
                  remember g kind (List.hd specs)
              | _ -> ());
             incr j
           done));
  List.rev !acc

let stats_of d =
  match request_once d Serve.Client.stats with
  | Ok v -> v
  | Error m -> failwith ("stats: " ^ m)

let cache_counts st =
  let c k =
    Option.bind (J.member "cache" st) (J.mem_int k) |> Option.value ~default:0
  in
  (c "hits", c "misses", c "coalesced")

let idle_ms st =
  Option.bind (J.member "sched" st) (J.mem_int "idle_ms") |> Option.value ~default:0

(* Run the closed loop against daemon [d] for [seconds]. *)
let window ~seed ~seconds ~ping d =
  let w = { enc_s = 0.; dec_s = 0.; frames = 0; pings = [] } in
  let st0 = stats_of d in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let out = Array.make clients [] in
  let completed = Atomic.make 0 and rss = ref nan in
  let threads =
    List.init clients (fun c ->
        Thread.create
          (fun () -> out.(c) <- client_loop ~seed ~deadline ~ping ~completed ~rss w d c)
          ())
  in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  let st1 = stats_of d in
  let samples = List.concat (Array.to_list out) in
  (* jobs completed in each whole second of the window *)
  let secs = max 1 (int_of_float seconds) in
  let per_sec = Array.make secs 0 in
  List.iter
    (fun s ->
      let b = int_of_float (s.done_at -. t0) in
      if b >= 0 && b < secs then per_sec.(b) <- per_sec.(b) + 1)
    samples;
  let rates = Array.to_list (Array.map float_of_int per_sec) in
  if Float.is_nan !rss then rss := peak_rss_mb ~pid:(string_of_int d.pid) ();
  (samples, elapsed, w, st0, st1, rates, !rss)

(* --- in-process reference ------------------------------------------------- *)

type reference = {
  digests : (string, (string, string) Stdlib.result) Hashtbl.t; (* pure spec -> digest *)
  mutate_digests : ((int * int) * (string, string) Stdlib.result) list;
  slice_ms : (string * float list) list; (* per class *)
  edit_ms : float list;
  ckpt_save_ms : float list;
  ckpt_load_ms : float list;
  manifest_ms : float list;
}

let seq = ref 0

(* Run a spec to completion in-process through [Serve.Runner.run_slice]
   (one unbounded quantum), as the daemon's workers do. *)
let run_in_process ~store ~instances spec_json =
  match Serve.Job.spec_of_json spec_json with
  | Error m -> (Error m, 0., None)
  | Ok spec ->
      incr seq;
      let job = Serve.Job.make ~seq:!seq spec in
      let quantum = { Serve.Runner.stages = 1_000_000; seconds = 0. } in
      let cancel = Resilience.Governor.Cancel.never in
      let t0 = now () in
      let n = ref 0 in
      while (not (Serve.Job.terminal job)) && !n < 100 do
        Serve.Runner.run_slice ~store ~instances ~cancel ~quantum job;
        incr n
      done;
      let dt = now () -. t0 in
      let r =
        match job.Serve.Job.state with
        | Serve.Job.Done r -> Ok r.Serve.Job.digest
        | s -> Error (Serve.Job.state_name s)
      in
      (r, dt, Some job)

(* The preemption path of a chase over the quantum: one default-quantum
   slice publishes a checkpoint; time loading and re-saving it. *)
let checkpoint_probe ~store spec_json =
  match Serve.Job.spec_of_json spec_json with
  | Error _ -> None
  | Ok spec -> (
      incr seq;
      let job = Serve.Job.make ~seq:!seq spec in
      Serve.Runner.run_slice ~store ~instances:(Serve.Runner.instances ())
        ~cancel:Resilience.Governor.Cancel.never ~quantum:Serve.Runner.default_quantum job;
      let path = Serve.Store.ckpt_path store job.Serve.Job.id in
      if not (Serve.Store.has_checkpoint store job.Serve.Job.id) then None
      else
        let kind = Serve.Runner.ckpt_kind in
        let (snap : (Tgd.Chase.snapshot, string) Stdlib.result), load_s =
          time (fun () -> Resilience.Checkpoint.load ~kind path)
        in
        match snap with
        | Error _ -> None
        | Ok snap ->
            let _, save_s =
              time (fun () -> Resilience.Checkpoint.save ~kind (path ^ ".copy") snap)
            in
            Some (save_s, load_s))

let reference ~dir ~trace samples =
  let store = Serve.Store.open_ (Filename.concat dir "reference") in
  let digests = Hashtbl.create 256 in
  let slice = Hashtbl.create 8 in
  let add_slice cls ms =
    Hashtbl.replace slice cls (ms :: Option.value ~default:[] (Hashtbl.find_opt slice cls))
  in
  let manifest = ref [] and save = ref [] and load = ref [] and edits = ref [] in
  let after_job = function
    | Some job when trace ->
        manifest := (snd (time (fun () -> Serve.Store.save_manifest store job)) *. 1000.) :: !manifest
    | _ -> ()
  in
  (* pure jobs: each distinct spec once *)
  List.iter
    (fun s ->
      match s.kind with
      | Chase | Determinacy | Worm | Burst | Resubmit ->
          let key = J.to_string s.spec in
          if not (Hashtbl.mem digests key) then begin
            let r, dt, job =
              run_in_process ~store ~instances:(Serve.Runner.instances ()) s.spec
            in
            Hashtbl.replace digests key r;
            add_slice (class_name s.kind) (dt *. 1000.);
            after_job job;
            if trace && s.kind = Chase then begin
              (match Serve.Job.spec_of_json s.spec with
               | Ok (Serve.Job.Chase { views; q0; _ }) -> (
                   match Serve.Job.parse_rules views q0 with
                   | Ok (named, _) -> ignore (compile_probe (Tgd.Dep.t_q named))
                   | Error _ -> ())
               | _ -> ());
              match checkpoint_probe ~store s.spec with
              | Some (sv, ld) ->
                  save := (sv *. 1000.) :: !save;
                  load := (ld *. 1000.) :: !load
              | None -> ()
            end
          end
      | Write | Read -> ())
    samples;
  (* mutate jobs: replay each client's edits and reads in order *)
  let mutate_digests =
    List.concat_map
      (fun c ->
        let instances = Serve.Runner.instances () in
        List.filter (fun s -> s.client = c && (s.kind = Write || s.kind = Read)) samples
        |> List.sort (fun a b -> compare a.seq b.seq)
        |> List.map (fun s ->
               let r, dt, job = run_in_process ~store ~instances s.spec in
               add_slice "mutate" (dt *. 1000.);
               if s.kind = Write then edits := (dt *. 1000.) :: !edits;
               after_job job;
               ((s.client, s.seq), r)))
      (List.init clients Fun.id)
  in
  {
    digests;
    mutate_digests;
    slice_ms = Hashtbl.fold (fun k v acc -> (k, v) :: acc) slice [];
    edit_ms = !edits;
    ckpt_save_ms = !save;
    ckpt_load_ms = !load;
    manifest_ms = !manifest;
  }

let check refs s =
  match s.job with
  | Error c -> Raised c
  | Ok job -> (
      match J.mem_str "state" job with
      | Some "done" -> (
          let got = Option.bind (J.member "result" job) (J.mem_str "digest") in
          let want =
            match s.kind with
            | Write | Read -> List.assoc_opt (s.client, s.seq) refs.mutate_digests
            | _ -> Hashtbl.find_opt refs.digests (J.to_string s.spec)
          in
          match (got, want) with
          | Some g, Some (Ok w) when g = w -> Ok_op
          | _ -> Wrong "digest_mismatch")
      | Some st -> Raised ("job_" ^ st)
      | None -> Raised "no_state")

(* --- the workload --------------------------------------------------------- *)

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let class_p50s samples outcomes =
  List.map
    (fun cls ->
      let xs =
        List.filter_map
          (fun (s, o) ->
            if o = Ok_op && class_name s.kind = cls then Some (s.lat_s *. 1000.) else None)
          (List.combine samples outcomes)
      in
      (cls, if xs = [] then 0. else median xs))
    [ "chase"; "determinacy"; "worm"; "mutate"; "cache_hit" ]

let job_num job k = Option.value ~default:0. (J.mem_float k job)

let run_with ~exe ~seed ~seconds ~trace =
  let setups =
    List.init 5 (fun k ->
        let d, dt = start ~exe ~metrics:false k in
        stop d;
        dt)
  in
  let measured ~metrics k ~seconds ~ping =
    let d, dt = start ~exe ~metrics k in
    Fun.protect
      ~finally:(fun () -> stop d)
      (fun () ->
        let samples, elapsed, w, st0, st1, rates, rss = window ~seed ~seconds ~ping d in
        (dt, samples, elapsed, w, st0, st1, rss, rates))
  in
  let half = if trace then seconds /. 2. else seconds in
  let dt, samples, elapsed, _, _, _, rss, rates = measured ~metrics:false 5 ~seconds:half ~ping:false in
  let traced =
    if not trace then None
    else begin
      Span.on := true;
      let r = measured ~metrics:true 6 ~seconds:half ~ping:true in
      Span.on := false;
      Some r
    end
  in
  let dir = Filename.concat tmp_root (Printf.sprintf "%d-ref" (Unix.getpid ())) in
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let all_samples =
        samples @ match traced with Some (_, s, _, _, _, _, _, _) -> s | None -> []
      in
      if trace then Span.on := true;
      let refs = reference ~dir ~trace all_samples in
      Span.on := false;
      let outcomes = List.map (check refs) samples in
      let p50s = class_p50s samples outcomes in
      let layers =
        match traced with
        | None -> []
        | Some (_, tsamples, telapsed, w, st0, st1, _, _) ->
            let ops = List.length tsamples in
            let n = float_of_int (max 1 ops) in
            let h0, m0, c0 = cache_counts st0 and h1, m1, c1 = cache_counts st1 in
            let hits = float_of_int (h1 - h0) and misses = float_of_int (m1 - m0)
            and coal = float_of_int (c1 - c0) in
            let metric_deltas =
              let get st =
                match J.member "metrics" st with
                | Some (J.Obj kvs) -> List.filter_map (fun (k, v) -> Option.map (fun i -> (k, i)) (J.to_int v)) kvs
                | _ -> []
              in
              Obs.Metrics.diff (get st0) (get st1)
            in
            let done_jobs = List.filter_map (fun s -> Result.to_option s.job) tsamples in
            let slice_of cls = Option.value ~default:[] (List.assoc_opt cls refs.slice_ms) in
            let untraced_rate = float_of_int (List.length samples) /. elapsed in
            let traced_rate = float_of_int ops /. telapsed in
            [
              m "client.ping_rtt_ms" "ms" (median w.pings *. 1000.);
              m "json.encode_us" "us" (w.enc_s /. float_of_int (max 1 w.frames) *. 1e6);
              m "json.decode_us" "us" (w.dec_s /. float_of_int (max 1 w.frames) *. 1e6);
            ]
            @ List.map
                (fun cls -> m ("runner.slice_ms." ^ cls) "ms" (mean (slice_of cls)))
                [ "chase"; "determinacy"; "worm"; "mutate" ]
            @ [
                m "serve.queue_wait_ms" "ms"
                  (mean
                     (List.filter_map
                        (fun s ->
                          match s.job with
                          | Ok job -> Some ((s.lat_s -. job_num job "wall_s") *. 1000.)
                          | Error _ -> None)
                        tsamples));
                m "serve.slices_per_job" "1/op"
                  (mean (List.map (fun j -> job_num j "slices") done_jobs));
                m "checkpoint.save_ms" "ms" (mean refs.ckpt_save_ms);
                m "checkpoint.load_ms" "ms" (mean refs.ckpt_load_ms);
                m "store.manifest_write_ms" "ms" (mean refs.manifest_ms);
                m "cache.hits" "1/op" (hits /. n);
                m "cache.misses" "1/op" (misses /. n);
                m "cache.coalesced" "1/op" (coal /. n);
                m "cache.hit_ratio" "ratio" ((hits +. coal) /. Float.max 1. (hits +. misses +. coal));
                m "maint.apply_edit_ms" "ms" (mean refs.edit_ms);
                m "sched.idle_ms" "ms/s" (float_of_int (idle_ms st1 - idle_ms st0) /. telapsed);
                m "hom.plan_compile_ms" "ms/op" (span_ms_per_op ~ops "hom.plan_compile");
                m "trace.overhead_frac" "ratio" ((untraced_rate /. traced_rate) -. 1.);
              ]
            @ List.map (fun (cls, v) -> m ("serve." ^ cls ^ "_p50_ms") "ms" v) p50s
            @ counter_layers ~ops metric_deltas
      in
      let traced_outcomes =
        match traced with
        | Some (_, ts, _, _, _, _, _, _) -> List.map (check refs) ts
        | None -> []
      in
      let ok_ms =
        List.filter_map
          (fun (s, o) -> if o = Ok_op then Some (s.lat_s *. 1000.) else None)
          (List.combine samples outcomes)
      in
      {
        setup_s = setups @ [ dt ];
        latencies_ms = ok_ms;
        tail_samples_ms = ok_ms;
        outcomes = outcomes @ traced_outcomes;
        chunk_rates = rates;
        rss_mb = rss;
        layers;
        notes =
          List.map (fun (c, v) -> Printf.sprintf "class %s p50 %.3f ms" c v) p50s
          @
          if trace then
            [ "exact counters: cache.* and sched.idle_ms (daemon-side, \
               single-threaded); hom.*/tgd.*/arena.facts are ticked from two \
               worker domains and are approximate" ]
          else [];
      })

let run ~exe ~seed ~seconds ~trace =
  Fun.protect
    ~finally:(fun () ->
      kill_all ();
      try Unix.rmdir tmp_root with Unix.Unix_error _ -> ())
    (fun () -> run_with ~exe ~seed ~seconds ~trace)
