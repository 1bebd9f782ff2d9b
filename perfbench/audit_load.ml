(* Workload audit: the differential oracle, one generated case per op
   ([Oracle.Diff.run_cases ~cases:1 ~from_case:i]), issued from one
   thread.  Thousands of tiny instances run under five engines each, so
   per-case fixed costs dominate: small plan compiles, a domain spawn
   per parallel stage in [Relational.Pool], and the audits.  The oracle
   fans its [`Par] runs out to [Pool.default_jobs ()] domains. *)

open Harness

(* The case universe: cases [0, universe) of the oracle seed the repo's
   audit smoke and BENCH_audit use.  Case costs are heavy-tailed (a
   few cases in a thousand chase for seconds), so a run always covers
   whole passes over one universe; the run seed permutes the case order
   of each pass. *)
let oracle_seed = 42
let universe = 600

let case_order ~seed =
  let a = Array.init universe Fun.id in
  Rng.shuffle (Rng.make seed) a;
  a

let run_op order i =
  Oracle.Diff.run_cases ~cases:1 ~from_case:order.(i mod universe)
    ~seed:oracle_seed ()

let check (r : Oracle.Diff.report) =
  if r.Oracle.Diff.violations = [] then Ok_op else Wrong "oracle_violation"

let engines =
  [
    ("stage", `Stage, None);
    ("seminaive", `Seminaive, None);
    ("oblivious", `Oblivious, None);
    ("par", `Par, None);
    ("par_staged", `Par, Some { Tgd.Chase.default_tuning with par_fire = `Staged });
  ]

(* The oracle audits only results near the budget, as [diff_tgd] does. *)
let small (b : Oracle.Diff.budget) st =
  Relational.Structure.size st <= 4 * b.Oracle.Diff.max_facts
  && Relational.Structure.card st <= 4 * b.Oracle.Diff.max_elems

(* The same case again, layer by layer through the oracle's public
   entry points, in the order [run_cases] calls them. *)
let replay case =
  let budget = Oracle.Diff.default_budget in
  let r = Oracle.Gen.case_rng ~seed:oracle_seed ~case in
  let inst = Span.with_ "oracle.gen" (fun () -> Oracle.Gen.instance r) in
  Span.with_ "oracle.audit" (fun () ->
      ignore (Oracle.Audit.structure ~provenance:true (Oracle.Gen.build inst)));
  ignore (compile_probe inst.Oracle.Gen.deps);
  List.iter
    (fun (name, engine, tuning) ->
      match
        capture (fun () ->
            Span.with_ ("oracle.run_tgd." ^ name) (fun () ->
                Oracle.Diff.run_tgd ?tuning budget engine inst))
      with
      | Ok run when small budget run.Oracle.Diff.result ->
          Span.with_ "oracle.audit" (fun () ->
              ignore (Oracle.Audit.structure ~provenance:true run.Oracle.Diff.result))
      | Ok _ -> ()
      | Error _ -> ())
    engines;
  Span.with_ "oracle.cq_checks" (fun () ->
      ignore
        (Oracle.Diff.cq_checks r inst.Oracle.Gen.signature (Oracle.Gen.build inst)));
  let gc = Span.with_ "oracle.gen" (fun () -> Oracle.Gen.graph_case r) in
  ignore
    (capture (fun () ->
         Span.with_ "oracle.diff_graph" (fun () -> Oracle.Diff.diff_graph budget gc)))

(* Fork-join of trivial tasks on the default pool width, in µs. *)
let fork_join_us () =
  let jobs = Relational.Pool.default_jobs () in
  median
    (List.init 200 (fun _ ->
         snd (time (fun () -> Relational.Pool.run_stealing ~jobs (2 * jobs) Fun.id))
         *. 1e6))

(* Set-up: the oracle's generators for the first cases and one pool
   round trip, which is what a campaign pays before its first case. *)
let setup () =
  for case = 0 to 49 do
    let r = Oracle.Gen.case_rng ~seed:oracle_seed ~case in
    ignore (Oracle.Gen.build (Oracle.Gen.instance r));
    ignore (Oracle.Gen.graph_case r)
  done;
  ignore (Relational.Pool.run ~jobs:(Relational.Pool.default_jobs ()) 2 Fun.id)

(* Each pass starts from a compacted heap, so peak RSS measures one
   pass however many passes a run completes. *)
let compact_per_pass i _ = if (i + 1) mod universe = 0 then Gc.compact ()

let outcomes_of samples =
  List.map (fun s -> match s.res with Error c -> Raised c | Ok r -> check r) samples

let run ~seed ~seconds ~trace =
  (* two more set-ups every 60 cases, after the compaction at a pass's end *)
  let setups = Setup_sampler.start setup in
  let after_op i r =
    compact_per_pass i r;
    if (i + 1) mod (universe / 10) = 0 then Setup_sampler.sample setups
  in
  let order = case_order ~seed in
  let boundary i = i mod universe = 0 in
  let untraced =
    serial_loop ~boundary ~after:after_op
      ~seconds:(if trace then seconds /. 2. else seconds)
      (run_op order)
  in
  let layers, traced =
    if not trace then ([], [])
    else begin
      Span.on := true;
      Obs.set_metrics true;
      let traced, deltas =
        with_counters (fun () ->
            serial_loop ~boundary ~seconds:(seconds /. 2.)
              ~after:(fun i r ->
                (* the replay's own work stays out of the counters *)
                Obs.set_metrics false;
                replay order.(i mod universe);
                Obs.set_metrics true;
                compact_per_pass i r)
              (fun i -> with_gc (fun () -> run_op order i)))
      in
      Obs.set_metrics false;
      let fj = fork_join_us () in
      Span.on := false;
      let ops = List.length traced in
      let per = span_ms_per_op ~ops in
      let runs, exceeded =
        List.fold_left
          (fun (a, b) s ->
            match s.res with
            | Ok (r : Oracle.Diff.report) ->
                (a + r.Oracle.Diff.engine_runs, b + r.Oracle.Diff.budget_exceeded)
            | Error _ -> (a, b))
          (0, 0) traced
      in
      let tgd_ms =
        List.fold_left (fun a (n, _, _) -> a +. per ("oracle.run_tgd." ^ n)) 0. engines
      in
      ( [
          m "hom.plan_compile_ms" "ms/op" (per "hom.plan_compile");
          m "tgd.chase_ms" "ms/op" tgd_ms;
          m "oracle.gen_ms" "ms/op" (per "oracle.gen");
        ]
        @ List.map
            (fun (n, _, _) -> m ("oracle.run_tgd_ms." ^ n) "ms/op" (per ("oracle.run_tgd." ^ n)))
            engines
        @ [
            m "oracle.audit_ms" "ms/op" (per "oracle.audit");
            m "oracle.cq_checks_ms" "ms/op" (per "oracle.cq_checks");
            m "oracle.diff_graph_ms" "ms/op" (per "oracle.diff_graph");
            m "oracle.budget_exceeded_frac" "ratio"
              (float_of_int exceeded /. float_of_int (max 1 runs));
            m "pool.fork_join_us" "us" fj;
            m "trace.overhead_frac" "ratio" (overhead ~untraced ~traced);
          ]
        @ counter_layers ~ops deltas @ gc_layers ~ops,
        traced )
    end
  in
  let outcomes = outcomes_of untraced in
  {
    setup_s = Setup_sampler.times setups;
    latencies_ms = ok_latencies_ms untraced outcomes;
    tail_samples_ms = per_input_ms ~key:(fun i -> i mod universe) untraced outcomes;
    outcomes = outcomes @ outcomes_of traced;
    chunk_rates = chunk_rates universe untraced;
    rss_mb = peak_rss_mb ();
    layers;
    notes =
      Printf.sprintf "pass times (s): %s"
        (String.concat " "
           (List.init
              ((List.length untraced + universe - 1) / universe)
              (fun k ->
                Printf.sprintf "%.2f"
                  (List.fold_left
                     (fun a s -> if s.index / universe = k then a +. s.latency_s else a)
                     0. untraced))))
      ::
      (if trace then
         [
           "exact counters: none of hom.*/tgd.*/arena.facts/par.* on this \
            workload (the [`Par] runs tick them from pool workers); \
            oracle.* and pool.* spans are exact";
         ]
       else []);
  }
