(* The benchmark's main program: runs one workload for a measured window and
   prints every metric by name and unit, then one JSON result line.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--redspider PATH]   # the daemon binary serve-mix starts
     bench.exe expect-spider   # regenerate perfbench/expected/spider_chase.tsv

   With --trace 0 the result carries the end-to-end metrics; with
   --trace 1 the per-layer metrics of a traced run (the untraced half of
   that run gives the tracing overhead), whose spans are written to
   .perfbench_out/WORKLOAD-SEED.trace.json (Chrome trace format). *)

open Harness

let workloads ~exe =
  [
    ("spider-chase", Spider_chase.run);
    ("audit", Audit_load.run);
    ("serve-mix", Serve_mix.run ~exe);
  ]

(* The end-to-end metrics: wall clock as a user sees it, over the
   untraced window. *)
let end_to_end (r : report) =
  let n = List.length r.outcomes in
  let failed = List.length (List.filter (fun o -> o <> Ok_op) r.outcomes) in
  let tail_v, _, _ = tail r.tail_samples_ms in
  [
    m "setup_s" "s" (median r.setup_s);
    m "ops_per_s" "1/s" (median r.chunk_rates);
    m "latency_p50_ms" "ms" (median r.latencies_ms);
    m "latency_tail_ms" "ms" tail_v;
    m "ok_frac" "ratio" (float_of_int (n - failed) /. float_of_int n);
    m "peak_rss_mb" "MB" r.rss_mb;
  ]

(* The per-layer metrics of BENCHMARK.json, in its order.  A traced run
   reports all of them; a layer its workload does not exercise reads 0. *)
let per_layer =
  [
    ("precompile.to_level0_ms", "ms/op"); ("hom.plan_compile_ms", "ms/op");
    ("hom.plan_compilations", "1/op"); ("hom.candidates_scanned", "1/op");
    ("hom.unify_attempts", "1/op"); ("hom.backtracks", "1/op");
    ("tgd.chase_ms", "ms/op"); ("tgd.body_matches", "1/op");
    ("tgd.firings", "1/op"); ("tgd.head_checks", "1/op");
    ("tgd.fire_ratio", "ratio"); ("arena.facts", "1/op");
    ("gc.minor_words_per_op", "words/op"); ("gc.major_words_per_op", "words/op");
    ("oracle.gen_ms", "ms/op"); ("oracle.run_tgd_ms.stage", "ms/op");
    ("oracle.run_tgd_ms.seminaive", "ms/op"); ("oracle.run_tgd_ms.oblivious", "ms/op");
    ("oracle.run_tgd_ms.par", "ms/op"); ("oracle.run_tgd_ms.par_staged", "ms/op");
    ("oracle.audit_ms", "ms/op"); ("oracle.cq_checks_ms", "ms/op");
    ("oracle.diff_graph_ms", "ms/op"); ("oracle.budget_exceeded_frac", "ratio");
    ("pool.fork_join_us", "us"); ("par.shards", "1/op"); ("par.steals", "1/op");
    ("ops.failed_frac", "ratio"); ("latency_tail_pct", "%");
    ("latency_tail_beyond", "count"); ("latency_samples", "count");
    ("trace.overhead_frac", "ratio");
  ]

(* The daemon layers, reported by the serve-mix workload on top of
   [per_layer]; serve-mix is runnable but not in BENCHMARK.json (see
   perfbench/README.md). *)
let serve_layers =
  [
    ("client.ping_rtt_ms", "ms"); ("json.decode_us", "us"); ("json.encode_us", "us");
    ("runner.slice_ms.chase", "ms"); ("runner.slice_ms.determinacy", "ms");
    ("runner.slice_ms.worm", "ms"); ("runner.slice_ms.mutate", "ms");
    ("serve.queue_wait_ms", "ms"); ("serve.slices_per_job", "1/op");
    ("serve.chase_p50_ms", "ms"); ("serve.determinacy_p50_ms", "ms");
    ("serve.worm_p50_ms", "ms"); ("serve.mutate_p50_ms", "ms");
    ("serve.cache_hit_p50_ms", "ms"); ("checkpoint.save_ms", "ms");
    ("checkpoint.load_ms", "ms"); ("store.manifest_write_ms", "ms");
    ("cache.hits", "1/op"); ("cache.misses", "1/op"); ("cache.coalesced", "1/op");
    ("cache.hit_ratio", "ratio"); ("maint.apply_edit_ms", "ms");
    ("sched.idle_ms", "ms/s");
  ]

let layer_metrics ~workload (r : report) =
  let declared = if workload = "serve-mix" then per_layer @ serve_layers else per_layer in
  let n = List.length r.outcomes in
  let failed = List.length (List.filter (fun o -> o <> Ok_op) r.outcomes) in
  let _, tail_p, tail_beyond = tail r.tail_samples_ms in
  let measured =
    [
      m "ops.failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 n));
      m "latency_tail_pct" "%" tail_p;
      m "latency_tail_beyond" "count" (float_of_int tail_beyond);
      m "latency_samples" "count" (float_of_int (List.length r.latencies_ms));
    ]
    @ r.layers
  in
  List.iter
    (fun x ->
      if not (List.mem_assoc x.name declared) then
        failwith ("per-layer metric not declared: " ^ x.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x when Float.is_finite x.value -> { x with unit_ }
      | Some _ | None -> m name unit_ 0.)
    declared

let report_lines (r : report) =
  let n = List.length r.outcomes in
  let failed = List.length (List.filter (fun o -> o <> Ok_op) r.outcomes) in
  [
    Printf.sprintf "ops=%d failed=%d failed_frac=%.4f" n failed
      (float_of_int failed /. float_of_int (max 1 n));
    Printf.sprintf "ops_per_s is the median of %d chunk rates: %s"
      (List.length r.chunk_rates)
      (String.concat " " (List.map (Printf.sprintf "%.4g") r.chunk_rates));
    (let _, p, beyond = tail r.tail_samples_ms in
     Printf.sprintf "latency_tail_ms is p%g of %d samples (%d beyond)" p
       (List.length r.tail_samples_ms) beyond);
  ]
  @ List.map
      (fun (c, k) -> Printf.sprintf "failure %s: %d" c k)
      (failure_table r.outcomes)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (spider-chase|audit|serve-mix) --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "expect-spider" ] then (Spider_chase.print_expected (); exit 0);
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = int_of_string (get "seed") in
  let seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  let run =
    let exe =
      Option.value (List.assoc_opt "redspider" kv)
        ~default:"_build/default/bin/redspider.exe"
    in
    match List.assoc_opt workload (workloads ~exe) with
    | Some f -> f
    | None -> usage ()
  in
  let r = run ~seed ~seconds ~trace in
  let print_metric x = Printf.printf "%-32s %14.4f %s\n" x.name x.value x.unit_ in
  List.iter print_endline (report_lines r @ r.notes);
  print_endline "-- end to end (untraced window) --";
  List.iter print_metric (end_to_end r);
  let shown =
    if trace then begin
      let dir = ".perfbench_out" in
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let file = Filename.concat dir (Printf.sprintf "%s-%d.trace.json" workload seed) in
      Span.export file;
      Printf.printf "spans: %s\n" file;
      print_endline "-- per layer (traced run) --";
      let l = layer_metrics ~workload r in
      List.iter print_metric l;
      l
    end
    else end_to_end r
  in
  let count p = List.length (List.filter p r.outcomes) in
  let wrong = count (function Wrong _ -> true | _ -> false) in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (wrong = 0) (List.length r.outcomes)
    (count (fun o -> o <> Ok_op))
    (metrics_json shown);
  exit (if wrong = 0 then 0 else 1)
