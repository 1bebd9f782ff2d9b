(* Workload spider-chase: the paper's own regime.  Each op builds
   Q = Compile(Precompile(T∞)) at a drawn leg count s, realizes a full
   green spider and chases T_Q from it for a drawn stage budget with the
   default engine.  Bodies are spider CQs of 80–112 atoms with few
   firings, so plan compile and large-body hom search dominate. *)

open Harness

type op = { s : int; stages : int }

(* The size grid: four antithetic pairs covering s = 10..13 and stage
   budgets 2..16, each pair a small and a large chase of about the same
   combined cost.  A run covers whole cycles of the grid, so every run
   chases the same sizes; the seed draws the order of the pairs in each
   cycle and which chase of a pair goes first. *)
let grid = [| ((10, 2), (13, 16)); ((10, 16), (13, 2)); ((11, 5), (12, 13)); ((11, 13), (12, 5)) |]

let cycle = 2 * Array.length grid

let op_at ~seed i =
  let order = Array.init (Array.length grid) Fun.id in
  let r = Rng.derive seed (i / cycle) in
  Rng.shuffle r order;
  let a, b = grid.(order.(i mod cycle / 2)) in
  let first, second = if Rng.int (Rng.derive (seed + 7919) (i / 2)) 2 = 0 then (a, b) else (b, a) in
  let s, stages = if i mod 2 = 0 then first else second in
  { s; stages }

let seed_structure ctx =
  let st = Relational.Structure.create () in
  let a = Relational.Structure.fresh ~name:"a" st in
  let b = Relational.Structure.fresh ~name:"b" st in
  ignore (Spider.Real.realize ctx st ~tail:a ~antenna:b Spider.Ideal.full_green);
  st

let level0 s =
  Span.with_ "precompile.to_level0" (fun () ->
      Greengraph.Precompile.to_level0 ~s Separating.Tinf.rules)

(* One op, through the public entry points with their defaults. *)
let run_op o =
  let p = level0 o.s in
  let st = seed_structure p.Greengraph.Precompile.ctx in
  let stats =
    Span.with_ "tgd.chase" (fun () ->
        Tgd.Chase.run ~max_stages:o.stages p.Greengraph.Precompile.tgds st)
  in
  (p, st, stats)

(* --- output checks -------------------------------------------------------- *)

let expected_file = "perfbench/expected/spider_chase.tsv"

(* (s, stages) -> digest of the chased structure. *)
let load_expected () =
  let tbl = Hashtbl.create 64 in
  let ic = open_in expected_file in
  (try
     while true do
       let line = input_line ic in
       if line <> "" && line.[0] <> '#' then
         Scanf.sscanf line "%d %d %s" (fun s b d -> Hashtbl.replace tbl (s, b) d)
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let swarm_labels g =
  List.map
    (fun (e : Swarm.Graph.edge) -> Spider.Ideal.code e.Swarm.Graph.label)
    (Swarm.Graph.edges g)
  |> List.sort compare

(* Lemma 12: the Level-1 chase of Precompile(T∞) for the same budget. *)
let level1 =
  let memo = Hashtbl.create 16 in
  fun (p : Greengraph.Precompile.level0) stages ->
    match Hashtbl.find_opt memo stages with
    | Some v -> v
    | None ->
        let sw, _, _ = Swarm.Graph.seed () in
        ignore (Swarm.Rule.chase ~max_stages:stages p.Greengraph.Precompile.swarm_rules sw);
        let v = (swarm_labels sw, Swarm.Graph.order sw) in
        Hashtbl.replace memo stages v;
        v

let check expected o (p, st, _) =
  let digest = Relational.Structure.digest_hex st in
  match Hashtbl.find_opt expected (o.s, o.stages) with
  | None -> Wrong "no_expected_digest"
  | Some d when d <> digest -> Wrong "digest_mismatch"
  | Some _ ->
      let sw0 = Swarm.Compile.decompile p.Greengraph.Precompile.ctx st in
      let labels1, order1 = level1 p o.stages in
      if swarm_labels sw0 <> labels1 || Swarm.Graph.order sw0 <> order1 then
        Wrong "level0_ne_level1"
      else Ok_op

(* The expected-digest table, computed with the [`Stage] engine so the
   stored digests also cross-check the default engine. *)
let print_expected () =
  print_endline "# s stages digest  (Structure.digest_hex after the Level-0 chase)";
  for s = 10 to 13 do
    let p = Greengraph.Precompile.to_level0 ~s Separating.Tinf.rules in
    for stages = 2 to 16 do
      let st = seed_structure p.Greengraph.Precompile.ctx in
      ignore (Tgd.Chase.run ~engine:`Stage ~max_stages:stages p.Greengraph.Precompile.tgds st);
      Printf.printf "%d %d %s\n%!" s stages (Relational.Structure.digest_hex st)
    done
  done

(* --- the workload --------------------------------------------------------- *)

(* Set-up: T_Q and the seed spider for every leg count. *)
let setup () =
  List.iter
    (fun s ->
      let p = Greengraph.Precompile.to_level0 ~s Separating.Tinf.rules in
      ignore (seed_structure p.Greengraph.Precompile.ctx))
    [ 10; 11; 12; 13 ]

let boundary i = i mod cycle = 0

(* Each op starts from a compacted heap, as a fresh [redspider chase]
   process would; peak RSS is then the largest single op's. *)
let compact_between _ _ = Gc.compact ()

let run ~seed ~seconds ~trace =
  (* two more set-ups after each op, on the compacted heap *)
  let setups = Setup_sampler.start setup in
  let after_op i r =
    compact_between i r;
    Setup_sampler.sample setups
  in
  let expected = load_expected () in
  let outcomes_of samples =
    List.map
      (fun smp ->
        match smp.res with
        | Error c -> Raised c
        | Ok r -> check expected (op_at ~seed smp.index) r)
      samples
  in
  let untraced =
    serial_loop ~boundary ~after:after_op
      ~seconds:(if trace then seconds /. 2. else seconds)
      (fun i -> run_op (op_at ~seed i))
  in
  let layers, notes, traced_outcomes =
    if not trace then ([], [], [])
    else begin
      (* traced half: the same op sequence again, spans and counters on *)
      let probe_comp = ref 0. in
      Span.on := true;
      Obs.set_metrics true;
      let traced, deltas =
        with_counters (fun () ->
            serial_loop ~boundary ~seconds:(seconds /. 2.)
              ~after:(fun i r ->
                (match r with
                | Ok (p, _, _) ->
                    probe_comp :=
                      !probe_comp +. compile_probe p.Greengraph.Precompile.tgds
                | Error _ -> ());
                compact_between i r)
              (fun i -> with_gc (fun () -> run_op (op_at ~seed i))))
      in
      Obs.set_metrics false;
      Span.on := false;
      let ops = List.length traced in
      let n = float_of_int ops in
      (* the probe's own compilations are not the engine's *)
      let engine_comp = counter deltas "plan.compilations" -. !probe_comp in
      let deltas =
        ("plan.compilations", int_of_float engine_comp)
        :: List.remove_assoc "plan.compilations" deltas
      in
      let compile_ms = Span.total_ms "hom.plan_compile" in
      let chase_ms = Span.total_ms "tgd.chase" in
      let per_comp_ms = compile_ms /. Float.max 1. !probe_comp in
      let est_compile_ms = per_comp_ms *. engine_comp in
      let layers =
        [
          m "precompile.to_level0_ms" "ms/op" (span_ms_per_op ~ops "precompile.to_level0");
          m "hom.plan_compile_ms" "ms/op" (compile_ms /. n);
          m "tgd.chase_ms" "ms/op" (chase_ms /. n);
          m "trace.overhead_frac" "ratio" (overhead ~untraced ~traced);
        ]
        @ counter_layers ~ops deltas @ gc_layers ~ops
      in
      let notes =
        [
          Printf.sprintf
            "compile-vs-scan: %.0f engine plan compilations/op at %.3f ms each \
             (probe) = %.1f ms/op compile of %.1f ms/op chase (%.0f%%); scan, \
             head check and firing = the remaining %.1f ms/op"
            (engine_comp /. n) per_comp_ms (est_compile_ms /. n) (chase_ms /. n)
            (100. *. est_compile_ms /. Float.max 1e-9 chase_ms)
            ((chase_ms -. est_compile_ms) /. n);
          "exact counters: all (the default engine runs jobs = 1 on this workload)";
        ]
      in
      (layers, notes, outcomes_of traced)
    end
  in
  let outcomes = outcomes_of untraced in
  let ok_ms = ok_latencies_ms untraced outcomes in
  {
    setup_s = Setup_sampler.times setups;
    latencies_ms = ok_ms;
    tail_samples_ms = ok_ms;
    outcomes = outcomes @ traced_outcomes;
    chunk_rates = chunk_rates (List.length untraced) untraced;
    rss_mb = peak_rss_mb ();
    layers;
    notes;
  }
