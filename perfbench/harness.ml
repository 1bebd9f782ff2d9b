(* Shared machinery of the benchmark: the seeded generator, order
   statistics, the span recorder, per-op failure capture and the result
   line the runner prints. *)

(* --- seeded generator (splitmix64) ---------------------------------------- *)

module Rng = struct
  type t = int64 ref

  let make seed = ref (Int64.of_int ((seed * 0x2545F491) lxor 0x5DEECE66D))

  let next64 st =
    let open Int64 in
    st := add !st 0x9e3779b97f4a7c15L;
    let z = mul (logxor !st (shift_right_logical !st 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)

  (* Uniform in [0, n). *)
  let int st n =
    if n <= 0 then 0
    else Int64.to_int (Int64.unsigned_rem (next64 st) (Int64.of_int n))

  (* Uniform in [lo, hi], inclusive. *)
  let range st lo hi = lo + int st (hi - lo + 1)

  let shuffle st a =
    for i = Array.length a - 1 downto 1 do
      let j = int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done

  (* An independent stream per (seed, index), so op [i] never depends on
     how many ops came before it. *)
  let derive seed i = make ((seed * 1_000_003) + i)
end

(* --- order statistics ----------------------------------------------------- *)

(* Linear-interpolated quantile of a sorted array, [p] in [0, 1]. *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = quantile (sorted_of_list xs) 0.5

(* The tail: the highest percentile of a fixed ladder that still has at
   least ten samples beyond it.  Returns (value, percentile, samples
   beyond).  With fewer than 20 samples no percentile qualifies; the
   median stands in, reported as percentile 50. *)
let tail xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  let ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ] in
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  match List.find_opt (fun p -> beyond p >= 10) ladder with
  | Some p -> (quantile a (p /. 100.), p, beyond p)
  | None -> (quantile a 0.5, 50., n / 2)

(* --- clock and memory ----------------------------------------------------- *)

let now = Obs.Clock.now_s

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Set-up times sampled through a run: 5 timed set-ups when the sampler
   starts and 2 more at each [sample], which workloads call between ops,
   outside the measured window.  One set-up lasts milliseconds, so timed
   only at the start it catches the host's speed at one instant, and
   that speed drifts by up to 1.8x over seconds to minutes on a shared
   host; spread over the run, the median follows the same average speed
   as the ops' figures. *)
module Setup_sampler = struct
  type t = { setup : unit -> unit; mutable times : float list }

  let timed t n =
    for _ = 1 to n do
      t.times <- snd (time t.setup) :: t.times
    done

  let start setup =
    let t = { setup; times = [] } in
    timed t 5;
    t

  let sample t = timed t 2
  let times t = t.times
end

(* Peak resident set (VmHWM) of a process in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- spans ---------------------------------------------------------------- *)

(* Spans recorded from the benchmark's own code around each call into a
   layer: name, start, end, the enclosing span and the op that caused it.
   Kept in memory, written out when the run ends.  Off (a single flag
   test) in untraced runs. *)
module Span = struct
  type ev = {
    name : string;
    id : int;
    parent : int; (* -1 at top level *)
    op : int;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let events : ev list ref = ref []
  let next_id = ref 0
  let current_op = ref (-1)
  let mu = Mutex.create ()

  (* The open spans of each thread, innermost first. *)
  let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

  let with_ ?op name f =
    if not !on then f ()
    else begin
      let tid = Thread.id (Thread.self ()) in
      let id, parent =
        locked (fun () ->
            let id = !next_id in
            incr next_id;
            let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
            Hashtbl.replace stacks tid (id :: stack);
            (id, match stack with p :: _ -> p | [] -> -1))
      in
      let op = Option.value op ~default:!current_op in
      let t0 = now () in
      let finish () =
        let t1 = now () in
        locked (fun () ->
            events := { name; id; parent; op; t0; t1 } :: !events;
            match Hashtbl.find_opt stacks tid with
            | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
            | _ -> ())
      in
      Fun.protect ~finally:finish f
    end

  (* Total and self time (ms) and count per span name.  Self time is the
     span's duration minus the part its child spans cover. *)
  let summary () =
    let child_ms = Hashtbl.create 64 in
    List.iter
      (fun e ->
        if e.parent >= 0 then
          let d = (e.t1 -. e.t0) *. 1000. in
          Hashtbl.replace child_ms e.parent
            (d +. Option.value ~default:0. (Hashtbl.find_opt child_ms e.parent)))
      !events;
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun e ->
        let d = (e.t1 -. e.t0) *. 1000. in
        let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_ms e.id) in
        let n, tot, slf =
          Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl e.name)
        in
        Hashtbl.replace tbl e.name (n + 1, tot +. d, slf +. self))
      !events;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

  let total_ms name =
    match List.assoc_opt name (summary ()) with Some (_, t, _) -> t | None -> 0.

  (* Chrome trace-event JSON: one complete event per span; the op index
     is the shared identifier of one request's spans. *)
  let export file =
    let oc = open_out file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc "[\n";
        List.iteri
          (fun i e ->
            Printf.fprintf oc
              "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
              (if i = 0 then "" else ",")
              e.name (e.t0 *. 1e6) ((e.t1 -. e.t0) *. 1e6) e.id e.parent e.op)
          (List.rev !events);
        output_string oc "]\n")
end

(* --- per-op outcome ------------------------------------------------------- *)

(* How one op ended: its output checked out, it raised (the exception
   constructor is kept), or its output was wrong. *)
type outcome = Ok_op | Raised of string | Wrong of string

let capture f =
  match f () with
  | v -> Ok v
  | exception e -> Error (Printexc.exn_slot_name e)

(* Counts of failure reasons, for the report. *)
let failure_table outcomes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | Ok_op -> ()
      | Raised c | Wrong c ->
          Hashtbl.replace tbl c
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    outcomes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* --- metrics and the result line ------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one workload run hands back to bench.ml. *)
type report = {
  setup_s : float list; (* each repeated set-up *)
  latencies_ms : float list; (* ops whose output checked out *)
  tail_samples_ms : float list;
      (* what latency_tail_ms is read from: [latencies_ms], or one
         latency per distinct input where a run repeats its inputs *)
  outcomes : outcome list; (* every attempted op *)
  chunk_rates : float list;
      (* ops/s of each chunk of the measured window (the whole run, a
         pass over the case universe, one second of daemon traffic);
         the reported throughput is their median *)
  rss_mb : float;
  layers : metric list; (* per-layer metrics, traced runs only *)
  notes : string list; (* human-readable lines printed before the result *)
}

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_num x.value) x.unit_)
         ms)
  ^ "}"

(* --- the serial op loop ---------------------------------------------------- *)

type 'r sample = { index : int; latency_s : float; res : ('r, string) Stdlib.result }

(* Issue op 0, 1, … one after another until [seconds] of op time have
   been spent and the next op index is a [boundary], so a run covers
   whole rounds of the workload's op mix.  An op that raises is captured
   with its exception constructor; the loop never aborts on one.
   [after] sees each op's result outside the timed window (per-layer
   probes run there).  Returns the samples in order. *)
let serial_loop ?(after = fun _ _ -> ()) ?(boundary = fun _ -> true) ~seconds run =
  let spent = ref 0. and acc = ref [] and i = ref 0 in
  while !spent < seconds || not (boundary !i) do
    let index = !i in
    Span.current_op := index;
    let t0 = now () in
    let res = capture (fun () -> run index) in
    let latency_s = now () -. t0 in
    spent := !spent +. latency_s;
    after index res;
    acc := { index; latency_s; res } :: !acc;
    incr i
  done;
  List.rev !acc

(* Latencies (ms) of the samples whose output checked out. *)
let ok_latencies_ms samples outcomes =
  List.filter_map
    (fun (smp, o) -> if o = Ok_op then Some (smp.latency_s *. 1000.) else None)
    (List.combine samples outcomes)

(* One latency (ms) per distinct input, the median of its repeats, over
   the samples whose output checked out; [key] names a sample's input.
   Where a run repeats a fixed set of inputs, a high percentile of the
   pooled samples falls on the boundary between two heavy inputs' groups
   of repeats and jumps between them from run to run; read off the
   per-input medians it moves only with the inputs' own costs. *)
let per_input_ms ~key samples outcomes =
  let tbl = Hashtbl.create 64 in
  List.iter2
    (fun smp o ->
      if o = Ok_op then
        let k = key smp.index in
        Hashtbl.replace tbl k
          ((smp.latency_s *. 1000.) :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    samples outcomes;
  Hashtbl.fold (fun _ xs acc -> median xs :: acc) tbl []

(* Tracing overhead: traced over untraced op time on the op prefix both
   halves of a traced run completed. *)
let overhead ~untraced ~traced =
  let k = min (List.length untraced) (List.length traced) in
  let sum xs =
    List.filteri (fun i _ -> i < k) xs
    |> List.fold_left (fun a s -> a +. s.latency_s) 0.
  in
  if k = 0 then 0. else (sum traced /. sum untraced) -. 1.

(* Counter deltas of the program's own registry over [f]. *)
let with_counters f =
  let before = Obs.Metrics.snapshot () in
  let v = f () in
  (v, Obs.Metrics.diff before (Obs.Metrics.snapshot ()))

let counter deltas name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name deltas))

(* The per-layer metrics read off the program's own counters, per op.
   [counter_layers] covers the hom/tgd/arena/par layers every in-process
   workload shares. *)
let counter_layers ~ops deltas =
  let n = float_of_int (max 1 ops) in
  let c = counter deltas in
  [
    m "hom.plan_compilations" "1/op" (c "plan.compilations" /. n);
    m "hom.candidates_scanned" "1/op" (c "hom.candidates_scanned" /. n);
    m "hom.unify_attempts" "1/op" (c "hom.unify_attempts" /. n);
    m "hom.backtracks" "1/op" (c "hom.backtracks" /. n);
    m "tgd.body_matches" "1/op" (c "tgd.body_matches" /. n);
    m "tgd.firings" "1/op" (c "tgd.firings" /. n);
    m "tgd.head_checks" "1/op" (c "tgd.head_checks" /. n);
    m "tgd.fire_ratio" "ratio" (c "tgd.firings" /. Float.max 1. (c "tgd.body_matches"));
    m "arena.facts" "1/op" (c "arena.facts" /. n);
    m "par.shards" "1/op" (c "par.shards" /. n);
    m "par.steals" "1/op" (c "par.steals" /. n);
  ]

(* Minor and major words allocated by [f]. *)
let gc_words = ref (0., 0.)

let with_gc f =
  let mi0, _, ma0 = Gc.counters () in
  let v = f () in
  let mi1, _, ma1 = Gc.counters () in
  let a, b = !gc_words in
  gc_words := (a +. (mi1 -. mi0), b +. (ma1 -. ma0));
  v

let gc_layers ~ops =
  let n = float_of_int (max 1 ops) in
  let mi, ma = !gc_words in
  [ m "gc.minor_words_per_op" "words/op" (mi /. n); m "gc.major_words_per_op" "words/op" (ma /. n) ]

(* Compile every body family and head plan of a ruleset once, as the
   chase does on entry; returns the plan compilations it counted (0 with
   metrics off). *)
let compile_probe deps =
  let (), deltas =
    with_counters (fun () ->
        Span.with_ "hom.plan_compile" (fun () ->
            List.iter
              (fun (d : Tgd.Dep.t) ->
                ignore (Relational.Hom.Plan.compile_family d.Tgd.Dep.body);
                ignore (Relational.Hom.Plan.compile d.Tgd.Dep.head))
              deps))
  in
  counter deltas "plan.compilations"

let span_ms_per_op ~ops name =
  Span.total_ms name /. float_of_int (max 1 ops)

(* Throughput of consecutive chunks of [k] samples (a trailing partial
   chunk is dropped unless it is the only one). *)
let chunk_rates k samples =
  let rec go acc = function
    | [] -> List.rev acc
    | l ->
        let chunk = List.filteri (fun i _ -> i < k) l in
        let rest = List.filteri (fun i _ -> i >= k) l in
        if List.length chunk < k && acc <> [] then List.rev acc
        else
          let t = List.fold_left (fun a s -> a +. s.latency_s) 0. chunk in
          go ((float_of_int (List.length chunk) /. t) :: acc) rest
  in
  go [] samples
