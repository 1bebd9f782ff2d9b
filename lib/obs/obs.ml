(* Observability substrate: monotonic clock, metrics registry, span
   tracing with Chrome trace-event export.

   Everything here is designed around one contract: when the switches are
   off, an instrumentation hook in a hot path costs a single [bool ref]
   check.  The instrumented libraries create their counters/histograms at
   module toplevel (creation is idempotent per name), so the per-event
   cost is only the guarded update. *)

let metrics_on = ref false
let trace_on = ref false

(* --- clock ------------------------------------------------------------ *)

module Clock = struct
  (* CLOCK_MONOTONIC via a C stub (see clock_stubs.c).  Arbitrary epoch;
     immune to NTP steps, so deadline arithmetic and span durations can
     never see time move backwards. *)
  external monotonic_s : unit -> float = "redspider_clock_monotonic_s"

  (* The wall clock.  Kept only for epoch stamps in exported artifacts
     (trace files, job manifests); never used for durations or
     deadlines. *)
  let wall_s = Unix.gettimeofday

  (* Clamp a possibly non-monotonic sampler to its running maximum: a
     backwards clock step reads as a 0-length interval instead of a
     negative one.  With [monotonic_s] on CLOCK_MONOTONIC this is belt and
     braces (the stub's wall-clock fallback is the one path that could
     still step). *)
  let monotonize sample =
    let last = ref neg_infinity in
    fun () ->
      let t = sample () in
      if t < !last then !last
      else begin
        last := t;
        t
      end

  let now_s = monotonize monotonic_s
end

(* --- JSON rendering helpers ------------------------------------------- *)

(* The names we emit are code-controlled identifiers, but escape anyway so
   a stray quote cannot corrupt the output. *)
let json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* --- metrics ---------------------------------------------------------- *)

module Metrics = struct
  type counter = { c_name : string; mutable count : int }

  (* Log-scale histogram: bucket 0 counts observations <= 0, bucket i >= 1
     counts values in [2^(i-1), 2^i).  62 buckets cover every positive
     OCaml int. *)
  type histogram = {
    h_name : string;
    buckets : int array;
    mutable n : int;
    mutable sum : int;
    mutable max : int;
  }

  let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
  let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32

  let counter name =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c = { c_name = name; count = 0 } in
        Hashtbl.replace counters name c;
        c

  let histogram name =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
        let h =
          { h_name = name; buckets = Array.make 63 0; n = 0; sum = 0; max = 0 }
        in
        Hashtbl.replace histograms name h;
        h

  let incr c = if !metrics_on then c.count <- c.count + 1
  let add c n = if !metrics_on then c.count <- c.count + n

  let bucket_of v =
    if v <= 0 then 0
    else
      let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
      go 0 v

  let observe h v =
    if !metrics_on then begin
      let b = bucket_of v in
      h.buckets.(b) <- h.buckets.(b) + 1;
      h.n <- h.n + 1;
      h.sum <- h.sum + (if v > 0 then v else 0);
      if v > h.max then h.max <- v
    end

  let value c = c.count

  let snapshot () =
    Hashtbl.fold (fun name c acc -> (name, c.count) :: acc) counters []
    |> List.sort compare

  let diff before after =
    let old = Hashtbl.create 16 in
    List.iter (fun (k, v) -> Hashtbl.replace old k v) before;
    List.filter_map
      (fun (k, v) ->
        let v0 = Option.value (Hashtbl.find_opt old k) ~default:0 in
        if v = v0 then None else Some (k, v - v0))
      after

  let reset () =
    Hashtbl.iter (fun _ c -> c.count <- 0) counters;
    Hashtbl.iter
      (fun _ h ->
        Array.fill h.buckets 0 (Array.length h.buckets) 0;
        h.n <- 0;
        h.sum <- 0;
        h.max <- 0)
      histograms

  (* Non-empty buckets of a histogram as (bucket lower bound, count). *)
  let hist_rows h =
    let rows = ref [] in
    Array.iteri
      (fun i n ->
        if n > 0 then
          rows := ((if i = 0 then 0 else 1 lsl (i - 1)), n) :: !rows)
      h.buckets;
    List.rev !rows

  let sorted_hists () =
    Hashtbl.fold (fun _ h acc -> h :: acc) histograms []
    |> List.sort (fun h1 h2 -> compare h1.h_name h2.h_name)

  let to_json () =
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\n  \"counters\": {";
    let first = ref true in
    List.iter
      (fun (name, v) ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b "\n    ";
        json_string b name;
        Buffer.add_string b (Printf.sprintf ": %d" v))
      (snapshot ());
    Buffer.add_string b "\n  },\n  \"histograms\": {";
    let first = ref true in
    List.iter
      (fun h ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b "\n    ";
        json_string b h.h_name;
        Buffer.add_string b
          (Printf.sprintf ": {\"count\": %d, \"sum\": %d, \"max\": %d, \"buckets\": [" h.n
             h.sum h.max);
        Buffer.add_string b
          (String.concat ", "
             (List.map
                (fun (lo, n) -> Printf.sprintf "[%d, %d]" lo n)
                (hist_rows h)));
        Buffer.add_string b "]}")
      (sorted_hists ());
    Buffer.add_string b "\n  }\n}\n";
    Buffer.contents b

  let pp_summary ppf () =
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun (name, v) ->
        if v <> 0 then Format.fprintf ppf "%-34s %12d@," name v)
      (snapshot ());
    List.iter
      (fun h ->
        if h.n > 0 then
          Format.fprintf ppf "%-34s n=%d sum=%d max=%d mean=%.1f@," h.h_name
            h.n h.sum h.max
            (float_of_int h.sum /. float_of_int h.n))
      (sorted_hists ());
    Format.fprintf ppf "@]"
end

(* --- tracing ---------------------------------------------------------- *)

module Trace = struct
  type event = {
    name : string;
    ts_s : float; (* absolute, Clock.now_s *)
    dur_s : float;
    args : (string * int) list;
  }

  (* Events are buffered most-recent-first and reversed at export; the
     epoch (zero point of the exported timestamps) is stamped when tracing
     is first enabled. *)
  let buffer : event list ref = ref []
  let count = ref 0
  let epoch = ref nan

  (* The wall-clock time at which the (monotonic) epoch was stamped: the
     one place wall time enters a trace, so exported (relative,
     monotonic) timestamps can be anchored to civil time. *)
  let epoch_wall = ref nan

  let stamp_epoch () =
    if Float.is_nan !epoch then begin
      epoch := Clock.now_s ();
      epoch_wall := Clock.wall_s ()
    end

  let with_span name ?args f =
    if not !trace_on then f ()
    else begin
      let t0 = Clock.now_s () in
      let finish () =
        (* tracing may have been turned off mid-span; record anyway so
           spans never dangle *)
        let dur_s = Clock.now_s () -. t0 in
        let args = match args with None -> [] | Some g -> g () in
        buffer := { name; ts_s = t0; dur_s; args } :: !buffer;
        incr count
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let events () = !count

  let clear () =
    buffer := [];
    count := 0

  (* Chrome trace-event format: a JSON array of complete ("X") events.
     Timestamps are microseconds from the trace epoch; nesting on the
     single pid/tid track is implied by interval containment. *)
  let to_json () =
    let b = Buffer.create 4096 in
    let epoch = if Float.is_nan !epoch then 0. else !epoch in
    Buffer.add_string b "[";
    let first = ref true in
    (* Anchor event: the wall-clock time of the trace epoch, as an
       instant at ts 0.  Every other timestamp is monotonic-relative. *)
    if not (Float.is_nan !epoch_wall) then begin
      first := false;
      Buffer.add_string b
        (Printf.sprintf
           "\n{\"name\": \"trace_epoch\", \"cat\": \"redspider\", \"ph\": \
            \"I\", \"pid\": 1, \"tid\": 1, \"ts\": 0.000, \"args\": \
            {\"wall_s\": %d, \"wall_us\": %d}}"
           (int_of_float !epoch_wall)
           (int_of_float (Float.rem !epoch_wall 1. *. 1e6)))
    end;
    List.iter
      (fun e ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b "\n{";
        Buffer.add_string b "\"name\": ";
        json_string b e.name;
        Buffer.add_string b
          (Printf.sprintf
             ", \"cat\": \"redspider\", \"ph\": \"X\", \"pid\": 1, \"tid\": \
              1, \"ts\": %.3f, \"dur\": %.3f"
             ((e.ts_s -. epoch) *. 1e6)
             (e.dur_s *. 1e6));
        if e.args <> [] then begin
          Buffer.add_string b ", \"args\": {";
          let afirst = ref true in
          List.iter
            (fun (k, v) ->
              if not !afirst then Buffer.add_string b ", ";
              afirst := false;
              json_string b k;
              Buffer.add_string b (Printf.sprintf ": %d" v))
            e.args;
          Buffer.add_char b '}'
        end;
        Buffer.add_char b '}')
      (List.rev !buffer);
    Buffer.add_string b "\n]\n";
    Buffer.contents b

  let export file =
    let oc = open_out file in
    output_string oc (to_json ());
    close_out oc
end

(* --- switches --------------------------------------------------------- *)

let set_metrics v = metrics_on := v

let set_tracing v =
  if v then Trace.stamp_epoch ();
  trace_on := v

let disable_all () =
  metrics_on := false;
  trace_on := false
