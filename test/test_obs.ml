(* Tests for the observability layer (lib/obs) and the three bugfixes it
   ships with:

     - Hom.find no longer early-exits via an exported exception, so a
       callback's own exceptions surface unchanged through iter_all;
     - Hom.order_atoms removes the selected atom positionally, so
       physically-shared duplicate atoms keep every occurrence;
     - bench timing goes through Obs.Clock, whose monotonize wrapper
       clamps backwards clock steps (no negative deltas).

   Plus the overhead/invariance contract: with the switches off,
   instrumentation changes no chase/hom results or stats; with tracing
   on, a chased E1 emits well-formed Chrome trace-event JSON. *)

open Relational

let edge = Symbol.make "E" 2

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let path n =
  let s = Structure.create () in
  let vs = Array.init (n + 1) (fun _ -> Structure.fresh s) in
  for i = 0 to n - 1 do
    Structure.add2 s edge vs.(i) vs.(i + 1)
  done;
  s

let atom_e x y = Atom.app2 edge (Term.var x) (Term.var y)

(* Every test must leave the global switches off. *)
let with_obs ~metrics ~tracing f =
  Obs.set_metrics metrics;
  Obs.set_tracing tracing;
  Fun.protect ~finally:Obs.disable_all f

(* --- clock ------------------------------------------------------------- *)

let test_clock_monotonize () =
  (* a raw clock that steps backwards mid-sequence *)
  let samples = ref [ 10.0; 10.5; 9.0; 9.5; 11.0 ] in
  let raw () =
    match !samples with
    | [] -> 12.0
    | t :: rest ->
        samples := rest;
        t
  in
  let clock = Obs.Clock.monotonize raw in
  let out = List.init 5 (fun _ -> clock ()) in
  Alcotest.(check (list (float 1e-9)))
    "backwards steps clamped to the running maximum"
    [ 10.0; 10.5; 10.5; 10.5; 11.0 ] out;
  (* deltas of a monotonized clock are never negative *)
  let rec deltas = function
    | a :: (b :: _ as rest) -> (b -. a) :: deltas rest
    | _ -> []
  in
  check "no negative delta" true (List.for_all (fun d -> d >= 0.) (deltas out))

let test_clock_now_monotone () =
  let t0 = Obs.Clock.now_s () in
  let t1 = Obs.Clock.now_s () in
  check "now_s non-decreasing" true (t1 >= t0)

(* --- order_atoms multiset preservation (satellite 2) ------------------- *)

let test_order_atoms_duplicates () =
  (* one physical atom, listed twice: both occurrences must survive *)
  let a = atom_e "x" "y" in
  check_int "shared duplicate kept" 2 (List.length (Hom.order_atoms [ a; a ]));
  let b = atom_e "y" "z" in
  let ordered = Hom.order_atoms [ a; b; a ] in
  check_int "triple with shared dup" 3 (List.length ordered);
  (* the result is a permutation: same multiset of (physical) atoms *)
  check_int "two copies of a" 2
    (List.length (List.filter (fun x -> x == a) ordered));
  check_int "one copy of b" 1
    (List.length (List.filter (fun x -> x == b) ordered))

let test_order_atoms_duplicate_matching () =
  (* the duplicated body must still enumerate the same homomorphisms *)
  let s = path 5 in
  let a = atom_e "x" "y" in
  let n_single = Hom.count s [ a ] in
  let n_dup = Hom.count s [ a; a ] in
  check_int "H ∧ H ≡ H" n_single n_dup;
  check_int "path5 edges" 5 n_single

(* --- iter_all / find early exit (satellite 1) -------------------------- *)

exception Probe

let test_iter_all_callback_exceptions () =
  let s = path 5 in
  let atoms = [ atom_e "x" "y" ] in
  (* the documented protocol: raise Exit from the callback to stop *)
  let seen = ref 0 in
  (try
     Hom.iter_all s atoms (fun _ ->
         incr seen;
         raise Exit)
   with Exit -> ());
  check_int "Exit stops after the first binding" 1 !seen;
  (* any other exception must surface unchanged, not be misread *)
  let raised =
    try
      Hom.iter_all s atoms (fun _ -> raise Probe);
      false
    with Probe -> true
  in
  check "callback exception surfaces unchanged" true raised

let test_find_still_works () =
  let s = path 5 in
  check "find on match" true
    (Option.is_some (Hom.find s [ atom_e "x" "y"; atom_e "y" "z" ]));
  check "find on no match" true
    (Option.is_none (Hom.find s [ atom_e "x" "x" ]));
  (* a callback that itself calls find (which early-exits internally)
     must not perturb the enclosing enumeration *)
  let n = ref 0 in
  Hom.iter_all s [ atom_e "x" "y" ] (fun _ ->
      assert (Option.is_some (Hom.find s [ atom_e "u" "v" ]));
      incr n);
  check_int "nested find does not leak its early exit" 5 !n

(* --- metrics ------------------------------------------------------------ *)

let test_metrics_registry () =
  let c = Obs.Metrics.counter "test.counter" in
  let h = Obs.Metrics.histogram "test.hist" in
  (* disabled: updates dropped *)
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 7;
  check_int "disabled incr is a no-op" 0 (Obs.Metrics.value c);
  with_obs ~metrics:true ~tracing:false (fun () ->
      let before = Obs.Metrics.snapshot () in
      Obs.Metrics.incr c;
      Obs.Metrics.add c 4;
      Obs.Metrics.observe h 7;
      check_int "enabled updates land" 5 (Obs.Metrics.value c);
      let d = Obs.Metrics.diff before (Obs.Metrics.snapshot ()) in
      check_int "diff reports the delta" 5 (List.assoc "test.counter" d));
  check "registry is idempotent per name" true
    (Obs.Metrics.counter "test.counter" == c);
  check "json renders" true
    (String.length (Obs.Metrics.to_json ()) > 0)

let test_hom_counters_flow () =
  with_obs ~metrics:true ~tracing:false (fun () ->
      let before = Obs.Metrics.snapshot () in
      let s = path 5 in
      ignore (Hom.count s [ atom_e "x" "y"; atom_e "y" "z" ]);
      let d = Obs.Metrics.diff before (Obs.Metrics.snapshot ()) in
      check "unify attempts counted" true
        (List.assoc "hom.unify_attempts" d > 0);
      check "candidates counted" true
        (List.assoc "hom.candidates_scanned" d > 0))

(* --- disabled-mode invariance ------------------------------------------- *)

let path_query k =
  let name i =
    if i = 0 then "x" else if i = k then "y" else Printf.sprintf "m%d" i
  in
  Cq.Query.make ~free:[ "x"; "y" ]
    (List.init k (fun i -> atom_e (name i) (name (i + 1))))

let chase_workload () =
  let deps = Tgd.Dep.t_q [ ("p2", path_query 2); ("p3", path_query 3) ] in
  let d = fst (Tgd.Greenred.green_canonical (path_query 5)) in
  let stats = Tgd.Chase.run ~max_stages:4 deps d in
  (d, stats)

let test_instrumentation_invariance () =
  let d_off, s_off = chase_workload () in
  let d_on, s_on =
    with_obs ~metrics:true ~tracing:true (fun () -> chase_workload ())
  in
  check "same structure with obs on" true (Structure.equal_sets d_off d_on);
  check_int "same applications" s_off.Tgd.Chase.applications
    s_on.Tgd.Chase.applications;
  check_int "same triggers considered" s_off.Tgd.Chase.triggers_considered
    s_on.Tgd.Chase.triggers_considered;
  check_int "same body matches" s_off.Tgd.Chase.body_matches
    s_on.Tgd.Chase.body_matches;
  (* and the graph engine on E1 *)
  let g_off, _, _, t_off = Separating.Tinf.chase ~stages:8 () in
  let g_on, _, _, t_on =
    with_obs ~metrics:true ~tracing:true (fun () ->
        Separating.Tinf.chase ~stages:8 ())
  in
  check "same E1 graph with obs on" true (Greengraph.Graph.equal g_off g_on);
  check_int "same E1 firings" t_off.Greengraph.Rule.applications
    t_on.Greengraph.Rule.applications

(* --- trace export -------------------------------------------------------- *)

(* A tiny validator for the JSON subset the exporter emits: values are
   objects / arrays / strings / numbers / true / false.  Returns the index
   after the parsed value or raises. *)
let rec skip_json s i =
  let n = String.length s in
  let rec ws i = if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t') then ws (i + 1) else i in
  let i = ws i in
  if i >= n then failwith "eof";
  match s.[i] with
  | '{' ->
      let rec members i first =
        let i = ws i in
        if i < n && s.[i] = '}' then i + 1
        else
          let i = if first then i else if s.[i] = ',' then ws (i + 1) else failwith "expected ," in
          let i = skip_json s i in
          let i = ws i in
          if i < n && s.[i] = ':' then members_tail (skip_json s (i + 1))
          else failwith "expected :"
      and members_tail i =
        let i = ws i in
        if i < n && s.[i] = '}' then i + 1
        else if i < n && s.[i] = ',' then
          let i = skip_json s (ws (i + 1)) in
          let i = ws i in
          if i < n && s.[i] = ':' then members_tail (skip_json s (i + 1))
          else failwith "expected :"
        else failwith "expected , or }"
      in
      members (i + 1) true
  | '[' ->
      let rec elems i first =
        let i = ws i in
        if i < n && s.[i] = ']' then i + 1
        else
          let i =
            if first then i
            else if s.[i] = ',' then ws (i + 1)
            else failwith "expected , or ]"
          in
          elems (skip_json s i) false
      in
      elems (i + 1) true
  | '"' ->
      let rec str i =
        if i >= n then failwith "unterminated string"
        else if s.[i] = '\\' then str (i + 2)
        else if s.[i] = '"' then i + 1
        else str (i + 1)
      in
      str (i + 1)
  | 't' -> i + 4
  | 'f' -> i + 5
  | c when c = '-' || (c >= '0' && c <= '9') ->
      let rec num i =
        if
          i < n
          && (s.[i] = '-' || s.[i] = '+' || s.[i] = '.' || s.[i] = 'e'
             || s.[i] = 'E'
             || (s.[i] >= '0' && s.[i] <= '9'))
        then num (i + 1)
        else i
      in
      num i
  | c -> failwith (Printf.sprintf "unexpected %c" c)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let json_well_formed s =
  match skip_json s 0 with
  | i ->
      (* nothing but whitespace may follow the top-level value *)
      String.for_all (fun c -> c = ' ' || c = '\n' || c = '\t')
        (String.sub s i (String.length s - i))
  | exception _ -> false

let test_traced_e1_run () =
  Obs.Trace.clear ();
  with_obs ~metrics:false ~tracing:true (fun () ->
      ignore (Separating.Tinf.chase ~stages:6 ()));
  check "spans were recorded" true (Obs.Trace.events () > 0);
  let json = Obs.Trace.to_json () in
  check "trace JSON is well-formed" true (json_well_formed json);
  check "has complete events" true
    (String.length json > 0 && json.[0] = '['
    && contains ~sub:"\"ph\": \"X\"" json
    && contains ~sub:"graph.stage" json
    && contains ~sub:"graph.chase(seminaive)" json);
  (* the exporter writes exactly this string *)
  let file = Filename.temp_file "redspider" ".trace.json" in
  Obs.Trace.export file;
  let ic = open_in_bin file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove file;
  Alcotest.(check string) "export writes to_json" json contents;
  Obs.Trace.clear ()

(* One oracle case under tracing splits into the audit layers: the
   structure audits (graph outputs are audited as their structures) and
   the model-checking rescans. *)
let test_traced_oracle_case () =
  Obs.Trace.clear ();
  let report =
    with_obs ~metrics:false ~tracing:true (fun () ->
        Oracle.Diff.run_cases ~seed:42 ~cases:1 ())
  in
  check_int "clean case" 0 (List.length report.Oracle.Diff.violations);
  let json = Obs.Trace.to_json () in
  check "trace JSON is well-formed" true (json_well_formed json);
  List.iter
    (fun span ->
      check (span ^ " span recorded") true
        (contains ~sub:(Printf.sprintf "%S" span) json))
    [ "oracle.audit"; "oracle.rescans" ];
  Obs.Trace.clear ()

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonize clamps" `Quick test_clock_monotonize;
          Alcotest.test_case "now_s monotone" `Quick test_clock_now_monotone;
        ] );
      ( "hom fixes",
        [
          Alcotest.test_case "order_atoms keeps duplicates" `Quick
            test_order_atoms_duplicates;
          Alcotest.test_case "duplicate body matches" `Quick
            test_order_atoms_duplicate_matching;
          Alcotest.test_case "iter_all callback exceptions" `Quick
            test_iter_all_callback_exceptions;
          Alcotest.test_case "find early exit is internal" `Quick
            test_find_still_works;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "hom counters flow" `Quick test_hom_counters_flow;
        ] );
      ( "invariance",
        [
          Alcotest.test_case "disabled obs changes nothing" `Quick
            test_instrumentation_invariance;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "traced E1 emits valid JSON" `Quick
            test_traced_e1_run;
          Alcotest.test_case "traced oracle case splits the audit" `Quick
            test_traced_oracle_case;
        ] );
    ]
