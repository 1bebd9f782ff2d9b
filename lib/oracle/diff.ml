(* The differential runner (see diff.mli).

   The stage/semi-naive equivalence claimed by the chase engines is
   *bit-identity*: equal fact sets including fresh element ids, equal
   journals in insertion order, and equal firing sequences.  The diff
   below checks exactly that, so any future divergence — a dedup-table
   bug, a firing-order change, a delta leak — is caught on a random
   instance and shrunk to a small witness. *)

open Relational

let fail violations fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt

(* --- budgets ------------------------------------------------------------ *)

type budget = { max_stages : int; max_elems : int; max_facts : int }

let default_budget = { max_stages = 6; max_elems = 150; max_facts = 500 }

(* --- single-engine runs -------------------------------------------------- *)

type outcome = Fixpoint | Budget_exceeded | Faulted

(* Collapse the engines' structured verdict onto the oracle's outcome:
   every budget-like ending (stage fuel, element/fact budgets, the stop
   predicate, a deadline, cancellation) is [Budget_exceeded]; an injected
   fault is its own class. *)
let outcome_of_chase (s : Tgd.Chase.stats) =
  match s.Tgd.Chase.outcome with
  | Resilience.Governor.Fixpoint -> Fixpoint
  | Resilience.Governor.Faulted _ -> Faulted
  | _ -> Budget_exceeded

let outcome_of_graph (s : Greengraph.Rule.stats) =
  match s.Greengraph.Rule.outcome with
  | Resilience.Governor.Fixpoint -> Fixpoint
  | Resilience.Governor.Faulted _ -> Faulted
  | _ -> Budget_exceeded

let pp_outcome ppf o =
  Fmt.string ppf
    (match o with
    | Fixpoint -> "fixpoint"
    | Budget_exceeded -> "budget_exceeded"
    | Faulted -> "faulted")

type firing = { at_stage : int; dep : string; frontier : (string * int) list }

type engine_run = {
  engine : Tgd.Chase.engine;
  outcome : outcome;
  stats : Tgd.Chase.stats;
  result : Structure.t;
  firings : firing list;
}

let run_tgd ?tuning budget engine inst =
  let d = Gen.build inst in
  let firings = ref [] in
  let on_fire ~stage dep fb =
    firings :=
      { at_stage = stage; dep = Tgd.Dep.name dep;
        frontier = Term.Var_map.bindings fb }
      :: !firings
  in
  let stop d =
    Structure.card d > budget.max_elems || Structure.size d > budget.max_facts
  in
  let stats =
    Tgd.Chase.run ~engine ?tuning ~max_stages:budget.max_stages ~stop ~on_fire
      inst.Gen.deps d
  in
  {
    engine;
    outcome = outcome_of_chase stats;
    stats;
    result = d;
    firings = List.rev !firings;
  }

(* --- the four-run engine diff ---------------------------------------------- *)

let pp_firing ppf f =
  Fmt.pf ppf "stage %d: %s(%a)" f.at_stage f.dep
    (Fmt.list ~sep:Fmt.comma (fun ppf (x, e) -> Fmt.pf ppf "%s=%d" x e))
    f.frontier

let first_mismatch l1 l2 =
  let rec go i = function
    | [], [] -> None
    | x :: _, [] | [], x :: _ -> Some (i, x)
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, x)
  in
  go 0 (l1, l2)

let diff_tgd budget inst =
  let violations = ref [] in
  let incomparable = ref 0 in
  let st = run_tgd budget `Stage inst in
  let sn = run_tgd budget `Seminaive inst in
  let ob = run_tgd budget `Oblivious inst in
  (* the parallel engine with staged (two-phase, arena-partitioned)
     firing forced on.  Its default tuning is no separate run: it stages
     when jobs > 1, which is this run, and is [`Seminaive] at one
     worker. *)
  let pf =
    run_tgd
      ~tuning:{ Tgd.Chase.default_tuning with Tgd.Chase.par_fire = `Staged }
      budget `Par inst
  in
  (* A pair of runs is bit-compared only when both ended the same way.
     Mixed endings (one engine cut by a budget/deadline, the other at its
     fixpoint; or a faulted run) are *incomparable* — counted, never
     reported as a spurious bit-identity violation. *)
  let comparable a b =
    if a.outcome = b.outcome then true
    else begin
      incr incomparable;
      false
    end
  in
  (* bit-identity of the lazy engines *)
  if comparable st sn then begin
    if not (Structure.equal_sets st.result sn.result) then
      fail violations "stage/seminaive structures differ: %d vs %d facts"
        (Structure.size st.result) (Structure.size sn.result);
    let j1 = Structure.delta_since st.result 0 in
    let j2 = Structure.delta_since sn.result 0 in
    (match first_mismatch j1 j2 with
    | Some (i, f) ->
        fail violations "stage/seminaive journals diverge at entry %d (%a)" i
          (Fact.pp ()) f
    | None -> ());
    (match first_mismatch st.firings sn.firings with
    | Some (i, f) ->
        fail violations
          "stage/seminaive firing sequences diverge at firing %d (%a)" i
          pp_firing f
    | None -> ());
    let s1 = st.stats and s2 = sn.stats in
    if s1.Tgd.Chase.applications <> s2.Tgd.Chase.applications then
      fail violations "applications differ: stage %d, seminaive %d"
        s1.Tgd.Chase.applications s2.Tgd.Chase.applications;
    if s1.Tgd.Chase.stages <> s2.Tgd.Chase.stages then
      fail violations "stages differ: stage %d, seminaive %d"
        s1.Tgd.Chase.stages s2.Tgd.Chase.stages;
    if s2.Tgd.Chase.triggers_considered > s1.Tgd.Chase.triggers_considered then
      fail violations
        "seminaive considered more triggers than stage (%d > %d): delta leak"
        s2.Tgd.Chase.triggers_considered s1.Tgd.Chase.triggers_considered;
    if s2.Tgd.Chase.body_matches > s1.Tgd.Chase.body_matches then
      fail violations
        "seminaive enumerated more body matches than stage (%d > %d)"
        s2.Tgd.Chase.body_matches s1.Tgd.Chase.body_matches
  end;
  (* The parallel engine is sharded semi-naive ([`Seminaive] is the same
     pipeline at one worker): bit-identical structures and firings, and —
     the merge restoring the sequential dedup — equal match/consideration
     counts.  These are *facts and journal and firings* diffs plus the
     stats fields; hom-effort counters ([hom.*] Obs metrics) are not
     compared here — with more than one worker they tick inside the pool
     and are approximate.  At one worker they are exact and equal, which
     [test_seminaive.ml] checks. *)
  let check_vs_sn name pr =
    if comparable sn pr then begin
      if not (Structure.equal_sets sn.result pr.result) then
        fail violations "seminaive/%s structures differ: %d vs %d facts" name
          (Structure.size sn.result) (Structure.size pr.result);
      (match
         first_mismatch
           (Structure.delta_since sn.result 0)
           (Structure.delta_since pr.result 0)
       with
      | Some (i, f) ->
          fail violations "seminaive/%s journals diverge at entry %d (%a)" name
            i (Fact.pp ()) f
      | None -> ());
      (match first_mismatch sn.firings pr.firings with
      | Some (i, f) ->
          fail violations
            "seminaive/%s firing sequences diverge at firing %d (%a)" name i
            pp_firing f
      | None -> ());
      let s2 = sn.stats and sp = pr.stats in
      if sp.Tgd.Chase.applications <> s2.Tgd.Chase.applications then
        fail violations "applications differ: seminaive %d, %s %d"
          s2.Tgd.Chase.applications name sp.Tgd.Chase.applications;
      if sp.Tgd.Chase.stages <> s2.Tgd.Chase.stages then
        fail violations "stages differ: seminaive %d, %s %d"
          s2.Tgd.Chase.stages name sp.Tgd.Chase.stages;
      if sp.Tgd.Chase.triggers_considered <> s2.Tgd.Chase.triggers_considered
      then
        fail violations "%s considered %d triggers, seminaive %d" name
          sp.Tgd.Chase.triggers_considered s2.Tgd.Chase.triggers_considered;
      if sp.Tgd.Chase.body_matches <> s2.Tgd.Chase.body_matches then
        fail violations "%s enumerated %d body matches, seminaive %d" name
          sp.Tgd.Chase.body_matches s2.Tgd.Chase.body_matches
    end
  in
  check_vs_sn "par(staged)" pf;
  (* Per-run invariants.  A budget-exceeded run can overshoot the fact
     budget within its final stage (stop is checked between stages), so
     the audits and the full trigger rescans are only run on results
     within a small slack of the budget — a fixpoint result is
     always within budget, so the interesting checks are never skipped. *)
  let small r =
    Structure.size r.result <= 4 * budget.max_facts
    && Structure.card r.result <= 4 * budget.max_elems
  in
  (* one model-checking compile for the case, shared by every result *)
  let chk =
    Obs.Trace.with_span "oracle.rescans" (fun () ->
        Tgd.Chase.Check.make inst.Gen.deps)
  in
  List.iter
    (fun r ->
      let name = Format.asprintf "%a" Tgd.Chase.pp_engine r.engine in
      if List.length r.firings <> r.stats.Tgd.Chase.applications then
        fail violations "[%s] %d firings recorded but %d applications counted"
          name (List.length r.firings) r.stats.Tgd.Chase.applications;
      if small r then begin
        List.iter
          (fun v -> fail violations "[%s chase output] %s" name v)
          (Audit.structure ~provenance:true r.result);
        (* a fixpoint is a model; and the global trigger scan must agree
           with [models]/[find_violation] either way *)
        let m, viol, active =
          Obs.Trace.with_span "oracle.rescans" (fun () ->
              let m = Tgd.Chase.Check.models chk r.result in
              let viol = Tgd.Chase.Check.find_violation chk r.result in
              (m, viol, Tgd.Chase.Check.active_triggers chk r.result))
        in
        if r.outcome = Fixpoint && not m then
          fail violations "[%s] reached a fixpoint that is not a model" name;
        if m <> (active = []) then
          fail violations "[%s] models=%b but %d active triggers" name m
            (List.length active);
        if m <> (viol = None) then
          fail violations "[%s] models=%b but find_violation=%s" name m
            (match viol with
            | None -> "None"
            | Some (dep, _) -> Tgd.Dep.name dep)
      end)
    [ st; sn; ob; pf ];
  (List.rev !violations, [ st; sn; ob; pf ], !incomparable)

(* --- green-graph diff ----------------------------------------------------- *)

(* A graph output is a structure and is audited as one.  Same overshoot
   guard as diff_tgd: a run that blew far past the budget is not
   audited. *)
let audit_graph_output budget g =
  let module G = Greengraph.Graph in
  if G.size g <= 4 * budget.max_facts && G.order g <= 4 * budget.max_elems then
    List.map (( ^ ) "[graph output] ") (Audit.structure (G.structure g))
  else []

(* The graph engine against its reference, the bridged rules under
   [diff_tgd]'s reference engine ([Greengraph.Bridge.reference_chase]):
   every edge, fresh vertex ids included, must come out at the same
   journal position. *)
let diff_graph budget gc =
  let module G = Greengraph.Graph in
  let module B = Greengraph.Bridge in
  let module R = Greengraph.Rule in
  let violations = ref [] in
  let g = Gen.build_graph gc in
  let d, rs =
    B.reference_chase ~max_stages:budget.max_stages
      ~stop:(fun d ->
        Structure.size d > budget.max_facts
        || Structure.card d > budget.max_elems)
      gc.Gen.rules g
  in
  let s =
    R.chase ~max_stages:budget.max_stages
      ~stop:(fun g ->
        G.size g > budget.max_facts || G.order g > budget.max_elems)
      gc.Gen.rules g
  in
  let o = outcome_of_graph s and ro = outcome_of_chase rs in
  if o = ro then begin
    if s.R.outcome <> rs.Tgd.Chase.outcome then
      fail violations "graph run ended %a, reference %a"
        Resilience.Governor.pp_outcome s.R.outcome
        Resilience.Governor.pp_outcome rs.Tgd.Chase.outcome;
    (match
       first_mismatch (G.delta_since g 0) (G.delta_since (B.of_structure d) 0)
     with
    | Some (i, (e : G.edge)) ->
        fail violations
          "graph/reference edge journals diverge at entry %d (%a %d->%d)" i
          Greengraph.Label.pp e.G.label e.G.src e.G.dst
    | None -> ());
    if s.R.applications <> rs.Tgd.Chase.applications then
      fail violations "graph applications differ: graph %d, reference %d"
        s.R.applications rs.Tgd.Chase.applications;
    if s.R.stages <> rs.Tgd.Chase.stages then
      fail violations "graph stages differ: graph %d, reference %d" s.R.stages
        rs.Tgd.Chase.stages;
    if s.R.triggers_considered > rs.Tgd.Chase.triggers_considered then
      fail violations "graph considered more pairs than the reference (%d > %d)"
        s.R.triggers_considered rs.Tgd.Chase.triggers_considered
  end;
  List.iter (fun v -> fail violations "%s" v) (audit_graph_output budget g);
  (* a graph fixpoint is a model of the rules *)
  if s.R.fixpoint && not (R.models gc.Gen.rules g) then
    fail violations "graph fixpoint is not a model of its rules";
  (List.rev !violations, [ o; ro ], if o = ro then 0 else 1)

(* --- CQ cross-checks ------------------------------------------------------ *)

let core_of fold q =
  let rec go fuel q =
    if fuel = 0 then q
    else match fold q with None -> q | Some q' -> go (fuel - 1) q'
  in
  go 64 q

(* The core-related violation of a query under [fold], if any; factored
   out so failures can be shrunk against the same predicate. *)
let core_violation fold q =
  let c = core_of fold q in
  if not (Cq.Containment.equivalent q c) then
    Some (Format.asprintf "core not equivalent to input: %a" Cq.Query.pp c)
  else if Option.is_some (Audit.fold_witness c) then
    Some
      (Format.asprintf
         "core output %a still folds (independent witness found)" Cq.Query.pp c)
  else if List.length (Cq.Query.body c) > List.length (Cq.Query.body q) then
    Some (Format.asprintf "core grew the body: %a" Cq.Query.pp c)
  else None

let cq_checks ?(fold = Cq.Containment.fold_step) r sg d =
  let violations = ref [] in
  (* Chandra–Merlin: q1 ⊆ q2 iff the frozen free tuple of q1 is an answer
     of q2 on A[q1] *)
  let q1 = Gen.query r sg in
  let q2 = Gen.query ~arity:(Cq.Query.arity q1) r sg in
  if Cq.Query.arity q1 = Cq.Query.arity q2 then begin
    let claimed = Cq.Containment.contained_in q1 q2 in
    let canon1, elem1 = Cq.Query.canonical q1 in
    let tuple =
      Array.of_list
        (List.filter_map (fun x -> elem1 x) (Cq.Query.free q1))
    in
    if Array.length tuple = Cq.Query.arity q1 then begin
      let truth = Cq.Eval.holds_at q2 canon1 tuple in
      if claimed <> truth then
        fail violations
          "contained_in %a %a = %b, but evaluation on the canonical database \
           says %b"
          Cq.Query.pp q1 Cq.Query.pp q2 claimed truth;
      (* containment must be monotone over the random instance *)
      if claimed then begin
        let a1 = Cq.Eval.answers q1 d and a2 = Cq.Eval.answers q2 d in
        if not (Cq.Eval.Tuple_set.subset a1 a2) then
          fail violations
            "claimed containment %a ⊆ %a violated on a random instance (%d vs \
             %d answers)"
            Cq.Query.pp q1 Cq.Query.pp q2
            (Cq.Eval.Tuple_set.cardinal a1)
            (Cq.Eval.Tuple_set.cardinal a2)
      end
    end
  end;
  (* cores: equivalent, minimal by the independent witness, idempotent *)
  let q = Gen.query r sg in
  (match core_violation fold q with
  | None -> ()
  | Some _ ->
      let q' =
        Gen.shrink Gen.shrink_query
          (fun q -> Option.is_some (core_violation fold q))
          q
      in
      let msg = Option.get (core_violation fold q') in
      fail violations "core audit failed on %a: %s" Cq.Query.pp q' msg);
  !violations |> List.rev

(* --- the audit harness ---------------------------------------------------- *)

type report = {
  seed : int;
  cases : int;
  engine_runs : int;
  budget_exceeded : int;
  incomparable : int;
      (* engine pairs whose outcomes differed, so bit-identity was not
         checked — counted, not a violation *)
  violations : (int * string list) list;
}

let pp_instance ppf (inst : Gen.instance) =
  Fmt.pf ppf "@[<v>%d elements%s;@ facts: %a;@ deps: %a@]" inst.Gen.n_elems
    (match inst.Gen.consts with [] -> "" | cs -> " + " ^ String.concat "," cs)
    (Fmt.list ~sep:Fmt.comma (Fact.pp ()))
    inst.Gen.facts
    (Fmt.list ~sep:(Fmt.any ";@ ") Tgd.Dep.pp)
    inst.Gen.deps

let run_cases ?(budget = default_budget) ?fold ?(from_case = 0) ~seed ~cases ()
    =
  let engine_runs = ref 0 in
  let budget_exceeded = ref 0 in
  let incomparable = ref 0 in
  let all_violations = ref [] in
  for case = from_case to from_case + cases - 1 do
    let r = Gen.case_rng ~seed ~case in
    let violations = ref [] in
    (* 1. generated instance: audit the seed structure itself *)
    let inst = Gen.instance r in
    List.iter
      (fun v -> fail violations "[seed structure] %s" v)
      (Audit.structure ~provenance:true (Gen.build inst));
    (* 2. four-run differential, shrunk on failure *)
    let dv, runs, dinc = diff_tgd budget inst in
    engine_runs := !engine_runs + List.length runs;
    incomparable := !incomparable + dinc;
    List.iter
      (fun r -> if r.outcome = Budget_exceeded then incr budget_exceeded)
      runs;
    (if dv <> [] then
       let inst' =
         Gen.shrink Gen.shrink_instance
           (fun i ->
             let v, _, _ = diff_tgd budget i in
             v <> [])
           inst
       in
       let dv', _, _ = diff_tgd budget inst' in
       List.iter
         (fun v ->
           fail violations "[tgd diff, shrunk to %a] %s" pp_instance inst' v)
         (if dv' = [] then dv else dv'));
    (* 3. CQ containment/core cross-checks over the same signature *)
    List.iter
      (fun v -> violations := v :: !violations)
      (cq_checks ?fold r inst.Gen.signature (Gen.build inst));
    (* 4. green-graph differential, shrunk on failure *)
    let gc = Gen.graph_case r in
    let gv, gruns, ginc = diff_graph budget gc in
    engine_runs := !engine_runs + List.length gruns;
    incomparable := !incomparable + ginc;
    List.iter (fun o -> if o = Budget_exceeded then incr budget_exceeded) gruns;
    (if gv <> [] then
       let gc' =
         Gen.shrink Gen.shrink_graph_case
           (fun c ->
             let v, _, _ = diff_graph budget c in
             v <> [])
           gc
       in
       let gv', _, _ = diff_graph budget gc' in
       List.iter
         (fun v ->
           fail violations "[graph diff, %d rules %d edges] %s"
             (List.length gc'.Gen.rules)
             (List.length gc'.Gen.edges)
             v)
         (if gv' = [] then gv else gv'));
    if !violations <> [] then
      all_violations := (case, List.rev !violations) :: !all_violations
  done;
  {
    seed;
    cases;
    engine_runs = !engine_runs;
    budget_exceeded = !budget_exceeded;
    incomparable = !incomparable;
    violations = List.rev !all_violations;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>audit: seed=%d cases=%d engine_runs=%d budget_exceeded=%d (%.1f%%) \
     incomparable=%d violations=%d@,%a@]"
    r.seed r.cases r.engine_runs r.budget_exceeded
    (if r.engine_runs = 0 then 0.
     else 100. *. float_of_int r.budget_exceeded /. float_of_int r.engine_runs)
    r.incomparable
    (List.length r.violations)
    (Fmt.list ~sep:Fmt.cut (fun ppf (case, vs) ->
         Fmt.pf ppf "case %d:@;<1 2>%a" case
           (Fmt.list ~sep:(Fmt.any "@;<1 2>") Fmt.string)
           vs))
    r.violations
