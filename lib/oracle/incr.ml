(* The incremental-maintenance oracle: seeded random edit scripts,
   bit-diffed against the from-scratch chase.

   Per case: a random instance (Gen.instance) is chased under
   maintenance tracking; a seeded script of base-fact insertions and
   retractions is pushed through [Tgd.Chase.Maint.apply_edit]; after
   every script the maintained structure must (a) pass the internal
   support audit, (b) model the dependencies, and (c) be hom-equivalent
   — with the generated base elements pinned — to a from-scratch
   semi-naive chase of the edited base.  A graph twin does the same
   for random green-graph rule sets, maintained as TGDs over the bridge
   and diffed against the dedicated graph engine.

   Random dependency sets routinely diverge; runs cut by the stage
   budget are counted [incomparable] and skipped, not diffed — a capped
   maintained run and a capped scratch run need not align stage for
   stage. *)

open Relational

type report = {
  seed : int;
  cases : int;
  scripts : int;        (* edit scripts actually diffed *)
  edits : int;          (* individual ops across those scripts *)
  incomparable : int;   (* cases skipped: no fixpoint within budget *)
  violations : (int * string list) list;
}

let fail violations fmt =
  Format.kasprintf (fun s -> violations := s :: !violations) fmt

(* --- scripts over a generated instance --------------------------------- *)

(* An op over the generated base: retract one of the original facts, or
   insert a fresh random fact over the instance's own elements (ids
   [0 .. n_elems + #consts), allocated before any chase null — inserted
   facts never collide with invented elements). *)
let random_op r (inst : Gen.instance) pool =
  let n = inst.Gen.n_elems + List.length inst.Gen.consts in
  if Gen.bool r && pool <> [] then Tgd.Chase.Maint.Retract (Gen.pick r pool)
  else
    let sym = Gen.pick r inst.Gen.signature in
    let args = Array.init (Symbol.arity sym) (fun _ -> Gen.int r n) in
    let f = Fact.make sym args in
    if Gen.bool r then Tgd.Chase.Maint.Insert f
    else Tgd.Chase.Maint.Retract f

let random_script r inst pool =
  List.init (Gen.range r 1 4) (fun _ -> random_op r inst pool)

(* The base fact set after a script, for the scratch replay: last op on
   a fact wins. *)
let replay_ops d ops =
  List.iter
    (function
      | Tgd.Chase.Maint.Insert f -> ignore (Structure.add_fact d f)
      | Tgd.Chase.Maint.Retract f -> ignore (Structure.retract_fact d f))
    ops

(* Hom-equivalence with the generated elements pinned (they exist on
   both sides by construction; retraction may garbage-collect one, so
   pin only those still present in both). *)
let equiv ~base a b =
  let init =
    List.filter_map
      (fun el ->
        if
          Structure.elem_stage a el <> None && Structure.elem_stage b el <> None
        then Some (el, el)
        else None)
      (Structure.elems base)
  in
  Hom.exists_between ~init a b && Hom.exists_between ~init b a

(* --- one TGD case ------------------------------------------------------- *)

(* Divergent dep sets are routine; cut them early with both stage fuel
   and size budgets (the Diff oracle's shape).  A fresh governor per run
   — deadlines and budgets are per-run state. *)
let max_stages = 8

let gov () =
  Resilience.Governor.make ~max_stages ~max_elems:120 ~max_facts:400 ()

let tgd_case r violations counters =
  let scripts, edits, incomparable = counters in
  let inst = Gen.instance r in
  let base = Gen.build inst in
  let m, s0 =
    Tgd.Chase.Maint.create ~governor:(gov ()) inst.Gen.deps
      (Structure.copy base)
  in
  if not s0.Tgd.Chase.fixpoint then incr incomparable
  else begin
    let n_scripts = Gen.range r 1 3 in
    let chk = Tgd.Chase.Check.make inst.Gen.deps in
    let applied = ref [] in
    (try
       for si = 0 to n_scripts - 1 do
         let pool =
           List.filter
             (fun f -> Structure.mem (Tgd.Chase.Maint.structure m) f)
             (Tgd.Chase.Maint.base_facts m)
         in
         let script = random_script r inst pool in
         let st = Tgd.Chase.Maint.apply_edit ~governor:(gov ()) m script in
         applied := !applied @ script;
         if not st.Tgd.Chase.Maint.e_run.Tgd.Chase.fixpoint then begin
           incr incomparable;
           raise Exit
         end;
         incr scripts;
         edits := !edits + List.length script;
         List.iter
           (fun v -> fail violations "[tgd %d] audit: %s" si v)
           (Tgd.Chase.Maint.check m);
         let d = Tgd.Chase.Maint.structure m in
         if not (Tgd.Chase.Check.models chk d) then
           fail violations "[tgd %d] maintained structure violates deps" si;
         let scr = Structure.copy base in
         replay_ops scr !applied;
         let ss = Tgd.Chase.run ~governor:(gov ()) inst.Gen.deps scr in
         if not ss.Tgd.Chase.fixpoint then begin
           incr incomparable;
           raise Exit
         end;
         if not (equiv ~base d scr) then
           fail violations
             "[tgd %d] maintained structure not hom-equivalent to scratch \
              (%d facts vs %d)"
             si (Structure.size d) (Structure.size scr)
       done
     with Exit -> ())
  end

(* --- one graph case ----------------------------------------------------- *)

(* The graph twin maintains the bridged rules ([Greengraph.Bridge]) with
   [Tgd.Chase.Maint] and diffs against the dedicated graph engine
   ([Greengraph.Rule.chase]), so the maintained result is checked by an
   engine it shares no discovery code with. *)

module GG = Greengraph.Graph
module GR = Greengraph.Rule
module B = Greengraph.Bridge

let edge_fact (l, s, d) = Fact.make (GG.symbol_of l) [| s; d |]

(* Inserted endpoints come from the pristine base's own vertices — a
   raw id range could collide with a chase-invented vertex on the
   maintained side while naming a plain new vertex on the scratch side,
   making the "same" edit mean two different things.  An op is
   [(insert?, (label, src, dst))]. *)
let random_graph_op r (case : Gen.graph_case) base_vertices pool =
  let labels =
    List.concat_map
      (fun (ru : GR.t) -> [ ru.GR.l1; ru.GR.l2; ru.GR.r1; ru.GR.r2 ])
      case.Gen.rules
    |> List.sort_uniq Greengraph.Label.compare
  in
  if Gen.bool r && pool <> [] then
    let (e : GG.edge) = Gen.pick r pool in
    (false, (e.GG.label, e.GG.src, e.GG.dst))
  else
    let l = Gen.pick r labels in
    let s = Gen.pick r base_vertices and d = Gen.pick r base_vertices in
    (Gen.bool r, (l, s, d))

let graph_case r violations counters =
  let scripts, edits, incomparable = counters in
  let case = Gen.graph_case r in
  let base = Gen.build_graph case in
  let base_vertices = List.sort compare (GG.vertices base) in
  (* a discarded draw, which keeps every later draw of the case stream
     in place *)
  ignore (Gen.bool r);
  let deps = B.tgds_of_rules case.Gen.rules in
  let sbase = B.to_structure base in
  let m, s0 =
    Tgd.Chase.Maint.create ~governor:(gov ()) deps (B.to_structure base)
  in
  if not s0.Tgd.Chase.fixpoint then incr incomparable
  else begin
    let n_scripts = Gen.range r 1 3 in
    let applied = ref [] in
    (try
       for si = 0 to n_scripts - 1 do
         let d = Tgd.Chase.Maint.structure m in
         let pool =
           List.filter
             (fun (e : GG.edge) ->
               Structure.mem d (edge_fact (e.GG.label, e.GG.src, e.GG.dst)))
             (GG.edges base)
         in
         let script =
           List.init (Gen.range r 1 4) (fun _ ->
               random_graph_op r case base_vertices pool)
         in
         let st =
           Tgd.Chase.Maint.apply_edit ~governor:(gov ()) m
             (List.map
                (fun (ins, e) ->
                  if ins then Tgd.Chase.Maint.Insert (edge_fact e)
                  else Tgd.Chase.Maint.Retract (edge_fact e))
                script)
         in
         applied := !applied @ script;
         if not st.Tgd.Chase.Maint.e_run.Tgd.Chase.fixpoint then begin
           incr incomparable;
           raise Exit
         end;
         incr scripts;
         edits := !edits + List.length script;
         List.iter
           (fun v -> fail violations "[graph %d] audit: %s" si v)
           (Tgd.Chase.Maint.check m);
         if not (GR.models case.Gen.rules (B.of_structure d)) then
           fail violations "[graph %d] maintained graph violates rules" si;
         let scr = GG.copy base in
         List.iter
           (fun (ins, (l, s, d)) ->
             ignore
               (if ins then GG.add_edge scr l s d else GG.remove_edge scr l s d))
           !applied;
         let ss = GR.chase ~governor:(gov ()) case.Gen.rules scr in
         if not ss.GR.fixpoint then begin
           incr incomparable;
           raise Exit
         end;
         let scr = B.to_structure scr in
         if not (equiv ~base:sbase d scr) then
           fail violations
             "[graph %d] maintained graph not hom-equivalent to scratch \
              (%d edges vs %d)"
             si (Structure.size d) (Structure.size scr)
       done
     with Exit -> ())
  end

(* --- the campaign ------------------------------------------------------- *)

let run_cases ?(from_case = 0) ~seed ~cases () =
  let scripts = ref 0 and edits = ref 0 and incomparable = ref 0 in
  let all_violations = ref [] in
  for case = from_case to from_case + cases - 1 do
    let r = Gen.case_rng ~seed ~case in
    let violations = ref [] in
    let counters = (scripts, edits, incomparable) in
    tgd_case r violations counters;
    graph_case r violations counters;
    if !violations <> [] then
      all_violations := (case, List.rev !violations) :: !all_violations
  done;
  {
    seed;
    cases;
    scripts = !scripts;
    edits = !edits;
    incomparable = !incomparable;
    violations = List.rev !all_violations;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>incr oracle: seed %d, %d cases, %d scripts (%d edits), %d \
     incomparable, %d violating cases@,%a@]"
    r.seed r.cases r.scripts r.edits r.incomparable (List.length r.violations)
    (Fmt.list ~sep:Fmt.cut (fun ppf (c, vs) ->
         Fmt.pf ppf "case %d:@,  %a" c
           (Fmt.list ~sep:Fmt.cut Fmt.string)
           vs))
    r.violations
