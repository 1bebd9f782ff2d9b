(* Executable specifications, over the public API.

   The model checks as they stood before [Tgd.Chase.Check]: a body-match
   scan deduplicated by frontier binding, probing each dependency with a
   short-circuiting check before materialising its trigger list.  Kept
   verbatim as the specification the frontier-key scan is held to
   ([agree] below), ticking the same [tgd.head_checks] counter so the two
   can be compared on effort too.

   The semi-oblivious chase as a separate full-rescan engine
   ([run_oblivious] below), the specification the delta pipeline's
   [`Oblivious] variant is held to ([agree_oblivious]). *)

open Relational
module Dep = Tgd.Dep

let c_matches = Obs.Metrics.counter "tgd.body_matches"
let c_considered = Obs.Metrics.counter "tgd.triggers_considered"
let c_head_checks = Obs.Metrics.counter "tgd.head_checks"

(* Restrict a body binding to the frontier of the TGD: the b̄ of the paper. *)
let frontier_binding dep binding =
  let fr = Dep.frontier dep in
  Term.Var_map.filter (fun x _ -> Term.Var_set.mem x fr) binding

(* Condition ­: D ⊨ ∃z̄ Ψ(z̄, b̄). *)
let head_satisfied d dep fb =
  if !Obs.metrics_on then Obs.Metrics.incr c_head_checks;
  Hom.exists ~init:fb d (Dep.head dep)

(* Does [dep] have at least one active trigger?  Short-circuits on the
   first one instead of materialising the trigger list. *)
let has_active_trigger dep d =
  let seen = Hashtbl.create 64 in
  let found = ref false in
  (try
     Hom.iter_all d (Dep.body dep) (fun binding ->
         let fb = frontier_binding dep binding in
         let key = Term.Var_map.bindings fb in
         if not (Hashtbl.mem seen key) then begin
           Hashtbl.replace seen key ();
           if not (head_satisfied d dep fb) then begin
             found := true;
             raise Exit
           end
         end)
   with Exit -> ());
  !found

(* The stage engine's full trigger collection: every body match of the
   compiled body plan, deduplicated per dependency by frontier key (the
   frontier elements in ascending variable-name order), head-checked
   through the compiled head plan, sorted by (dependency index, key). *)
let active_triggers deps d =
  let out = ref [] in
  List.iteri
    (fun di dep ->
      let body_plan = Hom.Plan.compile (Dep.body dep) in
      let head_plan = Hom.Plan.compile (Dep.head dep) in
      let fr_names = Array.of_list (Term.Var_set.elements (Dep.frontier dep)) in
      let fr_slots =
        Array.map (fun x -> Option.get (Hom.Plan.slot body_plan x)) fr_names
      in
      let fr_head =
        Array.map
          (fun x -> Option.value ~default:(-1) (Hom.Plan.slot head_plan x))
          fr_names
      in
      let seen = Hashtbl.create 64 in
      Hom.Plan.iter_slots body_plan d (fun slots ->
          if !Obs.metrics_on then Obs.Metrics.incr c_matches;
          let key = Array.map (fun s -> slots.(s)) fr_slots in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            if !Obs.metrics_on then Obs.Metrics.incr c_considered;
            if !Obs.metrics_on then Obs.Metrics.incr c_head_checks;
            let init = ref [] in
            Array.iteri
              (fun i s -> if s >= 0 then init := (s, key.(i)) :: !init)
              fr_head;
            if not (Hom.Plan.exists_slots ~init:!init head_plan d) then
              out := (di, dep, fr_names, key) :: !out
          end))
    deps;
  List.sort
    (fun (i1, _, _, k1) (i2, _, _, k2) ->
      let c = Int.compare i1 i2 in
      if c <> 0 then c else compare k1 k2)
    !out
  |> List.map (fun (_, dep, names, key) ->
         let m = ref Term.Var_map.empty in
         Array.iteri (fun i x -> m := Term.Var_map.add x key.(i) !m) names;
         (dep, !m))

(* The active pairs of one dependency, without materialising the other
   dependencies' triggers. *)
let active_triggers_of dep d = active_triggers [ dep ] d |> List.map snd

let models deps d = not (List.exists (fun dep -> has_active_trigger dep d) deps)

(* The first violated dependency in the order of [deps], with its least
   active frontier binding. *)
let find_violation deps d =
  List.find_map
    (fun dep ->
      if not (has_active_trigger dep d) then None
      else
        match active_triggers_of dep d with
        | fb :: _ -> Some (dep, fb)
        | [] -> None)
    deps

(* --- comparison ----------------------------------------------------------- *)

let trigger (dep, fb) = (Dep.name dep, Term.Var_map.bindings fb)

(* [agree deps d] compares the three checks on [d], the spec's against
   [Check]'s through one compiled [chk] (fresh by default): the verdict,
   then dependency names and binding lists, in order.  Returns a
   description of the first disagreement, if any. *)
let agree ?chk deps d =
  let chk =
    match chk with Some c -> c | None -> Tgd.Chase.Check.make deps
  in
  let show l =
    String.concat "; "
      (List.map
         (fun (n, b) ->
           n ^ "("
           ^ String.concat ","
               (List.map (fun (x, e) -> Printf.sprintf "%s=%d" x e) b)
           ^ ")")
         l)
  in
  let m = models deps d and m' = Tgd.Chase.Check.models chk d in
  let v = Option.map trigger (find_violation deps d)
  and v' = Option.map trigger (Tgd.Chase.Check.find_violation chk d) in
  let a = List.map trigger (active_triggers deps d)
  and a' = List.map trigger (Tgd.Chase.Check.active_triggers chk d) in
  if m <> m' then Some (Printf.sprintf "models: spec %b, check %b" m m')
  else if v <> v' then
    Some
      (Printf.sprintf "find_violation: spec [%s], check [%s]"
         (show (Option.to_list v))
         (show (Option.to_list v')))
  else if a <> a' then
    Some
      (Printf.sprintf "active_triggers: spec [%s], check [%s]" (show a)
         (show a'))
  else None

(* --- the semi-oblivious chase --------------------------------------------- *)

module G = Resilience.Governor

(* Every stage rescans every body match of the whole structure and keeps
   each first-seen (dependency index, frontier key) as a trigger; every
   trigger fires, with no head check.  Each stage fires its triggers in
   the canonical (dependency index, key) order. *)
let run_oblivious ?(max_stages = max_int) ?(stop = fun _ -> false)
    ?(on_fire = fun ~stage:_ _ _ -> ()) deps d =
  let fired = Hashtbl.create 256 in
  let applications = ref 0 and considered = ref 0 and matches = ref 0 in
  let finish i outcome =
    {
      Tgd.Chase.stages = i;
      applications = !applications;
      triggers_considered = !considered;
      body_matches = !matches;
      fixpoint = outcome = G.Fixpoint;
      outcome;
    }
  in
  let plans =
    List.map
      (fun dep ->
        let plan = Hom.Plan.compile (Dep.body dep) in
        let names = Array.of_list (Term.Var_set.elements (Dep.frontier dep)) in
        let slots = Array.map (fun x -> Option.get (Hom.Plan.slot plan x)) names in
        (dep, plan, names, slots))
      deps
  in
  let rec go i =
    if i > max_stages then finish (i - 1) (G.Budget G.Stages)
    else begin
      Structure.set_stage d i;
      let triggers = ref [] in
      List.iteri
        (fun di (dep, plan, names, fr_slots) ->
          Hom.Plan.iter_slots plan d (fun slots ->
              incr matches;
              let key = Array.map (fun s -> slots.(s)) fr_slots in
              if not (Hashtbl.mem fired (di, key)) then begin
                Hashtbl.replace fired (di, key) ();
                incr considered;
                triggers := (di, dep, names, key) :: !triggers
              end))
        plans;
      let triggers =
        List.sort
          (fun (i1, _, _, k1) (i2, _, _, k2) ->
            let c = Int.compare i1 i2 in
            if c <> 0 then c else compare k1 k2)
          !triggers
      in
      List.iter
        (fun (_, dep, names, key) ->
          let fb = ref Term.Var_map.empty in
          Array.iteri (fun j x -> fb := Term.Var_map.add x key.(j) !fb) names;
          on_fire ~stage:i dep !fb;
          Tgd.Chase.apply d dep !fb)
        triggers;
      let n = List.length triggers in
      applications := !applications + n;
      if n = 0 then finish i G.Fixpoint
      else if stop d then finish i (G.Budget G.Stop)
      else go (i + 1)
    end
  in
  go 1

(* [agree_oblivious ?tuning ?max_stages ?stop deps build] runs the spec
   and [Tgd.Chase.run ~engine:`Oblivious ?tuning] on two structures from
   [build] and
   compares facts, journal, firing sequence, stages, applications,
   [triggers_considered] and outcome — not [body_matches], which counts
   full rescans here and delta matches there.  Returns a description of
   the first disagreement, if any. *)
let agree_oblivious ?tuning ?max_stages ?stop deps build =
  let run chase =
    let firings = ref [] in
    let on_fire ~stage dep fb =
      firings := (stage, Dep.name dep, Term.Var_map.bindings fb) :: !firings
    in
    let d = build () in
    let s : Tgd.Chase.stats = chase ~on_fire d in
    (d, List.rev !firings, s)
  in
  let d, fs, s = run (fun ~on_fire -> run_oblivious ?max_stages ?stop ~on_fire deps) in
  let d', fs', s' =
    run (fun ~on_fire ->
        Tgd.Chase.run ~engine:`Oblivious ?tuning ?max_stages ?stop ~on_fire deps)
  in
  let stats (s : Tgd.Chase.stats) =
    (s.stages, s.applications, s.triggers_considered, s.outcome)
  in
  if not (Structure.equal_sets d d') then
    Some
      (Printf.sprintf "facts: spec %d, pipeline %d" (Structure.size d)
         (Structure.size d'))
  else if Structure.delta_since d 0 <> Structure.delta_since d' 0 then
    Some "journals differ"
  else if fs <> fs' then
    Some
      (Printf.sprintf "firing sequences differ (%d vs %d firings)"
         (List.length fs) (List.length fs'))
  else if stats s <> stats s' then
    Some
      (Format.asprintf "stats: spec %a, pipeline %a" Tgd.Chase.pp_stats s
         Tgd.Chase.pp_stats s')
  else None
