(* The chase (Section II.C).

   The paper's chase is "lazy": a pair (T, b̄) fires only when the body
   matches at b̄ (condition ¬) and no head witness exists yet (condition ­),
   both checked against the *current* structure.  A stage of the procedure
   of Section II.C enumerates the pairs (T, b̄) over the stage-start
   structure, then applies the surviving triggers in order, re-checking ­
   as the structure grows.

   Two trigger-discovery pipelines implement that stage semantics:

     [`Stage]     re-enumerates every body homomorphism of every TGD
                  against the whole structure at every stage — the
                  reference;
     [`Par]       matches each body only against homomorphisms using at
                  least one fact added since the previous stage (the
                  delta), exactly like semi-naive Datalog evaluation,
                  with discovery fanned out over a domain pool: workers
                  enumerate body matches over disjoint delta shards and
                  the matches are merged in canonical sort order.
     [`Seminaive] (default) is [`Par] at one worker, where the pool and
                  the merge collapse to a sequential scan.
     [`Oblivious] is the same one-worker pipeline without condition ­:
                  the semi-oblivious chase, the ablation baseline.

   Delta-restriction is sound for the lazy chase because both conditions
   are monotone in the structure: a body match wholly inside old facts was
   already discovered at an earlier stage, where it either fired (so its
   head witness now exists) or was withheld because condition ­ held (and
   head witnesses never disappear).  Either way it is inactive forever,
   so only delta-touching matches can yield new triggers.  The
   semi-oblivious chase fires each frontier key once, at its first
   discovery, so for it too an old match can never yield a new trigger.
   Within a stage every engine applies the surviving triggers in the same
   canonical order (TGD index, then frontier tuple), so the lazy engines
   build identical structures, fresh element ids included.

   Each dependency's body, delta family and head are compiled once per
   run into {!Hom.Plan}s; every stage re-evaluates the plans instead of
   re-deriving atom orders and pin choices. *)

open Relational

let c_matches = Obs.Metrics.counter "tgd.body_matches"
let c_considered = Obs.Metrics.counter "tgd.triggers_considered"
let c_firings = Obs.Metrics.counter "tgd.firings"
let c_head_checks = Obs.Metrics.counter "tgd.head_checks"
let c_merge_ms = Obs.Metrics.counter "par.merge_ms"
let c_fire_ms = Obs.Metrics.counter "par.fire_ms"

(* Same registered counter as [Pool]'s: the pool ticks it per worker on
   pooled scans; the single-shard fast path ticks it here so "par.shards"
   reads as shards-per-run for every par chase, pooled or not. *)
let c_shards = Obs.Metrics.counter "par.shards"
let h_delta = Obs.Metrics.histogram "tgd.delta_size"

module G = Resilience.Governor

type stats = {
  stages : int;              (* stages executed *)
  applications : int;        (* TGD firings *)
  triggers_considered : int; (* distinct (TGD, frontier) pairs examined *)
  body_matches : int;        (* raw body matches, before frontier dedup *)
  fixpoint : bool;           (* outcome = Fixpoint, kept for callers *)
  outcome : G.outcome;       (* how the run ended *)
}

let pp_stats ppf s =
  Fmt.pf ppf
    "stages=%d applications=%d triggers_considered=%d body_matches=%d \
     fixpoint=%b outcome=%a"
    s.stages s.applications s.triggers_considered s.body_matches s.fixpoint
    G.pp_outcome s.outcome

(* Knobs of the delta pipeline, exposed for the ablation bench and the
   oracle.  [par_fire] selects the firing path: [`Staged] forces the
   partitioned-writer staging pipeline, [`Auto] (default) stages only
   when it can pay off — more than one worker — or when a failpoint
   campaign is active, and otherwise runs the sequential delta-recheck
   replay.  [stealing] switches the worker pool between work-stealing and
   static round-robin scheduling.  Every combination is bit-identical to
   every other; only speed moves. *)
type par_tuning = { par_fire : [ `Auto | `Staged ]; stealing : bool }

let default_tuning = { par_fire = `Auto; stealing = true }

(* Frontier access precomputed at the slot level: the frontier variables
   in ascending name order (the canonical key order — [Var_set.elements]
   and [Var_map.bindings] agree on it), their slots in the relevant body
   layout, and their slots in the head plan.  The per-match hot path then
   projects an int-array frontier key straight off the evaluator's slot
   array and never touches a [Var_map]; name bindings are rebuilt only
   for triggers that actually fire. *)
type frontier_info = {
  fr_names : string array;
  fr_slots : int array;  (* body-plan or family layout *)
  fr_head : int array;   (* head-plan slots; -1 if the head omits the var *)
}

let frontier_info dep ~slot_of head_plan =
  let fr_names = Array.of_list (Term.Var_set.elements (Dep.frontier dep)) in
  let fr_slots =
    Array.map
      (fun x ->
        match slot_of x with
        | Some s -> s
        | None -> invalid_arg "frontier variable missing from body plan")
      fr_names
  in
  let fr_head =
    Array.map
      (fun x -> Option.value ~default:(-1) (Hom.Plan.slot head_plan x))
      fr_names
  in
  { fr_names; fr_slots; fr_head }

(* A compiled head for replay-based firing.  Each head-atom argument is
   either an index into the frontier key ([>= 0], encoded [2i]) or a
   negative placeholder: odd [-(2k+1)] for the k-th fresh (existential)
   variable, even [-(2c+2)] for the c-th constant, both numbered in
   first-use order over the head traversal — exactly the order {!apply}
   allocates them, so a replay creates the same elements with the same
   ids.  Constants are looked up (and possibly created) at replay time,
   never earlier: a constant first materialised mid-stage must keep its
   allocation slot between the freshes around it. *)
type fire_plan = {
  fp_syms : Symbol.t array;
  fp_args : int array array;
  fp_nfresh : int;
  fp_consts : string array;
}

let compile_fire_plan dep =
  let fr_names = Array.of_list (Term.Var_set.elements (Dep.frontier dep)) in
  let fr_index = Hashtbl.create 8 in
  Array.iteri (fun i x -> Hashtbl.replace fr_index x i) fr_names;
  let fresh = Hashtbl.create 8 in
  let consts = Hashtbl.create 8 in
  let const_list = ref [] in
  let atoms = Dep.head dep in
  let args =
    List.map
      (fun atom ->
        Array.of_list
          (List.map
             (fun t ->
               match t with
               | Term.Var x -> (
                   match Hashtbl.find_opt fr_index x with
                   | Some i -> 2 * i
                   | None -> (
                       match Hashtbl.find_opt fresh x with
                       | Some k -> -((2 * k) + 1)
                       | None ->
                           let k = Hashtbl.length fresh in
                           Hashtbl.replace fresh x k;
                           -((2 * k) + 1)))
               | Term.Cst c -> (
                   match Hashtbl.find_opt consts c with
                   | Some ci -> -((2 * ci) + 2)
                   | None ->
                       let ci = Hashtbl.length consts in
                       Hashtbl.replace consts c ci;
                       const_list := c :: !const_list;
                       -((2 * ci) + 2)))
             (Atom.args atom)))
      atoms
  in
  {
    fp_syms = Array.of_list (List.map Atom.sym atoms);
    fp_args = Array.of_list args;
    fp_nfresh = Hashtbl.length fresh;
    fp_consts = Array.of_list (List.rev !const_list);
  }

(* Fire a staged/compiled head for frontier key [key]: the placeholder
   codes resolve at first use, in head-traversal order — bit-identical
   element allocation to {!apply}. *)
let replay_fire d fp key =
  let freshes = Array.make (max fp.fp_nfresh 1) (-1) in
  let consts = Array.make (max (Array.length fp.fp_consts) 1) (-1) in
  let resolve v =
    if v >= 0 then key.(v / 2)
    else
      let m = -v in
      if m land 1 = 1 then begin
        let k = (m - 1) / 2 in
        if freshes.(k) < 0 then freshes.(k) <- Structure.fresh d;
        freshes.(k)
      end
      else begin
        let c = (m - 2) / 2 in
        if consts.(c) < 0 then
          consts.(c) <- Structure.constant d fp.fp_consts.(c);
        consts.(c)
      end
  in
  for a = 0 to Array.length fp.fp_syms - 1 do
    let args = Array.map resolve fp.fp_args.(a) in
    ignore (Structure.add_fact d (Fact.make fp.fp_syms.(a) args))
  done

(* A dependency with its compiled plans.  All are lazy so each engine
   only pays for the plans it evaluates (the stage engine never compiles
   the delta family, the delta engines never compile the full body
   plan).  [fr_stage]/[fr_delta] carry the frontier slot projections for
   the two body layouts.  [Lazy.t] is not domain-safe: two domains
   forcing the same lazy raise [CamlinternalLazy.Undefined], so the
   pooled paths force [fr_delta] (hence [body_family] and [head_plan])
   and [fire_plan] on the calling domain before any pool fan-out, and
   the workers only read the forced values. *)
type cdep = {
  dep : Dep.t;
  body_plan : Hom.Plan.t Lazy.t;
  body_family : Hom.Plan.family Lazy.t;
  head_plan : Hom.Plan.t Lazy.t;
  head_probe : Hom.Plan.prepared Lazy.t;
  fire_plan : fire_plan Lazy.t;
  fr_stage : frontier_info Lazy.t;
  fr_delta : frontier_info Lazy.t;
}

let compile_dep dep =
  let body_plan = lazy (Hom.Plan.compile (Dep.body dep)) in
  let body_family = lazy (Hom.Plan.compile_family (Dep.body dep)) in
  let head_plan =
    lazy (Hom.Plan.compile ~bound:(Dep.frontier dep) (Dep.head dep))
  in
  {
    dep;
    body_plan;
    body_family;
    head_plan;
    head_probe = lazy (Hom.Plan.prepare (Lazy.force head_plan));
    fire_plan = lazy (compile_fire_plan dep);
    fr_stage =
      lazy
        (frontier_info dep
           ~slot_of:(Hom.Plan.slot (Lazy.force body_plan))
           (Lazy.force head_plan));
    fr_delta =
      lazy
        (frontier_info dep
           ~slot_of:(Hom.Plan.family_slot (Lazy.force body_family))
           (Lazy.force head_plan));
  }

(* The frontier key of a body match: the frontier elements in canonical
   (ascending variable name) order.  Same-dependency keys compare exactly
   like the former sorted [(var, elem)] association lists, so the
   canonical firing order is unchanged. *)
let key_of fi slots = Array.map (fun s -> Array.unsafe_get slots s) fi.fr_slots

let binding_of_names names key =
  let m = ref Term.Var_map.empty in
  Array.iteri (fun i x -> m := Term.Var_map.add x key.(i) !m) names;
  !m

let binding_of_key fi key = binding_of_names fi.fr_names key

(* Condition ­ straight from a frontier key: the head plan is seeded by
   slot, skipping the binding round-trip, and probed through the
   dependency's prepared scratch.  Every caller probes from the domain
   that runs the stage, never from a pool worker. *)
let head_witnessed d cd fi key =
  if !Obs.metrics_on then Obs.Metrics.incr c_head_checks;
  let init = ref [] in
  Array.iteri
    (fun i s -> if s >= 0 then init := (s, key.(i)) :: !init)
    fi.fr_head;
  let p = Lazy.force cd.head_probe in
  Hom.Plan.retarget p d;
  Hom.Plan.exists_prepared ~init:!init p

(* Fire (T, b̄): create a fresh copy of A[Ψ] identified with D along b̄. *)
let apply d dep fb =
  let fresh_names = Hashtbl.create 8 in
  let elem_of = function
    | Term.Cst c -> Structure.constant d c
    | Term.Var x -> (
        match Term.Var_map.find_opt x fb with
        | Some e -> e
        | None -> (
            match Hashtbl.find_opt fresh_names x with
            | Some e -> e
            | None ->
                let e = Structure.fresh d in
                Hashtbl.replace fresh_names x e;
                e))
  in
  List.iter
    (fun atom ->
      let args = Array.of_list (List.map elem_of (Atom.args atom)) in
      ignore (Structure.add_fact d (Fact.make (Atom.sym atom) args)))
    (Dep.head dep)

(* Sort a stage's surviving triggers into the canonical firing order
   (TGD index, then frontier key), shared by all engines so their fresh
   elements coincide.  Keys of one dependency are equal-length int
   arrays, compared element-wise by the polymorphic compare — the same
   order the sorted association lists used to induce. *)
let sort_triggers triggers =
  List.sort
    (fun (i1, _, _, k1) (i2, _, _, k2) ->
      let c = Int.compare i1 i2 in
      if c <> 0 then c else compare k1 k2)
    triggers

let triggers_of out =
  List.map (fun (_, cd, fi, key) -> (cd, fi, key)) (sort_triggers out)

(* Examine one deduplicated body match: first-time frontier keys count as
   considerations; those with no head witness survive as triggers, and
   under [oblivious] all of them do, unchecked.  [note] observes every
   first consideration — (dependency index, key) — whether or not the
   trigger survives; the maintenance layer rebuilds its withheld-trigger
   records from it. *)
let consider_match ~oblivious ~seen ~considered ~note d di cd fi key out =
  if not (Hashtbl.mem seen key) then begin
    Hashtbl.replace seen key ();
    incr considered;
    if !Obs.metrics_on then Obs.Metrics.incr c_considered;
    note di key;
    if oblivious || not (head_witnessed d cd fi key) then
      out := (di, cd, fi, key) :: !out
  end

let no_note (_ : int) (_ : int array) = ()

(* Collect the stage's triggers by a full scan: deduplicate body matches
   per TGD by frontier key, drop those whose head is already witnessed
   (condition ­), and sort canonically.  [seen_of] supplies the per-TGD
   dedup table.  [considered] counts first-time frontier keys; [matches]
   counts every body match before dedup — the paper enumerates pairs
   (T, b̄), so two matches differing only in their existential witnesses
   are one consideration but two matches. *)
let collect_triggers ~seen_of ~considered ~matches cdeps d =
  let out = ref [] in
  List.iteri
    (fun di cd ->
      let seen = seen_of di cd in
      let fi = Lazy.force cd.fr_stage in
      Hom.Plan.iter_slots (Lazy.force cd.body_plan) d (fun slots ->
          incr matches;
          if !Obs.metrics_on then Obs.Metrics.incr c_matches;
          consider_match ~oblivious:false ~seen ~considered ~note:no_note d
            di cd fi (key_of fi slots) out))
    cdeps;
  triggers_of !out

(* The semi-naive collector: discovery over the delta as a dense
   fact-id index, chunked into contiguous id ranges.  [seen_of] supplies
   the per-TGD dedup tables, persistent across stages; [note] observes
   every first consideration (see [consider_match]).

   Fast path ([jobs <= 1], no failpoint campaign): the per-dependency
   id-level family scan runs inline with its own dedup, feeding
   [consider_match] directly — no slot-array boxing, no merge.  The
   delta index is built once per stage and shared by all dependencies.

   Parallel path: the tasks are (dependency x id-chunk) pairs executed
   by a work-stealing pool (round-robin under [stealing:false]), so one
   skewed chunk — a grid rule whose delta bucket dwarfs the others — is
   drained by whichever workers fall idle.  Workers only read the
   structure and emit raw full matches as slot arrays; the merge sorts
   each dependency's matches canonically — the family's shared slot
   layout makes the arrays comparable — then deduplicates, counts and
   head-checks sequentially.  The deduplicated match set equals the
   sequential semi-naive one (a match reachable through pivots in
   different chunks is emitted by several tasks and merged back to one),
   so stats, surviving triggers and — after the canonical trigger sort —
   the firing sequence are all bit-identical to the fast path's.
   Hom-level effort counters tick inside the workers and are approximate
   when [jobs > 1].

   Under the ["par.shard"] failpoint the scan walks
   {!Resilience.Failpoint.ladder}: a marked task dies before scanning,
   the pool re-raises after joining everyone, the whole scan is retried
   once and then degrades to the sequential fast path, whose results
   feed the same dedup, keeping faulted runs bit-identical too. *)
let collect_triggers_idx ?(note = no_note) ~oblivious ~jobs ~stealing ~seen_of
    ~considered ~matches cdeps d ~lo ~hi =
  let dix = Hom.Plan.delta_index_of d ~lo ~hi in
  let out = ref [] in
  let run_deps f = List.iteri f cdeps in
  let sequential () =
    run_deps (fun di cd ->
        let seen = seen_of di cd in
        let fi = Lazy.force cd.fr_delta in
        Hom.Plan.iter_family_ids
          (Lazy.force cd.body_family)
          d dix
          (fun slots ->
            incr matches;
            if !Obs.metrics_on then Obs.Metrics.incr c_matches;
            consider_match ~oblivious ~seen ~considered ~note d di cd fi
              (key_of fi slots) out))
  in
  if jobs <= 1 && not (Resilience.Failpoint.active ()) then begin
    (* one worker: the stage is its own single shard *)
    if !Obs.metrics_on then Obs.Metrics.incr c_shards;
    sequential ()
  end
  else begin
    let cds = Array.of_list cdeps in
    (* Force the plans on this domain: workers only read them. *)
    Array.iter (fun cd -> ignore (Lazy.force cd.fr_delta)) cds;
    let ndeps = Array.length cds in
    let m = max 1 (min jobs (max (hi - lo) 1)) in
    let ntasks = ndeps * m in
    (* Contiguous id chunks; task [t] scans dependency [t / m] over
       chunk [t mod m]. *)
    let csize = ((hi - lo) + m - 1) / m in
    let chunk c = (lo + (c * csize), min hi (lo + ((c + 1) * csize))) in
    let scan_tasks guard =
      let pool = if stealing then Pool.run_stealing ?steals:None else Pool.run in
      Some
        (pool ~jobs:m ntasks (fun t ->
             guard t;
             let di = t / m in
             let clo, chi = chunk (t mod m) in
             let acc = ref [] in
             if chi > clo then
               Hom.Plan.iter_family_ids
                 (Lazy.force cds.(di).body_family)
                 d dix ~lo:clo ~hi:chi
                 (fun slots -> acc := Array.copy slots :: !acc);
             List.rev !acc))
    in
    match
      Resilience.Failpoint.ladder ~site:"par.shard" ntasks scan_tasks
        ~degrade:(fun () -> None)
    with
    | None -> sequential ()
    | Some raw ->
        let t0 = Obs.Clock.now_s () in
        for di = 0 to ndeps - 1 do
          let cd = cds.(di) in
          let fi = Lazy.force cd.fr_delta in
          let seen = seen_of di cd in
          let acc = ref [] in
          for c = m - 1 downto 0 do
            acc := List.rev_append (List.rev raw.((di * m) + c)) !acc
          done;
          let all = List.sort compare !acc in
          let seen_full = Hashtbl.create 64 in
          List.iter
            (fun slots ->
              if not (Hashtbl.mem seen_full slots) then begin
                Hashtbl.replace seen_full slots ();
                incr matches;
                if !Obs.metrics_on then Obs.Metrics.incr c_matches;
                consider_match ~oblivious ~seen ~considered ~note d di cd fi
                  (key_of fi slots) out
              end)
            all
        done;
        if !Obs.metrics_on then
          Obs.Metrics.add c_merge_ms
            (int_of_float ((Obs.Clock.now_s () -. t0) *. 1000.))
  end;
  triggers_of !out

(* Apply the surviving triggers in order, re-checking condition ­ against
   the evolving structure; returns the number of firings.  [on_fire] sees
   each firing as it happens, in order. *)
let apply_triggers ?(on_fire = fun _ _ -> ()) triggers d =
  let fired = ref 0 in
  List.iter
    (fun (cd, fi, key) ->
      if not (head_witnessed d cd fi key) then begin
        let fb = binding_of_key fi key in
        on_fire cd.dep fb;
        apply d cd.dep fb;
        if !Obs.metrics_on then Obs.Metrics.incr c_firings;
        incr fired
      end)
    triggers;
  !fired

(* The apply-time re-check, delta-restricted.  A trigger that survived
   collection was unwitnessed against the apply-start structure, and head
   witnesses are monotone; so when the re-check runs, a witness exists
   iff some witness uses a fact added since apply start ([wm0]).
   {!Hom.Plan.exists_since} checks exactly that, over the binary-searched
   new tails of the pin buckets — near-free on the (overwhelmingly
   common) triggers whose heads nothing re-witnessed mid-stage, where the
   full {!head_witnessed} pays a complete existence search per trigger.

   Above [delta_recheck_cutoff] pivot candidates the delta-tail scan
   loses to the plain pin-driven search; below it, it is near-free.  Any
   value is correct — both branches are exact — the cutoff only moves
   wall-clock. *)
let delta_recheck_cutoff = 32

let head_witnessed_delta ~wm0 d cd fi key =
  if !Obs.metrics_on then Obs.Metrics.incr c_head_checks;
  let init = ref [] in
  Array.iteri
    (fun i s -> if s >= 0 then init := (s, key.(i)) :: !init)
    fi.fr_head;
  (* The trigger survived discovery against exactly the [< wm0]
     structure, so no witness over the old facts exists —
     {!Hom.Plan.exists_since}'s invariant — and the re-check dispatches
     between the near-free empty-tail case, the delta-pivot scan and the
     pin-driven full search, all exact here. *)
  Hom.Plan.exists_since ~min_id:wm0 ~cutoff:delta_recheck_cutoff ~init:!init
    (Lazy.force cd.head_plan) d

(* As {!apply_triggers}, with the delta-restricted re-check and the
   compiled-head replay.  Same firings, same structure, same counters
   that matter ([c_head_checks] ticks once per trigger either way); only
   the per-trigger cost drops.  The semi-naive pipeline's sequential
   firing rung; [`Stage] keeps the full re-check as the pristine
   reference.  Under [oblivious] every trigger fires, unchecked. *)
let apply_triggers_delta ?(on_fire = fun _ _ -> ()) ~oblivious triggers d =
  let wm0 = Structure.watermark d in
  let fired = ref 0 in
  List.iter
    (fun (cd, fi, key) ->
      if oblivious || not (head_witnessed_delta ~wm0 d cd fi key) then begin
        on_fire cd.dep (binding_of_key fi key);
        replay_fire d (Lazy.force cd.fire_plan) key;
        if !Obs.metrics_on then Obs.Metrics.incr c_firings;
        incr fired
      end)
    triggers;
  !fired

(* Parallel firing via partitioned writers.  Workers cannot append to
   the arena — fact ids, element allocation and the journal are
   sequential resources — so the pipeline splits firing in two:

   Phase 1 (parallel, read-only): the triggers are partitioned into
   contiguous chunks; each task *stages* its triggers' head atoms into a
   private {!Fact_arena.Staging} buffer — frontier arguments resolved to
   elements, fresh/constant placeholders kept as the fire plan's negative
   codes.  Nothing observable happens: no allocation, no index writes.

   Phase 2 (sequential, canonical): the buffers are walked in trigger
   order — chunks are contiguous, so buffer concatenation *is* the
   canonical order — and each trigger is re-checked with the
   delta-restricted condition ­ against the evolving structure; survivors
   have their staged atoms materialised, placeholders resolving at first
   use in traversal order.  That is exactly the sequence of
   {!apply_triggers_delta}, so the structure, journal and firing sequence
   are bit-identical to every other engine's.

   The ["par.fire"] failpoint kills a marked task before it stages;
   staging is side-effect-free, so {!Resilience.Failpoint.ladder} —
   retry once, then degrade to {!apply_triggers_delta} — never leaves
   partial state behind.  Under [oblivious] the merge skips the
   re-check, as that path does. *)
let apply_triggers_par ?(on_fire = fun _ _ -> ()) ~oblivious ~jobs ~stealing
    triggers d =
  let tarr = Array.of_list triggers in
  let nt = Array.length tarr in
  if nt = 0 then 0
  else begin
    let t0 = Obs.Clock.now_s () in
    let m = max 1 (min jobs nt) in
    let csize = (nt + m - 1) / m in
    let stage_chunk c =
      let s = Fact_arena.Staging.create () in
      let hi = min nt ((c + 1) * csize) in
      for t = c * csize to hi - 1 do
        let cd, _, key = tarr.(t) in
        let fp = Lazy.force cd.fire_plan in
        for a = 0 to Array.length fp.fp_syms - 1 do
          Fact_arena.Staging.stage s ~trigger:t ~atom:a
            (Array.map
               (fun v -> if v >= 0 then key.(v / 2) else v)
               fp.fp_args.(a))
        done
      done;
      s
    in
    Array.iter (fun (cd, _, _) -> ignore (Lazy.force cd.fire_plan)) tarr;
    let run_stage_tasks guard =
      let pool = if stealing then Pool.run_stealing ?steals:None else Pool.run in
      Some
        (pool ~jobs:m m (fun c ->
             guard c;
             stage_chunk c))
    in
    match
      Resilience.Failpoint.ladder ~site:"par.fire" m run_stage_tasks
        ~degrade:(fun () -> None)
    with
    | None -> apply_triggers_delta ~on_fire ~oblivious triggers d
    | Some buffers ->
        (* Canonical merge: triggers in ascending order, the re-check and
           placeholder resolution exactly as the sequential path runs
           them. *)
        let wm0 = Structure.watermark d in
        let fired = ref 0 in
        let cur = ref (-1) in
        let cur_fires = ref false in
        let freshes = ref [||] in
        let consts = ref [||] in
        let cur_fp = ref None in
        let resolve fp v =
          if v >= 0 then v
          else
            let m = -v in
            if m land 1 = 1 then begin
              let k = (m - 1) / 2 in
              if !freshes.(k) < 0 then !freshes.(k) <- Structure.fresh d;
              !freshes.(k)
            end
            else begin
              let c = (m - 2) / 2 in
              if !consts.(c) < 0 then
                !consts.(c) <- Structure.constant d fp.fp_consts.(c);
              !consts.(c)
            end
        in
        Array.iter
          (fun s ->
            Fact_arena.Staging.iter s (fun ~trigger ~atom args ->
                if trigger <> !cur then begin
                  cur := trigger;
                  let cd, fi, key = tarr.(trigger) in
                  if (not oblivious) && head_witnessed_delta ~wm0 d cd fi key
                  then begin
                    cur_fires := false;
                    cur_fp := None
                  end
                  else begin
                    cur_fires := true;
                    let fp = Lazy.force cd.fire_plan in
                    cur_fp := Some fp;
                    freshes := Array.make (max fp.fp_nfresh 1) (-1);
                    consts :=
                      Array.make (max (Array.length fp.fp_consts) 1) (-1);
                    on_fire cd.dep (binding_of_key fi key);
                    if !Obs.metrics_on then Obs.Metrics.incr c_firings;
                    incr fired
                  end
                end;
                if !cur_fires then
                  match !cur_fp with
                  | Some fp ->
                      let args = Array.map (resolve fp) args in
                      ignore
                        (Structure.add_fact d
                           (Fact.make fp.fp_syms.(atom) args))
                  | None -> ()))
          buffers;
        if !Obs.metrics_on then
          Obs.Metrics.add c_fire_ms
            (int_of_float ((Obs.Clock.now_s () -. t0) *. 1000.));
        !fired
  end

type engine = [ `Stage | `Seminaive | `Oblivious | `Par ]

let pp_engine ppf e =
  Fmt.string ppf
    (match e with
    | `Stage -> "stage"
    | `Seminaive -> "seminaive"
    | `Oblivious -> "oblivious"
    | `Par -> "par")

(* A resumable snapshot of a delta-pipeline run: the structure (a
   Marshal round-trip clone, the only journal-order-preserving copy), the
   semi-naive watermark, the per-TGD persistent dedup keys in canonical
   sorted order, and the counters.  [snap_stage] is the last *completed*
   stage; resuming continues at [snap_stage + 1] with absolute stage
   numbering, so a prefix run + resume is bit-identical to one
   uninterrupted run. *)
type snapshot = {
  snap_engine : [ `Seminaive | `Oblivious | `Par ];
  snap_stage : int;
  snap_wm : int;
  snap_seen : (int * int array list) list; (* TGD index -> sorted keys *)
  snap_considered : int;
  snap_matches : int;
  snap_applications : int;
  snap_deps : string list; (* Dep names, to reject mismatched resumes *)
  snap_structure : Structure.t;
}

(* Run the chase in place for at most [max_stages] stages, or until the
   fixpoint, until [stop] holds, or until the [governor] interrupts: the
   stage loop is {!Resilience.Governor.run_stages}.  Stage numbers stamp
   provenance into the structure: facts added at stage i belong to
   chase_i.

   [collect] abstracts the engines' trigger discovery and [apply] their
   firing path (full-recheck sequential, delta-recheck replay, or staged
   parallel); [collect] is called once per stage, after the stage stamp,
   and shares the [considered]/[matches] refs with the final stats.
   [snapshot ~stage ~applications] is the governor's snapshot hook. *)
let run_engine ~span ~governor ~max_stages ~stop ~on_fire ~considered ~matches
    ~collect ~apply ~snapshot_every ~snapshot ~start_stage ~start_applications
    d =
  let applications = ref start_applications in
  let step i =
    Structure.set_stage d i;
    let triggers = G.with_scope governor collect in
    let fired = apply (on_fire ~stage:i) triggers in
    applications := !applications + fired;
    (List.length triggers, fired)
  in
  let stages, outcome =
    Obs.Trace.with_span span (fun () ->
        G.run_stages governor ~span:"tgd.stage" ~start_stage ~max_stages
          ~sizes:(fun () -> (Structure.card d, Structure.size d))
          ~stop:(fun () -> stop d)
          ~snapshot_every
          ~snapshot:(fun i -> snapshot ~stage:i ~applications:!applications)
          step)
  in
  {
    stages;
    applications = !applications;
    triggers_considered = !considered;
    body_matches = !matches;
    fixpoint = outcome = G.Fixpoint;
    outcome;
  }

let no_fire ~stage:_ _ _ = ()
let deps_signature deps = List.map Dep.name deps

let check_resume_deps deps snap =
  if snap.snap_deps <> deps_signature deps then
    invalid_arg "Chase.resume: dependency list differs from the snapshot's"

(* The reference: a full rescan every stage, with per-stage dedup tables.
   It takes no snapshots, so it always starts at stage 0. *)
let run_stage ~governor ~max_stages ~stop ~on_fire deps d =
  let cdeps = List.map (fun dep -> compile_dep dep) deps in
  let considered = ref 0 and matches = ref 0 in
  let collect () =
    if !Obs.metrics_on then Obs.Metrics.observe h_delta (Structure.size d);
    collect_triggers
      ~seen_of:(fun _ _ -> Hashtbl.create 64)
      ~considered ~matches cdeps d
  in
  run_engine ~span:"tgd.chase(stage)" ~governor ~max_stages ~stop ~on_fire
    ~considered ~matches ~collect
    ~apply:(fun on_fire triggers -> apply_triggers ~on_fire triggers d)
    ~snapshot_every:1
    ~snapshot:(fun ~stage:_ ~applications:_ -> ())
    ~start_stage:0 ~start_applications:0 d

(* A dedup table's keys in canonical sorted order, as snapshots hold
   them. *)
let sorted_keys t = List.sort compare (Hashtbl.fold (fun k () l -> k :: l) t [])

(* The per-run persistent dedup tables of the semi-naive engines, with a
   sorted dump / reload pair for snapshots. *)
let persistent_seen ?(from = []) () =
  let tables = Hashtbl.create 8 in
  List.iter
    (fun (di, keys) ->
      let t = Hashtbl.create (max 64 (2 * List.length keys)) in
      List.iter (fun k -> Hashtbl.replace t k ()) keys;
      Hashtbl.replace tables di t)
    from;
  let get di _ =
    match Hashtbl.find_opt tables di with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 64 in
        Hashtbl.replace tables di t;
        t
  in
  let dump () =
    Hashtbl.fold (fun di t acc -> (di, sorted_keys t) :: acc) tables []
    |> List.sort compare
  in
  (get, dump)

(* The delta pipeline.  [engine] picks the variant: [`Seminaive] is one
   worker with the default tuning, [`Par] takes [jobs] (default
   [Pool.default_jobs ()]) and [tuning], [`Oblivious] is [`Seminaive]
   without condition ­.  It also labels the run (snapshot stamp, trace
   span).  [Maint] hands in its own compiled [cdeps] and live per-TGD
   [seen] tables, which the run then updates in place; otherwise both
   are built here, the tables from [from]'s dump. *)
let run_delta ~(engine : [ `Seminaive | `Oblivious | `Par ]) ?jobs
    ?(tuning = default_tuning) ?(note = no_note) ?cdeps ?seen ~governor
    ~max_stages ~stop ~on_fire ~snapshot_every ~on_snapshot ~from deps d =
  (match from with Some s -> check_resume_deps deps s | None -> ());
  let cdeps =
    match cdeps with Some c -> c | None -> List.map compile_dep deps
  in
  let start_stage, wm0, seen0, considered0, matches0, apps0 =
    match from with
    | Some s ->
        ( s.snap_stage,
          s.snap_wm,
          s.snap_seen,
          s.snap_considered,
          s.snap_matches,
          s.snap_applications )
    | None -> (0, 0, [], 0, 0, 0)
  in
  let seen_of, dump_seen =
    match seen with
    | Some tables ->
        ( (fun di _ -> tables.(di)),
          fun () ->
            Array.to_list (Array.mapi (fun di t -> (di, sorted_keys t)) tables)
        )
    | None -> persistent_seen ~from:seen0 ()
  in
  let considered = ref considered0 and matches = ref matches0 in
  (* Watermark of the previous stage's start; the first delta is the whole
     initial structure. *)
  let wm = ref wm0 in
  let snapshot ~stage ~applications =
    match on_snapshot with
    | None -> ()
    | Some f ->
        f
          {
            snap_engine = engine;
            snap_stage = stage;
            snap_wm = !wm;
            snap_seen = dump_seen ();
            snap_considered = !considered;
            snap_matches = !matches;
            snap_applications = applications;
            snap_deps = deps_signature deps;
            snap_structure = Resilience.Checkpoint.clone d;
          }
  in
  let oblivious = engine = `Oblivious in
  let jobs =
    match (engine, jobs) with
    | (`Seminaive | `Oblivious), _ -> 1
    | `Par, Some j -> max 1 j
    | `Par, None -> Pool.default_jobs ()
  in
  let collect () =
    let lo, hi = Structure.delta_ids d !wm in
    if !Obs.metrics_on then Obs.Metrics.observe h_delta (hi - lo);
    let triggers =
      collect_triggers_idx ~note ~oblivious ~jobs ~stealing:tuning.stealing
        ~seen_of ~considered ~matches cdeps d ~lo ~hi
    in
    (* advance only after a completed scan: a cancelled scan must not
       move the watermark past the last resumable boundary *)
    wm := hi;
    triggers
  in
  let apply on_fire triggers =
    let staged =
      match tuning.par_fire with
      | `Staged -> true
      | `Auto -> jobs > 1 || Resilience.Failpoint.active ()
    in
    if staged then
      apply_triggers_par ~on_fire ~oblivious ~jobs ~stealing:tuning.stealing
        triggers d
    else apply_triggers_delta ~on_fire ~oblivious triggers d
  in
  let span =
    match engine with
    | `Seminaive -> "tgd.chase(seminaive)"
    | `Oblivious -> "tgd.chase(oblivious)"
    | `Par -> "tgd.chase(par)"
  in
  run_engine ~span ~governor ~max_stages ~stop ~on_fire ~considered ~matches
    ~collect ~apply ~snapshot_every ~snapshot ~start_stage
    ~start_applications:apps0 d

(* The engine front door.  Semi-naive is the default: it implements the
   same lazy stage semantics as [`Stage] (equal structures, equal firing
   sequence) with per-stage work proportional to the delta rather than to
   the whole structure.  Every engine but [`Stage] is a variant of the
   delta pipeline; [jobs] bounds [`Par]'s worker count (ignored by the
   other engines).  [`Stage] takes no snapshots. *)
let run ?(engine = `Seminaive) ?jobs ?tuning ?(governor = G.unlimited)
    ?(max_stages = max_int) ?(stop = fun _ -> false) ?(on_fire = no_fire)
    ?(snapshot_every = 1) ?on_snapshot deps d =
  match engine with
  | `Stage -> run_stage ~governor ~max_stages ~stop ~on_fire deps d
  | (`Seminaive | `Oblivious | `Par) as engine ->
      run_delta ~engine ?jobs ?tuning ~governor ~max_stages ~stop ~on_fire
        ~snapshot_every ~on_snapshot ~from:None deps d

(* Continue a checkpointed run on the snapshot's own structure (clone the
   snapshot first to keep it reusable).  Stage numbering, the watermark,
   the persistent dedup tables and every counter pick up exactly where
   the snapshot left them, so prefix + resume is bit-identical — facts,
   firing sequence and stats — to one uninterrupted run. *)
let resume ?jobs ?tuning ?(governor = G.unlimited) ?(max_stages = max_int)
    ?(stop = fun _ -> false) ?(on_fire = no_fire) ?(snapshot_every = 1)
    ?on_snapshot deps snap =
  let d = snap.snap_structure in
  ( run_delta ~engine:snap.snap_engine ?jobs ?tuning ~governor ~max_stages
      ~stop ~on_fire ~snapshot_every ~on_snapshot ~from:(Some snap) deps d,
    d )

(* Model checking by frontier key.

   D ⊨ T iff every frontier key b̄ of T's body in D has a head witness,
   so the rescans enumerate keys, not body matches.  A body splits into
   connected components (atoms linked by shared variables); its matches
   are the product of the components' matches, so its keys are the
   product of the components' distinct frontier projections.  A
   component that binds no frontier variable (a Boolean one) only has to
   match somewhere: one [exists_slots] probe.  The scan shares nothing
   with the engines' trigger discovery but {!Hom.Plan}'s evaluator, so
   the oracle's model checks do not re-run the code they check. *)

(* A component binding frontier variables: its prepared plan, the key
   positions of those variables (ascending) and their slots in the plan.
   Every plan of a [checked] is prepared once and retargeted per scan. *)
type component = {
  cm_plan : Hom.Plan.prepared;
  cm_pos : int array;
  cm_slots : int array;
}

type checked = {
  ck_dep : Dep.t;
  ck_names : string array;  (* the frontier, in canonical key order *)
  ck_bool : Hom.Plan.prepared array;  (* components without frontier variables *)
  ck_comps : component array;  (* the others, by first key position *)
  ck_head : Hom.Plan.prepared;
  ck_head_slots : int array;  (* head slot per key position, -1 if absent *)
}

(* The body's connected components, each in body order, ordered by first
   atom: union-find over atom indices, the root of a class being its
   least index.  A variable-free atom is a component of its own. *)
let components atoms =
  let atoms = Array.of_list atoms in
  let n = Array.length atoms in
  let parent = Array.init n Fun.id in
  let rec root i =
    if parent.(i) = i then i
    else begin
      let r = root parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let owner = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      List.iter
        (function
          | Term.Var x -> (
              match Hashtbl.find_opt owner x with
              | None -> Hashtbl.replace owner x i
              | Some j ->
                  let ri = root i and rj = root j in
                  parent.(max ri rj) <- min ri rj)
          | Term.Cst _ -> ())
        (Atom.args a))
    atoms;
  let groups = Array.make n [] in
  for i = n - 1 downto 0 do
    let r = root i in
    groups.(r) <- atoms.(i) :: groups.(r)
  done;
  List.filter (fun g -> g <> []) (Array.to_list groups)

let check_dep dep =
  let names = Array.of_list (Term.Var_set.elements (Dep.frontier dep)) in
  let bools = ref [] and comps = ref [] in
  List.iter
    (fun atoms ->
      let plan = Hom.Plan.compile atoms in
      let pos = ref [] and slots = ref [] in
      for i = Array.length names - 1 downto 0 do
        match Hom.Plan.slot plan names.(i) with
        | Some s ->
            pos := i :: !pos;
            slots := s :: !slots
        | None -> ()
      done;
      if !pos = [] then bools := Hom.Plan.prepare plan :: !bools
      else
        comps :=
          {
            cm_plan = Hom.Plan.prepare plan;
            cm_pos = Array.of_list !pos;
            cm_slots = Array.of_list !slots;
          }
          :: !comps)
    (components (Dep.body dep));
  let head = Hom.Plan.compile ~bound:(Dep.frontier dep) (Dep.head dep) in
  {
    ck_dep = dep;
    ck_names = names;
    ck_bool = Array.of_list (List.rev !bools);
    ck_comps =
      Array.of_list
        (List.sort (fun a b -> Int.compare a.cm_pos.(0) b.cm_pos.(0)) !comps);
    ck_head = Hom.Plan.prepare head;
    ck_head_slots =
      Array.map
        (fun x -> Option.value ~default:(-1) (Hom.Plan.slot head x))
        names;
  }

(* The canonical key order: lexicographic, as [compare] orders
   same-length int arrays. *)
let compare_key (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* A component's distinct frontier projections, each passed to [each]
   (a fresh array) as the enumeration first finds it. *)
let iter_projections cm d each =
  let seen = Hashtbl.create 16 in
  let buf = Array.make (Array.length cm.cm_slots) 0 in
  Hom.Plan.retarget cm.cm_plan d;
  Hom.Plan.iter_prepared cm.cm_plan (fun slots ->
      Array.iteri (fun j s -> buf.(j) <- slots.(s)) cm.cm_slots;
      if not (Hashtbl.mem seen buf) then begin
        let proj = Array.copy buf in
        Hashtbl.replace seen proj ();
        each proj
      end)

let projections cm d =
  let out = ref [] in
  iter_projections cm d (fun proj -> out := proj :: !out);
  Array.of_list (List.rev !out)

(* Every frontier key of the body in [d], once each, as the product of
   the components' projections.  The Boolean components are probed
   first, and the scan stops at the first component without a match.
   The last component is streamed on the first pass over it, so a caller
   that stops at its first key need not enumerate the whole component.
   [f] receives a live array: copy it before storing it. *)
let iter_keys ck d f =
  let exception No_match in
  let n = Array.length ck.ck_comps in
  let projs = Array.make n [||] in
  let rec all_match i =
    i >= n - 1
    || begin
         projs.(i) <- projections ck.ck_comps.(i) d;
         Array.length projs.(i) > 0 && all_match (i + 1)
       end
  in
  let probe p =
    Hom.Plan.retarget p d;
    Hom.Plan.exists_prepared p
  in
  if Array.for_all probe ck.ck_bool && all_match 0 then begin
    Hom.Plan.retarget ck.ck_head d;
    let key = Array.make (Array.length ck.ck_names) 0 in
    let set i proj =
      Array.iteri (fun j p -> key.(p) <- proj.(j)) ck.ck_comps.(i).cm_pos
    in
    let streamed = ref false in
    let rec fill i =
      if i >= n then f key
      else if i < n - 1 || !streamed then
        Array.iter
          (fun proj ->
            set i proj;
            fill (i + 1))
          projs.(i)
      else begin
        streamed := true;
        let found = ref [] in
        iter_projections ck.ck_comps.(i) d (fun proj ->
            found := proj :: !found;
            set i proj;
            f key);
        if !found = [] then raise_notrace No_match;
        projs.(i) <- Array.of_list (List.rev !found)
      end
    in
    try fill 0 with No_match -> ()
  end

(* [scan ?skip ck d f] calls [f] on every key without a head witness
   (condition ­ fails), in enumeration order, leaving out the head check
   — and the key — wherever [skip key]. *)
let scan ?(skip = fun _ -> false) ck d f =
  iter_keys ck d (fun key ->
      if not (skip key) then begin
        if !Obs.metrics_on then Obs.Metrics.incr c_head_checks;
        let init = ref [] in
        Array.iteri
          (fun i s -> if s >= 0 then init := (s, key.(i)) :: !init)
          ck.ck_head_slots;
        if not (Hom.Plan.exists_prepared ~init:!init ck.ck_head) then
          f key
      end)

module Check = struct
  type t = checked list

  exception Violated

  let make deps = List.map check_dep deps

  let models t d =
    List.for_all
      (fun ck ->
        match scan ck d (fun _ -> raise_notrace Violated) with
        | () -> true
        | exception Violated -> false)
      t

  (* Any key not below the least unwitnessed one so far cannot replace
     it, so its head check is skipped. *)
  let find_violation t d =
    List.find_map
      (fun ck ->
        let best = ref None in
        let skip key =
          match !best with None -> false | Some b -> compare_key key b >= 0
        in
        scan ~skip ck d (fun key -> best := Some (Array.copy key));
        Option.map
          (fun key -> (ck.ck_dep, binding_of_names ck.ck_names key))
          !best)
      t

  let active_triggers t d =
    List.concat_map
      (fun ck ->
        let keys = ref [] in
        scan ck d (fun key -> keys := Array.copy key :: !keys);
        List.map
          (fun key -> (ck.ck_dep, binding_of_names ck.ck_names key))
          (List.sort compare_key !keys))
      t
end

let models deps d = Check.models (Check.make deps) d
let find_violation deps d = Check.find_violation (Check.make deps) d
let active_triggers deps d = Check.active_triggers (Check.make deps) d

(* Incremental maintenance of a chased structure under base edits
   (insertions AND retractions), in the spirit of counting / DRed view
   maintenance, but over the lazy chase rather than Datalog.

   The chase is non-monotone (condition ­ withholds a firing when a head
   witness already exists), so maintaining the *identical* structure that
   a from-scratch chase would build is hopeless in general: retracting
   the fact that witnessed a head un-withholds an old trigger whose
   firing order can no longer be replayed.  What CAN be maintained
   cheaply is a *universal model* of the edited base: every fact kept
   alive is grounded in a derivation from the edited base, and the
   structure is run back to a chase fixpoint.  Such a structure is
   hom-equivalent to the from-scratch chase, so every CQ answer over
   constants — the view level served to clients — is bit-identical.

   Bookkeeping, rebuilt from the engine's own journals after each run:

   - a FIRED record per fired (TGD, frontier key): one body witness (the
     instantiated body atoms of a match), the full head instance it
     created (its products — including head atoms that were already
     present, recovered by replaying the fire plan against the journal
     segment), and the support edges product -> record;
   - a WITHHELD record per considered-but-witnessed key: the head
     instance that witnessed it;
   - [uses]: fact -> records whose recorded witness mentions it.

   Retraction = counting cascade + DRed re-exam: kill records whose
   witness died, over-delete products whose support count reaches zero
   (base facts count as their own support), then re-examine each killed
   key in canonical (TGD, key) order — a frontier-bound [Hom.find] —
   re-withholding, re-firing (re-adding the recorded head instance, so
   surviving nulls keep their identity), or leaving it dead.  Insertions
   and re-fired products land past the pre-edit watermark, so one
   semi-naive continuation — an ordinary [run_delta] resumed from a
   synthetic snapshot, over Maint's own compiled plans and its live
   key tables — runs the structure back to a fixpoint.  The key tables
   hold exactly the keys of the alive records: they gain a key wherever
   a record is born or revived and lose it wherever one is killed, and
   the engine dedups against them directly, so no edit pays to dump and
   reload every live key.  Preemption comes for free: the
   continuation takes any governor, and a cut run leaves the records
   conservative (unconsumed delta is rescanned on the next slice). *)
module Maint = struct
  type op = Insert of Fact.t | Retract of Fact.t

  type record = {
    r_di : int;
    r_key : int array;
    mutable r_witness : Fact.t array; (* body witness of a fired record *)
    mutable r_products : Fact.t array; (* full head instance of a firing *)
    mutable r_born : bool array;
        (* per product: was it added by THIS firing?  Only born facts
           draw support from the record — a pre-existing head atom has
           its own derivation, and counting it here would forge a
           support cycle (the atom witnessing a record that props the
           atom up).  Pre-existing atoms register in [m_uses] instead:
           their death voids the head instance and kills the record. *)
    mutable r_head_wit : Fact.t array; (* head witness of a withheld one *)
    mutable r_fired : bool;
    mutable r_alive : bool;
  }

  type t = {
    m_deps : Dep.t list;
    m_dep_arr : Dep.t array;
    m_cdeps : cdep array;
    m_frnames : string array array; (* frontier vars, canonical order *)
    m_d : Structure.t;
    m_recs : (int array, record) Hashtbl.t array; (* per dep: key -> record *)
    m_seen : (int array, unit) Hashtbl.t array;
        (* per dep: the keys of the alive records — the engine's dedup *)
    m_supports : record list ref Fact.Tbl.t; (* product -> producing records *)
    m_uses : record list ref Fact.Tbl.t; (* witness fact -> records *)
    m_base : unit Fact.Tbl.t;
    mutable m_stage : int; (* last completed absolute stage *)
    mutable m_wm : int; (* continuation watermark *)
    mutable m_considered : int;
    mutable m_matches : int;
    mutable m_applications : int;
    mutable m_pending : bool; (* last run ended short of fixpoint *)
    mutable m_grave : int; (* records evicted from [m_recs], not yet swept *)
  }

  type edit_stats = {
    e_retracted : int; (* base retractions processed *)
    e_inserted : int; (* base facts newly added *)
    e_killed : int; (* facts over-deleted by the cascade *)
    e_refired : int; (* re-exam re-derivations *)
    e_rewithheld : int; (* re-exam keys re-witnessed *)
    e_run : stats; (* the continuation run *)
  }

  let structure t = t.m_d
  let pending t = t.m_pending
  (* In journal order (newest first, as [Structure.facts]): the oracle
     draws edit scripts from this list by index, so its order must not
     follow [Fact.hash].  Base facts are always live. *)
  let base_facts t =
    List.filter (fun f -> Fact.Tbl.mem t.m_base f) (Structure.facts t.m_d)

  let di_of t dep =
    let n = Array.length t.m_dep_arr in
    let rec go i =
      if i >= n then invalid_arg "Chase.Maint: unknown dependency"
      else if t.m_dep_arr.(i) == dep then i
      else go (i + 1)
    in
    go 0

  let key_of_binding fb =
    Array.of_list (List.map snd (Term.Var_map.bindings fb))

  let binding_of_key' t di key = binding_of_names t.m_frnames.(di) key

  (* Instantiate atoms under a full binding (constants resolve through the
     structure's constant table — they exist, the atoms matched). *)
  let inst_atoms d b atoms =
    Array.of_list
      (List.map
         (fun atom ->
           let args =
             List.map
               (fun tm ->
                 match tm with
                 | Term.Cst c -> Structure.constant d c
                 | Term.Var x -> Term.Var_map.find x b)
               (Atom.args atom)
           in
           Fact.make (Atom.sym atom) (Array.of_list args))
         atoms)

  let body_binding t di key =
    Hom.find ~init:(binding_of_key' t di key) t.m_d
      (Dep.body t.m_dep_arr.(di))

  let body_witness t di key =
    match body_binding t di key with
    | None -> None
    | Some b -> Some (inst_atoms t.m_d b (Dep.body t.m_dep_arr.(di)))

  (* A body witness whose facts all predate journal position [wm] — the
     structure as the firing saw it.  An arbitrary current match could
     include the firing's own products ("R1(y) matched by the R1(v) this
     very record added"), making the record self-justifying: support
     must be well-founded in firing order, so each witness may only use
     facts born strictly before the fire. *)
  let body_witness_before t di key wm =
    let body = Dep.body t.m_dep_arr.(di) in
    let found = ref None in
    (try
       Hom.iter_all ~init:(binding_of_key' t di key) t.m_d body (fun b ->
           let w = inst_atoms t.m_d b body in
           if
             Array.for_all
               (fun f ->
                 match Structure.fact_id t.m_d f with
                 | Some id -> id < wm
                 | None -> false)
               w
           then begin
             found := Some w;
             raise Exit
           end)
     with Exit -> ());
    !found

  let head_witness t di key =
    match
      Hom.find ~init:(binding_of_key' t di key) t.m_d
        (Dep.head t.m_dep_arr.(di))
    with
    | None -> None
    | Some b -> Some (inst_atoms t.m_d b (Dep.head t.m_dep_arr.(di)))

  let add_edge tbl f r =
    match Fact.Tbl.find_opt tbl f with
    | Some rs -> if not (List.memq r !rs) then rs := r :: !rs
    | None -> Fact.Tbl.replace tbl f (ref [ r ])

  let supported t f =
    match Fact.Tbl.find_opt t.m_supports f with
    | Some rs -> List.exists (fun r -> r.r_alive && r.r_fired) !rs
    | None -> false

  (* A record evicted from [m_recs] by a newer firing of its key can
     never be revived (re-exam requires it to still be current), but it
     lingers in the per-fact support/use lists, where every cascade walk
     and [add_edge] dedup pays for it — left alone, the cost of an edit
     grows with the whole edit history, not the live instance.  Amortized
     sweep: once the graveyard outgrows the live population, rebuild both
     tables keeping only records still current for their key.  Alive
     records are always current (the engine only fires unseen keys, and
     seen = alive), so the sweep drops exactly the unrevivable. *)
  let current t r =
    match Hashtbl.find_opt t.m_recs.(r.r_di) r.r_key with
    | Some r' -> r' == r
    | None -> false

  let compact t =
    let live =
      Array.fold_left (fun n tbl -> n + Hashtbl.length tbl) 0 t.m_recs
    in
    if t.m_grave > 64 + live then begin
      let sweep tbl =
        let empty = ref [] in
        Fact.Tbl.iter
          (fun f rs ->
            let rs' = List.filter (current t) !rs in
            if rs' = [] then empty := f :: !empty else rs := rs')
          tbl;
        List.iter (Fact.Tbl.remove tbl) !empty
      in
      sweep t.m_supports;
      sweep t.m_uses;
      t.m_grave <- 0
    end

  (* The full head instance of a firing, from its fire plan, frontier key
     and journal segment (the facts the firing actually added, in
     traversal order).  Head atoms already present at fire time are
     missing from the segment; the replay walks the atoms in plan order,
     consuming segment facts exactly when an atom introduces an unseen
     fresh element (a fact with a brand-new element cannot pre-exist, so
     every first-use atom is in the segment), and recomputes the others
     from the resolved placeholders.  Each instance atom comes with a
     born flag: did THIS firing add the fact (it was consumed from the
     segment), or did it pre-exist? *)
  let full_head_instance d fp key segment =
    let freshes = Array.make (max fp.fp_nfresh 1) (-1) in
    let wi = ref 0 in
    let out = ref [] in
    let born = ref [] in
    let natoms = Array.length fp.fp_syms in
    for a = 0 to natoms - 1 do
      let codes = fp.fp_args.(a) in
      let unresolved =
        Array.exists
          (fun v -> v < 0 && -v land 1 = 1 && freshes.((-v - 1) / 2) < 0)
          codes
      in
      if unresolved then begin
        if !wi >= Array.length segment then
          invalid_arg "Chase.Maint: fire replay desynchronised";
        let p = segment.(!wi) in
        incr wi;
        let pargs = Fact.args p in
        Array.iteri
          (fun pos v ->
            if v < 0 && -v land 1 = 1 then begin
              let k = (-v - 1) / 2 in
              if freshes.(k) < 0 then freshes.(k) <- pargs.(pos)
            end)
          codes;
        out := p :: !out;
        born := true :: !born
      end
      else begin
        let args =
          Array.map
            (fun v ->
              if v >= 0 then key.(v / 2)
              else
                let m = -v in
                if m land 1 = 1 then freshes.((m - 1) / 2)
                else Structure.constant d fp.fp_consts.((m - 2) / 2))
            codes
        in
        let g = Fact.make fp.fp_syms.(a) args in
        let added =
          !wi < Array.length segment && Fact.equal segment.(!wi) g
        in
        if added then incr wi;
        out := g :: !out;
        born := added :: !born
      end
    done;
    (Array.of_list (List.rev !out), Array.of_list (List.rev !born))

  (* Register a fired record against its head instance: born facts draw
     support from it, pre-existing ones become uses (their death kills
     the record, like a witness). *)
  let register_products t r =
    Array.iteri
      (fun i g ->
        if r.r_born.(i) then add_edge t.m_supports g r
        else add_edge t.m_uses g r)
      r.r_products

  (* Key-table upkeep: a key is seen exactly while its record is alive. *)
  let set_seen t r = Hashtbl.replace t.m_seen.(r.r_di) r.r_key ()
  let unset_seen t r = Hashtbl.remove t.m_seen.(r.r_di) r.r_key

  (* Run the engine from the current watermark with the live key tables
     as seen state, observing every firing and first consideration, then
     fold the run's journals back into records.  The engine adds every
     key it considers to the tables; a considered key that ends without
     an alive record is taken out again below. *)
  let tracked_run ?(governor = G.unlimited) ?(max_stages = max_int) t =
    let d = t.m_d in
    let fire_log = ref [] in
    let consider_log = ref [] in
    let cur_stage = ref (-1) in
    let stage_wm = ref t.m_wm in
    let fired_any = ref false in
    let on_fire ~stage dep fb =
      let di = di_of t dep in
      let key = key_of_binding fb in
      let wm = Structure.watermark d in
      if stage <> !cur_stage then begin
        cur_stage := stage;
        stage_wm := wm
      end;
      fired_any := true;
      fire_log := (di, key, wm) :: !fire_log
    in
    let note di key = consider_log := (di, key) :: !consider_log in
    let snap =
      {
        snap_engine = `Seminaive;
        snap_stage = t.m_stage;
        snap_wm = t.m_wm;
        snap_seen = [] (* the live tables go in as [seen] *);
        snap_considered = t.m_considered;
        snap_matches = t.m_matches;
        snap_applications = t.m_applications;
        snap_deps = deps_signature t.m_deps;
        snap_structure = d;
      }
    in
    let abs_max =
      if max_stages = max_int then max_int else t.m_stage + max_stages
    in
    let stats =
      run_delta ~engine:`Seminaive ~note ~cdeps:(Array.to_list t.m_cdeps)
        ~seen:t.m_seen ~governor ~max_stages:abs_max
        ~stop:(fun _ -> false)
        ~on_fire ~snapshot_every:1 ~on_snapshot:None ~from:(Some snap) t.m_deps
        d
    in
    t.m_stage <- stats.stages;
    t.m_considered <- stats.triggers_considered;
    t.m_matches <- stats.body_matches;
    t.m_applications <- stats.applications;
    t.m_pending <- stats.outcome <> G.Fixpoint;
    (* Where must the next continuation rescan from?  After a clean
       fixpoint: nothing.  After a budget cut at a stage boundary the
       engine's watermark sat at the last completed stage's collect
       point — the watermark seen by that stage's first firing.  A
       cancelled or faulted run may have died mid-stage; keeping the old
       watermark merely rescans (records dedup), never loses. *)
    (match stats.outcome with
    | G.Fixpoint -> t.m_wm <- Structure.watermark d
    | G.Budget _ | G.Deadline -> if !fired_any then t.m_wm <- !stage_wm
    | G.Cancelled | G.Faulted _ -> ());
    (* A fault strikes inside a firing (the arena fails to grow while a
       head atom is added), so the last firing of a faulted stage may be
       partial and cannot be replayed into a record.  Roll it back — its
       journal segment holds only facts it added, and nothing newer
       used them — and leave its key to the continuation's rescan. *)
    (match (stats.outcome, !fire_log) with
    | G.Faulted _, (_, _, wm) :: rest when !cur_stage > stats.stages ->
        for id = wm to Structure.watermark d - 1 do
          if Structure.live_id d id then
            ignore (Structure.retract_fact d (Structure.id_fact d id))
        done;
        fire_log := rest
    | _ -> ());
    (* Fold the firing journal into FIRED records: products are the
       journal segment between consecutive firings, completed to the full
       head instance by the fire-plan replay. *)
    let fires = Array.of_list (List.rev !fire_log) in
    let final_wm = Structure.watermark d in
    Array.iteri
      (fun i (di, key, wm) ->
        let wm_next =
          if i + 1 < Array.length fires then
            let _, _, w = fires.(i + 1) in
            w
          else final_wm
        in
        let seg =
          Array.init (wm_next - wm) (fun j -> Structure.id_fact d (wm + j))
        in
        let fp = Lazy.force t.m_cdeps.(di).fire_plan in
        let products, born = full_head_instance d fp key seg in
        let r =
          {
            r_di = di;
            r_key = key;
            r_witness = [||];
            r_products = products;
            r_born = born;
            r_head_wit = [||];
            r_fired = true;
            r_alive = true;
          }
        in
        if Hashtbl.mem t.m_recs.(di) key then t.m_grave <- t.m_grave + 1;
        Hashtbl.replace t.m_recs.(di) key r;
        set_seen t r;
        register_products t r)
      fires;
    (* Witness pass, after the structure settled: nothing is deleted
       during a run, so the firing-time body match — all its facts below
       the fire watermark — is still live and is found again.  (The
       unbounded fallback is unreachable; it merely keeps a desync
       non-fatal.) *)
    Array.iter
      (fun (di, key, wm) ->
        match Hashtbl.find_opt t.m_recs.(di) key with
        | Some r when r.r_alive && r.r_fired && r.r_witness = [||] -> (
            match
              match body_witness_before t di key wm with
              | Some w -> Some w
              | None -> body_witness t di key
            with
            | Some w ->
                r.r_witness <- w;
                Array.iter (fun f -> add_edge t.m_uses f r) w
            | None -> ())
        | _ -> ())
      fires;
    (* Considered-but-unfired keys become WITHHELD records — unless no
       head witness exists yet (a pending trigger of an aborted stage),
       in which case the key stays unseen and the conservative watermark
       guarantees rediscovery. *)
    List.iter
      (fun (di, key) ->
        match Hashtbl.find_opt t.m_recs.(di) key with
        | Some r when r.r_alive -> ()
        | _ -> (
            match head_witness t di key with
            | Some hw ->
                let r =
                  {
                    r_di = di;
                    r_key = key;
                    r_witness = [||];
                    r_products = [||];
                    r_born = [||];
                    r_head_wit = hw;
                    r_fired = false;
                    r_alive = true;
                  }
                in
                if Hashtbl.mem t.m_recs.(di) key then
                  t.m_grave <- t.m_grave + 1;
                Hashtbl.replace t.m_recs.(di) key r;
                Array.iter (fun f -> add_edge t.m_uses f r) hw
            | None -> Hashtbl.remove t.m_seen.(di) key))
      (List.rev !consider_log);
    stats

  (* Chase the base structure to a fixpoint under maintenance tracking.
     Every fact already in [d] is a base fact. *)
  let create ?governor ?max_stages deps d =
    let dep_arr = Array.of_list deps in
    let t =
      {
        m_deps = deps;
        m_dep_arr = dep_arr;
        m_cdeps = Array.map compile_dep dep_arr;
        m_frnames =
          Array.map
            (fun dep ->
              Array.of_list (Term.Var_set.elements (Dep.frontier dep)))
            dep_arr;
        m_d = d;
        m_recs = Array.map (fun _ -> Hashtbl.create 64) dep_arr;
        m_seen = Array.map (fun _ -> Hashtbl.create 64) dep_arr;
        m_supports = Fact.Tbl.create 256;
        m_uses = Fact.Tbl.create 256;
        m_base = Fact.Tbl.create 64;
        m_stage = 0;
        m_wm = 0;
        m_considered = 0;
        m_matches = 0;
        m_applications = 0;
        m_pending = false;
        m_grave = 0;
      }
    in
    Structure.iter_facts d (fun f -> Fact.Tbl.replace t.m_base f ());
    let stats = tracked_run ?governor ?max_stages t in
    (t, stats)

  (* Resume a continuation cut by the governor (preemption slice). *)
  let continue_ ?governor ?max_stages t = tracked_run ?governor ?max_stages t

  let apply_edit ?governor ?max_stages t ops =
    if t.m_pending then
      invalid_arg "Chase.Maint.apply_edit: continuation pending (continue_)";
    compact t;
    let d = t.m_d in
    Structure.set_stage d t.m_stage;
    (* Net effect per fact: the last op wins. *)
    let net = Fact.Tbl.create 16 in
    List.iter
      (function
        | Insert f -> Fact.Tbl.replace net f true
        | Retract f -> Fact.Tbl.replace net f false)
      ops;
    let part want =
      Fact.Tbl.fold (fun f v acc -> if v = want then f :: acc else acc) net []
      |> List.sort Fact.compare
    in
    let retracts = part false and inserts = part true in
    (* Counting cascade: drop base flags, over-delete unsupported facts,
       kill every record whose recorded witness died. *)
    let killq = Queue.create () in
    let n_retracted = ref 0 and n_killed = ref 0 in
    let reexam = ref [] in
    List.iter
      (fun f ->
        if Fact.Tbl.mem t.m_base f then begin
          Fact.Tbl.remove t.m_base f;
          incr n_retracted
        end;
        if Structure.mem d f && not (supported t f) then Queue.add f killq)
      retracts;
    while not (Queue.is_empty killq) do
      let f = Queue.pop killq in
      if
        Structure.mem d f
        && (not (Fact.Tbl.mem t.m_base f))
        && not (supported t f)
      then begin
        ignore (Structure.retract_fact d f);
        incr n_killed;
        match Fact.Tbl.find_opt t.m_uses f with
        | None -> ()
        | Some rs ->
            List.iter
              (fun r ->
                if r.r_alive then begin
                  r.r_alive <- false;
                  unset_seen t r;
                  reexam := r :: !reexam;
                  if r.r_fired then
                    (* only born products drew support from this record;
                       pre-existing head atoms have their own lifeline *)
                    Array.iteri
                      (fun i g ->
                        if
                          r.r_born.(i)
                          && Structure.mem d g
                          && (not (Fact.Tbl.mem t.m_base g))
                          && not (supported t g)
                        then Queue.add g killq)
                      r.r_products
                end)
              !rs
      end
    done;
    (* DRed re-exam, canonical (TGD, key) order: each killed key either
       no longer matches, is re-witnessed, or re-fires — re-adding its
       recorded head instance so surviving nulls keep their identity. *)
    let reexam =
      List.sort
        (fun a b ->
          let c = compare a.r_di b.r_di in
          if c <> 0 then c else compare a.r_key b.r_key)
        !reexam
    in
    let n_refired = ref 0 and n_rewithheld = ref 0 in
    List.iter
      (fun r ->
        let current = Hashtbl.find_opt t.m_recs.(r.r_di) r.r_key in
        if current = Some r && not r.r_alive then
          match body_binding t r.r_di r.r_key with
          | None -> () (* inactive: stays dead, key stays unseen *)
          | Some b -> (
              (* the witness must come from this pre-re-add match: a
                 search after the products return could pick them up and
                 leave the record self-justifying *)
              let w = inst_atoms d b (Dep.body t.m_dep_arr.(r.r_di)) in
              match head_witness t r.r_di r.r_key with
              | Some hw ->
                  r.r_fired <- false;
                  r.r_head_wit <- hw;
                  r.r_alive <- true;
                  set_seen t r;
                  incr n_rewithheld;
                  Array.iter (fun f -> add_edge t.m_uses f r) hw
              | None ->
                  (if r.r_fired && r.r_products <> [||] then
                     (* re-add the recorded head instance (surviving
                        nulls keep their identity) and reclassify: born
                        is whatever THIS re-firing actually adds *)
                     r.r_born <-
                       Array.map (fun g -> Structure.add_fact d g) r.r_products
                   else begin
                     (* first firing of a formerly withheld key *)
                     let dep = t.m_dep_arr.(r.r_di) in
                     let fb = binding_of_key' t r.r_di r.r_key in
                     let w0 = Structure.watermark d in
                     apply d dep fb;
                     let seg =
                       Array.init
                         (Structure.watermark d - w0)
                         (fun j -> Structure.id_fact d (w0 + j))
                     in
                     let fp = Lazy.force t.m_cdeps.(r.r_di).fire_plan in
                     let products, born =
                       full_head_instance d fp r.r_key seg
                     in
                     r.r_products <- products;
                     r.r_born <- born;
                     r.r_fired <- true
                   end);
                  r.r_alive <- true;
                  set_seen t r;
                  incr n_refired;
                  register_products t r;
                  r.r_witness <- w;
                  Array.iter (fun f -> add_edge t.m_uses f r) w))
      reexam;
    (* A record still dead after re-exam has no body match left — its
       key can never fire again as recorded (a later re-fire goes
       through the engine and builds a fresh record anyway).  Drop it
       from [m_recs] so the key tables track the live instance, not the
       whole edit history, and count it into the graveyard so the
       support lists get swept too. *)
    List.iter
      (fun r ->
        if not r.r_alive then begin
          (match Hashtbl.find_opt t.m_recs.(r.r_di) r.r_key with
          | Some r' when r' == r -> Hashtbl.remove t.m_recs.(r.r_di) r.r_key
          | _ -> ());
          t.m_grave <- t.m_grave + 1
        end)
      reexam;
    (* Insertions: base facts past the pre-edit watermark, so the
       continuation's delta scan picks them up. *)
    let n_inserted = ref 0 in
    List.iter
      (fun f ->
        Fact.Tbl.replace t.m_base f ();
        if Structure.add_fact d f then incr n_inserted)
      inserts;
    (* One semi-naive continuation back to the fixpoint (or to the
       governor's cut — resume with [continue_]). *)
    let run = tracked_run ?governor ?max_stages t in
    {
      e_retracted = !n_retracted;
      e_inserted = !n_inserted;
      e_killed = !n_killed;
      e_refired = !n_refired;
      e_rewithheld = !n_rewithheld;
      e_run = run;
    }

  (* Internal-consistency audit for the tests: every live fact is base or
     supported by an alive firing, every alive record's recorded facts
     are live, and the key tables hold exactly the alive records' keys.
     Returns human-readable violations. *)
  let check t =
    let d = t.m_d in
    let bad = ref [] in
    let fail fmt = Format.kasprintf (fun s -> bad := s :: !bad) fmt in
    Structure.iter_facts d (fun f ->
        if (not (Fact.Tbl.mem t.m_base f)) && not (supported t f) then
          fail "unsupported live fact %a" (Relational.Fact.pp ()) f);
    Fact.Tbl.iter
      (fun f () ->
        if not (Structure.mem d f) then
          fail "base fact not live %a" (Relational.Fact.pp ()) f)
      t.m_base;
    Array.iter
      (fun tbl ->
        Hashtbl.iter
          (fun _ r ->
            if r.r_alive then begin
              let live what fs =
                Array.iter
                  (fun f ->
                    if not (Structure.mem d f) then
                      fail "dead %s fact of alive record (dep %d) %a" what
                        r.r_di (Relational.Fact.pp ()) f)
                  fs
              in
              if r.r_fired then begin
                live "witness" r.r_witness;
                live "product" r.r_products
              end
              else live "head-witness" r.r_head_wit
            end)
          tbl)
      t.m_recs;
    Array.iteri
      (fun di seen ->
        Hashtbl.iter
          (fun key () ->
            match Hashtbl.find_opt t.m_recs.(di) key with
            | Some r when r.r_alive -> ()
            | _ -> fail "seen key without an alive record (dep %d)" di)
          seen;
        Hashtbl.iter
          (fun key r ->
            if r.r_alive && not (Hashtbl.mem seen key) then
              fail "alive record's key not seen (dep %d)" di)
          t.m_recs.(di))
      t.m_seen;
    List.rev !bad
end

(* Convenience alias: the edit entry point at the [Chase] top level. *)
let apply_edit = Maint.apply_edit
