(* The quantum executor: one scheduling slice of one job.

   Chase jobs are preemptible: a slice runs the engine for at most
   [quantum.stages] further (absolute) stages — and, when configured, a
   wall-clock sub-deadline — under a governor carrying the daemon's
   cancel token.  The engine's stage-boundary snapshots (PR 5) are the
   suspend mechanism: a job cut by its quantum publishes the last
   boundary snapshot to the job store and reports [Suspended]; the next
   slice resumes from the checkpoint with absolute stage numbering, so
   the finished structure is bit-identical to an uninterrupted governed
   run (the digest in the result is the witness).

   The other job classes are bounded by their own budgets and run to
   completion within one slice; they still honor the cancel token, so
   drain interrupts them cleanly.

   Slices run on pool worker domains: everything here touches only the
   job's own structures plus the job's own store files (unique temp
   names make concurrent checkpoint writes safe), and Obs counters,
   whose racy increments are benign. *)

module G = Resilience.Governor
module CK = Resilience.Checkpoint

type quantum = {
  stages : int;    (* further chase stages per slice *)
  seconds : float; (* wall-clock sub-deadline per slice; 0 = none *)
}

let default_quantum = { stages = 4; seconds = 0. }

let ckpt_kind = "tgd-chase"

let digest_of_string s = Digest.to_hex (Digest.string s)

(* --- held instances ----------------------------------------------------- *)

(* The daemon-held maintained chase instances that mutate jobs drive,
   keyed by client-chosen name.  An entry is the live [Chase.Maint]
   derivation-support state: edits against it are incremental
   (counting/DRed over the provenance journal) instead of re-chasing
   from scratch, and a long re-derive phase suspends in memory at the
   quantum like any chase suspends to disk.

   The table structure is touched under a mutex — slices of one round
   run on separate pool domains.  The [Maint] state inside an entry
   never needs one: the scheduler serializes jobs per instance (at most
   one in any round), and the fork-join barrier between rounds
   publishes its mutations to whichever domain runs the next slice. *)
type held = {
  h_maint : Tgd.Chase.Maint.t;
  h_fresh : (int, int) Hashtbl.t; (* negative wire ids -> allocated elems *)
  h_applied : (string, int * int) Hashtbl.t; (* job id -> (killed, refired) *)
}

type instances = { itbl : (string, held) Hashtbl.t; imu : Mutex.t }

let instances () = { itbl = Hashtbl.create 8; imu = Mutex.create () }

let locked is f =
  Mutex.lock is.imu;
  Fun.protect ~finally:(fun () -> Mutex.unlock is.imu) f

let find_instance is name = locked is (fun () -> Hashtbl.find_opt is.itbl name)

let add_instance is name h =
  locked is (fun () -> Hashtbl.replace is.itbl name h)

(* Forget every held instance (daemon restart does this implicitly; the
   tests use it to model one). *)
let reset_instances is = locked is (fun () -> Hashtbl.reset is.itbl)

(* --- chase ------------------------------------------------------------- *)

let finish_chase ~store (job : Job.t) (stats : Tgd.Chase.stats) d =
  let detail =
    [
      ("stages", Json.Int stats.Tgd.Chase.stages);
      ("applications", Json.Int stats.Tgd.Chase.applications);
      ("facts", Json.Int (Relational.Structure.size d));
      ("elems", Json.Int (Relational.Structure.card d));
    ]
  in
  job.Job.state <-
    Job.Done
      (Job.result_of_outcome ~digest:(Job.structure_digest d) ~detail
         stats.Tgd.Chase.outcome);
  Store.remove_checkpoint store job.Job.id

let suspend_chase ~store (job : Job.t) last_snap =
  match last_snap with
  | Some snap -> (
      match CK.save ~kind:ckpt_kind (Store.ckpt_path store job.Job.id) snap with
      | Ok () -> job.Job.state <- Job.Suspended
      | Error m -> job.Job.state <- Job.Faulted ("checkpoint: " ^ m))
  | None ->
      (* the quantum expired before the first boundary of this slice:
         nothing new to persist; the job simply goes back to the queue
         (an earlier slice's checkpoint, if any, is still the resume
         point) *)
      job.Job.state <-
        (if Store.has_checkpoint store job.Job.id then Job.Suspended
         else Job.Queued)

let run_chase_slice ~store ~cancel ~quantum (job : Job.t) ~views ~q0
    ~max_stages ~engine =
  match Job.parse_rules views q0 with
  | Error m -> job.Job.state <- Job.Faulted m
  | Ok (views, q0) -> (
      let deps = Tgd.Dep.t_q views in
      let quantum =
        match job.Job.quantum_override with
        | Some s -> { quantum with stages = s }
        | None -> quantum
      in
      let target = min max_stages (job.Job.stages_done + quantum.stages) in
      let governor =
        if quantum.seconds > 0. then
          G.make ~deadline_in:quantum.seconds ~cancel ()
        else G.make ~cancel ()
      in
      let last_snap = ref None in
      let on_snapshot s = last_snap := Some s in
      let ran =
        if Store.has_checkpoint store job.Job.id then
          match CK.load ~kind:ckpt_kind (Store.ckpt_path store job.Job.id) with
          | Error m -> Error ("checkpoint: " ^ m)
          | Ok snap ->
              Ok
                (Tgd.Chase.resume ~jobs:1 ~governor ~max_stages:target
                   ~snapshot_every:1 ~on_snapshot deps snap)
        else
          let d = fst (Tgd.Greenred.green_canonical q0) in
          let stats =
            Tgd.Chase.run
              ~engine:(engine :> Tgd.Chase.engine)
              ~governor ~max_stages:target
              ~snapshot_every:1 ~on_snapshot deps d
          in
          Ok (stats, d)
      in
      match ran with
      | Error m -> job.Job.state <- Job.Faulted m
      | Ok (stats, d) -> (
          job.Job.stages_done <- stats.Tgd.Chase.stages;
          job.Job.applications <- stats.Tgd.Chase.applications;
          job.Job.considered <- stats.Tgd.Chase.triggers_considered;
          match stats.Tgd.Chase.outcome with
          | G.Fixpoint -> finish_chase ~store job stats d
          | G.Budget G.Stages when stats.Tgd.Chase.stages >= max_stages ->
              (* the job's own fuel, not the quantum: done *)
              finish_chase ~store job stats d
          | G.Budget G.Stages | G.Deadline ->
              (* quantum exhausted mid-flight: suspend at the last
                 boundary snapshot and let the queue move on *)
              suspend_chase ~store job !last_snap
          | G.Budget _ -> finish_chase ~store job stats d
          | G.Cancelled ->
              (* drain (or per-job cancel observed mid-slice): persist
                 the boundary and keep the job resumable *)
              suspend_chase ~store job !last_snap
          | G.Faulted site -> job.Job.state <- Job.Faulted site))

(* --- determinacy ------------------------------------------------------- *)

let run_determinacy ~cancel (job : Job.t) ~views ~q0 ~max_stages ~engine =
  match Job.parse_rules views q0 with
  | Error m -> job.Job.state <- Job.Faulted m
  | Ok (views, q0) ->
      let engine = (engine :> Tgd.Chase.engine) in
      let inst = Determinacy.Instance.make ~views ~q0 in
      let governor = G.make ~cancel () in
      let verdict v = Format.asprintf "%a" Determinacy.Solver.pp_verdict v in
      let unrestricted =
        verdict
          (Determinacy.Solver.unrestricted ~engine ~governor ~max_stages inst)
      in
      let finite =
        verdict (Determinacy.Solver.finite ~engine ~governor inst)
      in
      let outcome = if G.cancelled governor then G.Cancelled else G.Fixpoint in
      let detail =
        [
          ("unrestricted", Json.String unrestricted);
          ("finite", Json.String finite);
        ]
      in
      job.Job.state <-
        Job.Done
          (Job.result_of_outcome
             ~digest:(digest_of_string (unrestricted ^ "|" ^ finite))
             ~detail outcome)

(* --- worm -------------------------------------------------------------- *)

let run_worm ~cancel (job : Job.t) ~machine ~steps =
  match Zoo_table.oracle machine with
  | None -> job.Job.state <- Job.Faulted ("unknown machine " ^ machine)
  | Some o ->
      let governor = G.make ~cancel () in
      let tr = Rainworm.Sim.creep ~max_steps:steps ~governor o in
      let final =
        Format.asprintf "%a" Rainworm.Sym.pp_word (Rainworm.Sim.final_config tr)
      in
      let detail =
        [
          ("steps", Json.Int tr.Rainworm.Sim.steps);
          ("cycles", Json.Int tr.Rainworm.Sim.cycles);
          ("max_length", Json.Int tr.Rainworm.Sim.max_length);
          ("halted", Json.Bool (Rainworm.Sim.halted tr));
        ]
      in
      job.Job.state <-
        Job.Done
          (Job.result_of_outcome ~digest:(digest_of_string final) ~detail
             tr.Rainworm.Sim.verdict)

(* --- audit ------------------------------------------------------------- *)

let run_audit (job : Job.t) ~seed ~cases ~max_stages ~family ~from_case =
  let budget = { Oracle.Diff.default_budget with Oracle.Diff.max_stages } in
  match Oracle.Shard.family_of_name family with
  | None -> job.Job.state <- Job.Faulted ("unknown oracle family " ^ family)
  | Some fam ->
      let o = Oracle.Shard.run ~budget fam ~seed ~lo:from_case ~n:cases in
      let counter k =
        Option.value ~default:0 (List.assoc_opt k o.Oracle.Shard.o_counters)
      in
      let bad = List.length o.Oracle.Shard.o_corpus in
      let detail =
        [
          ("family", Json.String family);
          ("from_case", Json.Int from_case);
          ("cases", Json.Int cases);
          ("engine_runs", Json.Int (counter "engine_runs"));
          ("budget_exceeded", Json.Int (counter "budget_exceeded"));
          ("violations", Json.Int bad);
          ( "counters",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.Int v))
                 o.Oracle.Shard.o_counters) );
          ( "corpus",
            Json.List
              (List.map
                 (fun (e : Oracle.Shard.entry) ->
                   Json.Obj
                     [
                       ("case", Json.Int e.Oracle.Shard.e_case);
                       ("kind", Json.String e.Oracle.Shard.e_kind);
                       ( "desc",
                         Json.List
                           (List.map
                              (fun s -> Json.String s)
                              e.Oracle.Shard.e_desc) );
                     ])
                 o.Oracle.Shard.o_corpus) );
        ]
      in
      let r =
        if bad = 0 then Job.result_of_outcome ~detail G.Fixpoint
        else { Job.outcome = "violations"; exit_code = 1; digest = ""; detail }
      in
      job.Job.state <- Job.Done r

(* --- mutate ------------------------------------------------------------- *)

module M = Tgd.Chase.Maint

(* Decode one wire edit op against the held structure.  Negative element
   ids allocate fresh elements, remembered per instance so a later op
   (or a later job) can refer back to them. *)
let op_fact d fresh (o : Job.edit_op) =
  let sym =
    Relational.Symbol.make ~color:Relational.Symbol.Green o.Job.rel
      (List.length o.Job.args)
  in
  let args =
    Array.of_list
      (List.map
         (fun a ->
           if a >= 0 then a
           else
             match Hashtbl.find_opt fresh a with
             | Some e -> e
             | None ->
                 let e = Relational.Structure.fresh d in
                 Hashtbl.replace fresh a e;
                 e)
         o.Job.args)
  in
  let f = Relational.Fact.make sym args in
  if o.Job.add then M.Insert f else M.Retract f

let finish_mutate (job : Job.t) (h : held) ~instance
    (stats : Tgd.Chase.stats) =
  let d = M.structure h.h_maint in
  let killed, refired =
    Option.value ~default:(0, 0) (Hashtbl.find_opt h.h_applied job.Job.id)
  in
  let detail =
    [
      ("instance", Json.String instance);
      ("applied", Json.Bool (Hashtbl.mem h.h_applied job.Job.id));
      ("killed", Json.Int killed);
      ("refired", Json.Int refired);
      ("facts", Json.Int (Relational.Structure.size d));
      ("elems", Json.Int (Relational.Structure.card d));
    ]
  in
  job.Job.state <-
    Job.Done
      (Job.result_of_outcome ~digest:(Job.structure_digest d) ~detail
         stats.Tgd.Chase.outcome)

(* One slice of a mutate job.  First touch chases the instance's
   definition to a fixpoint under maintenance tracking; then the job's
   edit script is applied incrementally (counting decrements, DRed
   over-delete/re-derive, continuation of the insert delta).  Every
   phase runs under the quantum: a cut leaves the [Maint] continuation
   pending in daemon memory and the job suspended, so a large re-derive
   is preempted exactly like a fresh chase — just without a disk
   checkpoint, because the instance is the daemon's living state. *)
let run_mutate_slice ~instances ~cancel ~quantum (job : Job.t) ~instance
    ~views ~q0 ~ops ~max_stages =
  match Job.parse_rules views q0 with
  | Error m -> job.Job.state <- Job.Faulted m
  | Ok (views, q0) -> (
      let deps = Tgd.Dep.t_q views in
      let quantum =
        match job.Job.quantum_override with
        | Some s -> { quantum with stages = s }
        | None -> quantum
      in
      let slice_budget =
        max 1 (min quantum.stages (max_stages - job.Job.stages_done))
      in
      let governor =
        if quantum.seconds > 0. then
          G.make ~deadline_in:quantum.seconds ~cancel ()
        else G.make ~cancel ()
      in
      match
        let h, stats =
          match find_instance instances instance with
          | Some h ->
              ( h,
                M.continue_ ~governor ~max_stages:slice_budget h.h_maint )
          | None ->
              let d = fst (Tgd.Greenred.green_canonical q0) in
              let m, stats =
                M.create ~governor ~max_stages:slice_budget deps d
              in
              let h =
                {
                  h_maint = m;
                  h_fresh = Hashtbl.create 4;
                  h_applied = Hashtbl.create 4;
                }
              in
              add_instance instances instance h;
              (h, stats)
        in
        (* at fixpoint with the job's edit still out: apply it (the
           cascade is cheap; its re-derive continuation gets the
           same per-slice fuel) *)
        let stats =
          if
            (not (M.pending h.h_maint))
            && not (Hashtbl.mem h.h_applied job.Job.id)
          then begin
            let eops =
              List.map (op_fact (M.structure h.h_maint) h.h_fresh) ops
            in
            let es =
              M.apply_edit ~governor ~max_stages:slice_budget h.h_maint
                eops
            in
            Hashtbl.replace h.h_applied job.Job.id
              (es.M.e_killed, es.M.e_refired);
            es.M.e_run
          end
          else stats
        in
        (h, stats)
      with
      | exception Invalid_argument m -> job.Job.state <- Job.Faulted m
      | h, stats -> (
          job.Job.stages_done <- stats.Tgd.Chase.stages;
          job.Job.applications <- stats.Tgd.Chase.applications;
          job.Job.considered <- stats.Tgd.Chase.triggers_considered;
          match stats.Tgd.Chase.outcome with
          | G.Fixpoint when Hashtbl.mem h.h_applied job.Job.id ->
              finish_mutate job h ~instance stats
          | G.Fixpoint ->
              (* fixpoint but the edit phase needs its own slice *)
              job.Job.state <- Job.Queued
          | G.Budget G.Stages when stats.Tgd.Chase.stages >= max_stages ->
              (* the job's own fuel: report what the instance holds *)
              finish_mutate job h ~instance stats
          | G.Budget G.Stages | G.Deadline | G.Cancelled ->
              (* quantum exhausted (or drain) mid-run: the pending
                 continuation lives in the held instance *)
              job.Job.state <- Job.Suspended
          | G.Budget _ -> finish_mutate job h ~instance stats
          | G.Faulted site -> job.Job.state <- Job.Faulted site))

(* --- dispatch ---------------------------------------------------------- *)

(* Execute one slice of [job].  Never raises: any escaped exception
   becomes a [Faulted] state, so one broken job cannot take down the
   pool round it ran in. *)
let run_slice ~store ~instances ~cancel ~quantum (job : Job.t) =
  let t0 = Obs.Clock.now_s () in
  (try
     match job.Job.spec with
     | Job.Chase { views; q0; max_stages; engine } ->
         run_chase_slice ~store ~cancel ~quantum job ~views ~q0 ~max_stages
           ~engine
     | Job.Determinacy { views; q0; max_stages; engine } ->
         run_determinacy ~cancel job ~views ~q0 ~max_stages ~engine
     | Job.Worm { machine; steps } -> run_worm ~cancel job ~machine ~steps
     | Job.Audit { seed; cases; max_stages; family; from_case } ->
         run_audit job ~seed ~cases ~max_stages ~family ~from_case
     | Job.Mutate { instance; views; q0; ops; max_stages; engine = _ } ->
         run_mutate_slice ~instances ~cancel ~quantum job ~instance ~views
           ~q0 ~ops ~max_stages
   with e -> job.Job.state <- Job.Faulted (Printexc.to_string e));
  job.Job.slices <- job.Job.slices + 1;
  job.Job.wall_s <- job.Job.wall_s +. (Obs.Clock.now_s () -. t0)
