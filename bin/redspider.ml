(* redspider — command-line driver for the reproduction.

     redspider tinf --stages 12         chase T∞ and print the words
     redspider collide -t 3 -u 5        grid two colliding αβ-paths
     redspider worm NAME --steps 200    creep a zoo machine
     redspider reduce NAME              build the Theorem 5 instance
     redspider finite-model NAME        Section VIII.E countermodel
     redspider theorem2 -i 2            the FO non-rewritability report
     redspider chase -v ... -q ...      governed chase with checkpoint/resume
     redspider faults --cases 200       seeded fault-injection campaign *)

open Core
open Cmdliner

let zoo_machines =
  [
    ("creeper", `M Rainworm.Zoo.eternal_creeper);
    ("stillborn", `M Rainworm.Zoo.stillborn);
    ("halt-now", `Tm Rainworm.Zoo.tm_halt_now);
    ("write-3", `Tm (Rainworm.Zoo.tm_write_k 3));
    ("right-forever", `Tm Rainworm.Zoo.tm_right_forever);
    ("zigzag", `Tm Rainworm.Zoo.tm_zigzag);
    ("bouncer-2", `Tm (Rainworm.Zoo.tm_bouncer 2));
  ]

let machine_conv =
  let parse s =
    match List.assoc_opt s zoo_machines with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown machine %s (try: %s)" s
               (String.concat ", " (List.map fst zoo_machines))))
  in
  let print ppf _ = Format.fprintf ppf "<machine>" in
  Arg.conv (parse, print)

let materialize = function
  | `M m -> m
  | `Tm tm -> Rainworm.Tm_compiler.materialize ~max_steps:200_000 tm

(* --- observability ------------------------------------------------------ *)

(* Every subcommand accepts --trace FILE and --metrics.  The term's value
   is (); evaluating it flips the obs switches before the command body
   runs and registers an at_exit hook that exports the trace and prints
   the metrics summary — so instrumentation also covers commands that
   call [exit] themselves (e.g. audit on violation). *)
let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record hierarchical spans of the chase/hom/worm hot paths and \
             write them to $(docv) as Chrome trace-event JSON \
             (chrome://tracing, ui.perfetto.dev).")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Count hot-path events (triggers, firings, unify attempts, …) \
             and print the counter/histogram summary on exit.")
  in
  let setup trace metrics =
    if metrics then Obs.set_metrics true;
    (match trace with Some _ -> Obs.set_tracing true | None -> ());
    if metrics || trace <> None then
      at_exit (fun () ->
          (match trace with
          | Some file ->
              Obs.Trace.export file;
              Format.printf "wrote %s (%d trace events)@." file
                (Obs.Trace.events ())
          | None -> ());
          if metrics then
            Format.printf "@.== metrics ==@.%a@." Obs.Metrics.pp_summary ())
  in
  Term.(const setup $ trace $ metrics)

(* --- resilience --------------------------------------------------------- *)

(* One process-wide cancellation token.  The first SIGINT/SIGTERM trips
   it: governed runs unwind at the next poll, the engine writes its final
   boundary checkpoint, the at_exit hook flushes traces/metrics, and the
   command exits through the documented taxonomy (code 4).  A second
   signal exits immediately. *)
let the_cancel = Resilience.Governor.Cancel.create ()

let install_signals () =
  let handle _ =
    if Resilience.Governor.Cancel.tripped the_cancel then exit 4
    else Resilience.Governor.Cancel.trip the_cancel
  in
  try
    Sys.set_signal Sys.sigint (Sys.Signal_handle handle);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle handle)
  with Invalid_argument _ | Sys_error _ -> ()

(* Every governed subcommand accepts --deadline and a failpoint spec; the
   term's value is the governor carrying the process cancel token. *)
let resilience_term =
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Wall-clock deadline in seconds.  Checked at stage              boundaries: the run ends with its work so far and exit code              3.")
  in
  let failpoints =
    Arg.(
      value
      & opt (some string) None
      & info [ "failpoints" ] ~docv:"SPEC"
          ~doc:
            "Arm failpoints, e.g. 'par.shard=0.25,arena.grow=0.01' (a              bare name fires always).  Overrides the              $(b,REDSPIDER_FAILPOINTS) environment variable.")
  in
  let failpoint_seed =
    Arg.(
      value & opt int 0
      & info [ "failpoint-seed" ] ~docv:"N"
          ~doc:"Seed of the failpoint decision stream.")
  in
  let setup deadline failpoints failpoint_seed =
    install_signals ();
    (match
       match failpoints with
       | Some _ -> failpoints
       | None -> Sys.getenv_opt "REDSPIDER_FAILPOINTS"
     with
    | None -> ()
    | Some spec -> (
        match Resilience.Failpoint.configure ~seed:failpoint_seed spec with
        | Ok () -> ()
        | Error m ->
            Format.eprintf "error: bad failpoint spec: %s@." m;
            exit 2));
    Resilience.Governor.make ?deadline_in:deadline ~cancel:the_cancel ()
  in
  Term.(const setup $ deadline $ failpoints $ failpoint_seed)

(* The documented exit-code taxonomy, shown in every subcommand's man
   page. *)
let exits =
  Cmd.Exit.info 0 ~doc:"on success (fixpoint reached, no violations)."
  :: Cmd.Exit.info 1
       ~doc:
         "on an audit violation, a fault-campaign corruption, or an           injected fault that aborted the run."
  :: Cmd.Exit.info 2 ~doc:"on command-line or query parse errors."
  :: Cmd.Exit.info 3
       ~doc:"when a resource budget or the wall-clock deadline cut the run."
  :: Cmd.Exit.info 4 ~doc:"when cancelled by SIGINT/SIGTERM."
  :: Cmd.Exit.defaults

(* Exploratory commands treat their own stage/step fuel as the job
   description (exit 0); only an external interruption or a fault routes
   through the taxonomy. *)
let governed_exit (outcome : Resilience.Governor.outcome) =
  match outcome with
  | Resilience.Governor.Deadline | Resilience.Governor.Cancelled
  | Resilience.Governor.Faulted _ ->
      exit (Resilience.Governor.exit_code outcome)
  | Resilience.Governor.Fixpoint | Resilience.Governor.Budget _ -> ()

(* --- chase engine selection -------------------------------------------- *)

let engine_arg =
  let e =
    Arg.enum
      [ ("seminaive", `Seminaive); ("oblivious", `Oblivious); ("par", `Par) ]
  in
  Arg.(
    value
    & opt e `Seminaive
    & info [ "engine" ]
        ~doc:
          "Chase engine: $(b,seminaive) (delta-restricted semi-naive \
           discovery and firing at one worker, the default), $(b,par) \
           (the same pipeline spread over $(b,--jobs) workers) or \
           $(b,oblivious) (the semi-oblivious chase on the same \
           one-worker pipeline, every trigger fired once without a \
           head check)." )

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:
          "Worker domains for $(b,--engine par) (default: the runtime's \
           recommended domain count); $(b,seminaive) always runs one.")

let oracle = function
  | `M m -> Rainworm.Machine.oracle m
  | `Tm tm -> Rainworm.Tm_compiler.oracle tm

(* --- tinf -------------------------------------------------------------- *)

let tinf () governor stages =
  let g, a, b, stats = Separating.Tinf.chase ~governor ~stages () in
  Format.printf "chase(T∞, D_I): %d edges, %d vertices (%a)@."
    (Greengraph.Graph.size g)
    (Greengraph.Graph.order g)
    Greengraph.Rule.pp_stats stats;
  List.iter
    (fun w -> Format.printf "  %a@." Greengraph.Pg.pp_word w)
    (List.sort compare (Greengraph.Pg.words_upto g ~a ~b ~max_len:(stages / 2)));
  Format.printf "1-2 pattern: %b@." (Greengraph.Graph.has_12_pattern g);
  governed_exit stats.Greengraph.Rule.outcome

let tinf_cmd =
  let stages =
    Arg.(value & opt int 12 & info [ "stages" ] ~doc:"Chase stage budget.")
  in
  Cmd.v
    (Cmd.info "tinf" ~exits
       ~doc:"Chase T∞ from D_I and print its words (Figure 1).")
    Term.(const tinf $ obs_term $ resilience_term $ stages)

(* --- collide ----------------------------------------------------------- *)

let collide () governor t u =
  let pattern, stats, g =
    Separating.Theorem14.collision_outcome ~governor ~t ~t':u ()
  in
  Format.printf
    "αβ-paths of lengths %d and %d sharing both endpoints, gridded by T□:@." t u;
  Format.printf "  1-2 pattern: %b (%d edges; %a)@." pattern
    (Greengraph.Graph.size g) Greengraph.Rule.pp_stats stats;
  governed_exit stats.Greengraph.Rule.outcome

let collide_cmd =
  let t = Arg.(value & opt int 3 & info [ "t" ] ~doc:"First path length.") in
  let u = Arg.(value & opt int 5 & info [ "u" ] ~doc:"Second path length.") in
  Cmd.v
    (Cmd.info "collide" ~exits
       ~doc:"Grid two colliding αβ-paths with T□ (Figures 2–4).")
    Term.(const collide $ obs_term $ resilience_term $ t $ u)

(* --- worm -------------------------------------------------------------- *)

let worm () governor m steps =
  let o = oracle m in
  let trace =
    Rainworm.Sim.creep ~max_steps:steps ~keep_history:true ~governor o
  in
  List.iteri
    (fun i c -> if i <= 20 then Format.printf "%4d: %a@." i Rainworm.Sym.pp_word c)
    trace.Rainworm.Sim.history;
  Format.printf "status after %d steps: %s, %d cycles, max length %d@."
    trace.Rainworm.Sim.steps
    (if Rainworm.Sim.halted trace then "halted" else "creeping")
    trace.Rainworm.Sim.cycles trace.Rainworm.Sim.max_length;
  governed_exit trace.Rainworm.Sim.verdict

let worm_cmd =
  let m = Arg.(required & pos 0 (some machine_conv) None & info [] ~docv:"MACHINE") in
  let steps =
    Arg.(value & opt int 200 & info [ "steps" ] ~doc:"Rewriting step budget.")
  in
  Cmd.v (Cmd.info "worm" ~exits ~doc:"Creep a rainworm machine from the zoo.")
    Term.(const worm $ obs_term $ resilience_term $ m $ steps)

(* --- reduce ------------------------------------------------------------ *)

let reduce () m =
  let machine = materialize m in
  let _inst, p = reduce_machine machine in
  Format.printf "Theorem 5 instance for %s:@." (Rainworm.Machine.name machine);
  Format.printf "  %a@." Reduction.Pipeline.pp_shape (Reduction.Pipeline.shape p);
  Format.printf
    "  Q finitely determines Q0 = ∃*dalt(I) iff the rainworm creeps forever.@."

let reduce_cmd =
  let m = Arg.(required & pos 0 (some machine_conv) None & info [] ~docv:"MACHINE") in
  Cmd.v
    (Cmd.info "reduce" ~exits ~doc:"Build the CQfDP instance of Theorem 5 for a machine.")
    Term.(const reduce $ obs_term $ m)

(* --- finite-model ------------------------------------------------------ *)

let finite_model () m =
  let machine = materialize m in
  let wr, fm, stats = Reduction.Finite_model.of_halting_machine machine in
  let g = fm.Reduction.Finite_model.graph in
  Format.printf "Section VIII.E model for halting machine %s:@."
    (Rainworm.Machine.name machine);
  Format.printf "  %d edges, %d vertices; grid chase fixpoint: %b@."
    (Greengraph.Graph.size g) (Greengraph.Graph.order g)
    stats.Greengraph.Rule.fixpoint;
  Format.printf "  1-2 pattern: %b;  ⊨ T_M: %b;  ⊨ T_M ∪ T□: %b@."
    (Greengraph.Graph.has_12_pattern g)
    (Greengraph.Rule.models wr.Reduction.Worm_rules.rules g)
    (Greengraph.Rule.models (Reduction.Worm_rules.with_grid wr) g)

let finite_model_cmd =
  let m = Arg.(required & pos 0 (some machine_conv) None & info [] ~docv:"MACHINE") in
  Cmd.v
    (Cmd.info "finite-model" ~exits
       ~doc:"Build and check the finite countermodel for a halting machine.")
    Term.(const finite_model $ obs_term $ m)

(* --- theorem2 ----------------------------------------------------------- *)

let theorem2 () i copies rounds =
  let t = Ef.Theorem2.q_infinity () in
  let r = Ef.Theorem2.report ~max_rounds:rounds t ~i ~copies in
  Format.printf "Theorem 2 report (i = %d, copies = %d):@." i copies;
  Format.printf "  Q0(D_y) = %b, Q0(D_n) = %b@." r.Ef.Theorem2.q0_on_dy
    r.Ef.Theorem2.q0_on_dn;
  Format.printf "  views distinguishable within %d EF rounds: %s@." rounds
    (match r.Ef.Theorem2.view_distinguishing_rounds with
    | None -> "no"
    | Some l -> Printf.sprintf "yes, at %d" l)

let theorem2_cmd =
  let i = Arg.(value & opt int 2 & info [ "i" ] ~doc:"Chase depth.") in
  let copies = Arg.(value & opt int 1 & info [ "copies" ] ~doc:"Late-fragment copies.") in
  let rounds = Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"EF round budget.") in
  Cmd.v
    (Cmd.info "theorem2" ~exits ~doc:"FO non-rewritability report (Section IX).")
    Term.(const theorem2 $ obs_term $ i $ copies $ rounds)

(* --- analyze ------------------------------------------------------------- *)

let analyze () m =
  let machine = materialize m in
  Format.printf "machine %s: %d instructions, c_M = %d@."
    (Rainworm.Machine.name machine)
    (Rainworm.Machine.size machine)
    (Rainworm.Analysis.c_m machine);
  match Rainworm.Analysis.halting_analysis machine with
  | None -> Format.printf "does not halt within the budget: eternal creeper@."
  | Some (u_m, k_m, closure) ->
      Format.printf "halts after k_M = %d steps@." k_m;
      Format.printf "final configuration u_M: %a@." Rainworm.Sym.pp_word u_m;
      Format.printf "|{w : w ⤳* u_M}| = %d (finite, Lemma 23)@."
        (List.length closure)

let analyze_cmd =
  let m = Arg.(required & pos 0 (some machine_conv) None & info [] ~docv:"MACHINE") in
  Cmd.v
    (Cmd.info "analyze" ~exits
       ~doc:"Backward analysis of a machine (Lemmas 22-23).")
    Term.(const analyze $ obs_term $ m)

(* --- audit --------------------------------------------------------------- *)

let audit () seed cases max_stages max_elems max_facts =
  let budget =
    { Oracle.Diff.max_stages; max_elems; max_facts }
  in
  let report = Oracle.Diff.run_cases ~budget ~seed ~cases () in
  Format.printf "%a@." Oracle.Diff.pp_report report;
  if report.Oracle.Diff.violations <> [] then exit 1

let audit_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let cases =
    Arg.(value & opt int 200 & info [ "cases" ] ~doc:"Number of generated cases.")
  in
  let max_stages =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_stages
      & info [ "max-stages" ] ~doc:"Chase fuel per run.")
  in
  let max_elems =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_elems
      & info [ "max-elems" ] ~doc:"Element budget per run.")
  in
  let max_facts =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_facts
      & info [ "max-facts" ] ~doc:"Fact (edge) budget per run.")
  in
  Cmd.v
    (Cmd.info "audit" ~exits
       ~doc:
         "Differential audit: generate random instances, chase them under \
          every engine, diff the results bit-for-bit and audit all \
          incremental indices against ground-truth recomputation. Exits \
          nonzero on any violation.")
    Term.(const audit $ obs_term $ seed $ cases $ max_stages $ max_elems $ max_facts)

(* --- chase (with checkpoint/resume) -------------------------------------- *)

let parse_named s =
  match Cq.Parse.named_query s with
  | Ok nq -> nq
  | Error m ->
      Format.eprintf "parse error: %s@." m;
      exit 2

let chase () governor view_specs q0_spec stages engine jobs checkpoint
    checkpoint_every resume_from =
  let views = List.map parse_named view_specs in
  let _, q0 = parse_named q0_spec in
  let deps = Tgd.Dep.t_q views in
  let on_snapshot =
    Option.map
      (fun path snap ->
        match Resilience.Checkpoint.save ~kind:"tgd-chase" path snap with
        | Ok () -> ()
        | Error m -> Format.eprintf "warning: checkpoint not written: %s@." m)
      checkpoint
  in
  let stats, d =
    match resume_from with
    | Some path -> (
        match Resilience.Checkpoint.load ~kind:"tgd-chase" path with
        | Error m ->
            Format.eprintf "error: %s@." m;
            exit 2
        | Ok snap ->
            Tgd.Chase.resume ?jobs ~governor ~max_stages:stages
              ~snapshot_every:checkpoint_every ?on_snapshot deps snap)
    | None ->
        let d = fst (Tgd.Greenred.green_canonical q0) in
        let stats =
          Tgd.Chase.run ~engine ?jobs ~governor ~max_stages:stages
            ~snapshot_every:checkpoint_every ?on_snapshot deps d
        in
        (stats, d)
  in
  Format.printf "chase(T_Q, green(Q0)): %d facts over %d elements (%a)@."
    (Relational.Structure.size d)
    (Relational.Structure.card d)
    Tgd.Chase.pp_stats stats;
  List.iter
    (fun fp -> Format.printf "failpoint %a@." Resilience.Failpoint.pp_summary fp)
    (Resilience.Failpoint.summary ());
  exit (Resilience.Governor.exit_code stats.Tgd.Chase.outcome)

let chase_cmd =
  let views =
    Arg.(
      non_empty & opt_all string []
      & info [ "view"; "v" ] ~docv:"RULE"
          ~doc:"A view of T_Q, e.g. 'p2(x,y) :- E(x,m), E(m,y)'. Repeatable.")
  in
  let q0 =
    Arg.(
      required & opt (some string) None
      & info [ "q0"; "q" ] ~docv:"RULE"
          ~doc:"The query whose green canonical structure seeds the chase.")
  in
  let stages =
    Arg.(value & opt int 64 & info [ "stages" ] ~doc:"Chase stage budget.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Write a resumable snapshot to $(docv) (atomically: temp file              + rename) at checkpoint intervals and at the end of the run.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Checkpoint every $(docv) completed stages (default 1).")
  in
  let resume_from =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume the chase from a checkpoint instead of the canonical              structure; the engine is the snapshot's, and --stages counts              absolute stages, so prefix + resume replays the              uninterrupted run bit-for-bit.")
  in
  Cmd.v
    (Cmd.info "chase" ~exits
       ~doc:
         "Chase T_Q from the green canonical structure of Q0, with           governed budgets and checkpoint/resume.  Exit code 0 means           fixpoint; 3 means the stage budget or deadline cut the run.")
    Term.(
      const chase $ obs_term $ resilience_term $ views $ q0 $ stages
      $ engine_arg $ jobs_arg $ checkpoint $ checkpoint_every $ resume_from)

(* --- faults -------------------------------------------------------------- *)

let faults () seed cases spec max_stages max_elems max_facts =
  install_signals ();
  let budget = { Oracle.Diff.max_stages; max_elems; max_facts } in
  let report = Oracle.Fault.run_campaign ~budget ~spec ~seed ~cases () in
  Format.printf "%a@." Oracle.Fault.pp_report report;
  if report.Oracle.Fault.corruptions <> [] then exit 1

let faults_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let cases =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~doc:"Number of generated cases to replay.")
  in
  let spec =
    Arg.(
      value
      & opt string Oracle.Fault.default_spec
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:"Failpoint spec armed for the faulted runs.")
  in
  let max_stages =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_stages
      & info [ "max-stages" ] ~doc:"Chase fuel per run.")
  in
  let max_elems =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_elems
      & info [ "max-elems" ] ~doc:"Element budget per run.")
  in
  let max_facts =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_facts
      & info [ "max-facts" ] ~doc:"Fact budget per run.")
  in
  Cmd.v
    (Cmd.info "faults" ~exits
       ~doc:
         "Seeded fault-injection campaign (E18): replay generated           instances with failpoints armed and verify every fault is           either recovered bit-identically or cleanly reported, and           every checkpoint write is atomic.  Exits 1 on any silent           corruption.")
    Term.(
      const faults $ obs_term $ seed $ cases $ spec $ max_stages $ max_elems
      $ max_facts)

(* --- campaign ------------------------------------------------------------ *)

let campaign () ledger families seed cases shard jobs resume daemon_socket
    lease max_attempts backoff_base backoff_cap max_stages max_elems max_facts
    failpoints failpoint_seed verbose =
  install_signals ();
  (match failpoints with
  | None -> ()
  | Some spec -> (
      match Resilience.Failpoint.configure ~seed:failpoint_seed spec with
      | Ok () -> ()
      | Error m ->
          Format.eprintf "error: bad failpoint spec: %s@." m;
          exit 2));
  let families =
    List.map
      (fun name ->
        match Oracle.Shard.family_of_name name with
        | Some f -> f
        | None ->
            Format.eprintf "error: unknown family %s (audit, faults, incr)@."
              name;
            exit 2)
      families
  in
  let cfg =
    {
      (Campaign.Supervisor.default_config ~ledger) with
      Campaign.Supervisor.families =
        (if families = [] then [ Oracle.Shard.Audit ] else families);
      seed;
      cases;
      shard_cases = shard;
      budget = { Oracle.Diff.max_stages; max_elems; max_facts };
      jobs = max 1 jobs;
      mode =
        (match daemon_socket with
        | Some socket -> Campaign.Supervisor.Daemon { socket }
        | None -> Campaign.Supervisor.Pool);
      lease_s = lease;
      max_attempts = max 1 max_attempts;
      backoff_base_s = backoff_base;
      backoff_cap_s = backoff_cap;
      should_stop =
        (fun () -> Resilience.Governor.Cancel.tripped the_cancel);
      log = verbose;
    }
  in
  match Campaign.Supervisor.run ~resume cfg with
  | Error m ->
      Format.eprintf "error: %s@." m;
      exit 2
  | Ok s ->
      Format.printf "%a@." Campaign.Supervisor.pp_summary s;
      if s.Campaign.Supervisor.s_interrupted then exit 4;
      let a = s.Campaign.Supervisor.s_accounting in
      if a.Campaign.Ledger.a_lost > 0 || a.Campaign.Ledger.a_duplicated > 0
      then begin
        Format.eprintf "error: accounting violated (%d lost, %d duplicated)@."
          a.Campaign.Ledger.a_lost a.Campaign.Ledger.a_duplicated;
        exit 1
      end;
      let bad (_, e) =
        e.Oracle.Shard.e_kind = "violation"
        || e.Oracle.Shard.e_kind = "corruption"
      in
      if
        List.exists bad s.Campaign.Supervisor.s_corpus
        || s.Campaign.Supervisor.s_quarantined > 0
      then exit 1

let campaign_cmd =
  let ledger =
    Arg.(
      required
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Durable campaign ledger (JSON lines, written atomically).              Created fresh, or replayed with $(b,--resume).")
  in
  let families =
    Arg.(
      value & opt_all string []
      & info [ "family"; "f" ] ~docv:"FAMILY"
          ~doc:
            "Oracle family to shard: audit, faults or incr (repeatable;              default audit).  The faults family runs strictly alone and              only in the in-process pool.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed.")
  in
  let cases =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~doc:"Cases per family, split into shards.")
  in
  let shard =
    Arg.(
      value & opt int 25
      & info [ "shard" ] ~docv:"CASES" ~doc:"Cases per shard (seed range).")
  in
  let jobs =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains (or daemon connections).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the ledger and continue: completed shards are never              re-run, quarantined shards stay quarantined, and the final              coverage counters are bit-identical to an uninterrupted run.")
  in
  let daemon_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "daemon-socket" ] ~docv:"PATH"
          ~doc:
            "Run shards as audit jobs on the redspiderd at $(docv) instead              of the in-process pool.")
  in
  let lease =
    Arg.(
      value & opt float 5.0
      & info [ "lease" ] ~docv:"SEC"
          ~doc:
            "Shard lease deadline; a worker heartbeats per case, and an              expired lease is reclaimed and re-dispatched.")
  in
  let max_attempts =
    Arg.(
      value & opt int 8
      & info [ "max-attempts" ] ~docv:"K"
          ~doc:"Failures before a shard is quarantined as poison.")
  in
  let backoff_base =
    Arg.(
      value & opt float 0.02
      & info [ "backoff-base" ] ~docv:"SEC"
          ~doc:"Base of the jittered exponential retry backoff.")
  in
  let backoff_cap =
    Arg.(
      value & opt float 0.5
      & info [ "backoff-cap" ] ~docv:"SEC" ~doc:"Cap of the retry backoff.")
  in
  let max_stages =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_stages
      & info [ "max-stages" ] ~doc:"Chase fuel per run.")
  in
  let max_elems =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_elems
      & info [ "max-elems" ] ~doc:"Element budget per run.")
  in
  let max_facts =
    Arg.(
      value
      & opt int Oracle.Diff.default_budget.Oracle.Diff.max_facts
      & info [ "max-facts" ] ~doc:"Fact budget per run.")
  in
  let failpoints =
    Arg.(
      value
      & opt (some string) None
      & info [ "failpoints" ] ~docv:"SPEC"
          ~doc:
            "Arm failpoints for the whole campaign, e.g.              'shard.case=0.2,campaign.vanish=0.3,campaign.ledger=0.5' — the              chaos ladder the supervisor must survive with exactly-once              accounting.")
  in
  let failpoint_seed =
    Arg.(
      value & opt int 0
      & info [ "failpoint-seed" ] ~docv:"N"
          ~doc:"Seed of the failpoint decision stream.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log shard events to stderr.")
  in
  Cmd.v
    (Cmd.info "campaign" ~exits
       ~doc:
         "Run a crash-tolerant sharded oracle campaign: seed-range shards           tracked in a durable ledger, leased to workers with deadlines,           reclaimed on expiry, retried with jittered backoff and           quarantined (auto-shrunk) when poison.  $(b,--resume) continues           an interrupted campaign with exactly-once shard accounting;           exit 1 means a violation, corruption or quarantined shard, 4           means interrupted.")
    Term.(
      const campaign $ obs_term $ ledger $ families $ seed $ cases $ shard
      $ jobs $ resume $ daemon_socket $ lease $ max_attempts $ backoff_base
      $ backoff_cap $ max_stages $ max_elems $ max_facts $ failpoints
      $ failpoint_seed $ verbose)

(* --- determinacy --------------------------------------------------------- *)

let determinacy () governor view_specs q0_spec stages engine jobs =
  let views = List.map parse_named view_specs in
  let _, q0 = parse_named q0_spec in
  let inst = Determinacy.Instance.make ~views ~q0 in
  Format.printf "%a@." Determinacy.Instance.pp inst;
  Format.printf "engine:       %a@." Tgd.Chase.pp_engine engine;
  Format.printf "unrestricted: %a@."
    Determinacy.Solver.pp_verdict
    (Determinacy.Solver.unrestricted ~engine ?jobs ~governor ~max_stages:stages
       inst);
  Format.printf "finite:       %a@."
    Determinacy.Solver.pp_verdict
    (Determinacy.Solver.finite ~engine ?jobs ~governor inst);
  (match Determinacy.Rewriting.conjunctive ~views q0 with
  | Determinacy.Rewriting.Rewriting plan ->
      Format.printf "rewriting:    %a@." Cq.Query.pp plan
  | Determinacy.Rewriting.No_conjunctive_rewriting ->
      Format.printf "rewriting:    no conjunctive rewriting@.");
  if Resilience.Governor.Cancel.tripped the_cancel then exit 4

let determinacy_cmd =
  let views =
    Arg.(
      non_empty & opt_all string []
      & info [ "view"; "v" ] ~docv:"RULE"
          ~doc:"A view, e.g. 'p2(x,y) :- E(x,m), E(m,y)'. Repeatable.")
  in
  let q0 =
    Arg.(
      required & opt (some string) None
      & info [ "q0"; "q" ] ~docv:"RULE" ~doc:"The query to determine.")
  in
  let stages =
    Arg.(value & opt int 32 & info [ "stages" ] ~doc:"Chase stage budget.")
  in
  Cmd.v
    (Cmd.info "determinacy" ~exits
       ~doc:"Decide (boundedly) whether views determine a query.")
    Term.(
      const determinacy $ obs_term $ resilience_term $ views $ q0 $ stages
      $ engine_arg $ jobs_arg)

(* --- serve / client ----------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/redspiderd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path of the daemon.")

let tcp_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp-port" ] ~docv:"PORT"
        ~doc:"Additionally listen on loopback TCP port $(docv).")

let serve () socket tcp_port workers quantum quantum_seconds store cache_capacity
    no_cache_persist read_deadline max_frame verbose =
  let cfg =
    {
      Serve.Server.socket;
      tcp_port;
      workers = max 1 workers;
      quantum = { Serve.Runner.stages = max 1 quantum; seconds = quantum_seconds };
      store_dir = store;
      cache_capacity = max 0 cache_capacity;
      cache_persist = not no_cache_persist;
      read_deadline_s = read_deadline;
      max_frame = max 1024 max_frame;
      log = verbose;
    }
  in
  Serve.Server.serve cfg

let serve_cmd =
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (max concurrently running job slices).")
  in
  let quantum =
    Arg.(
      value & opt int 4
      & info [ "quantum" ] ~docv:"STAGES"
          ~doc:
            "Preemption quantum: chase stages a job may run per slice              before it is checkpointed and re-queued.")
  in
  let quantum_seconds =
    Arg.(
      value & opt float 0.
      & info [ "quantum-seconds" ] ~docv:"SEC"
          ~doc:
            "Optional wall-clock sub-deadline per slice (0 disables; the              stage quantum remains the progress guarantee).")
  in
  let store =
    Arg.(
      value
      & opt string "/tmp/redspiderd"
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Job store directory: manifests and suspend checkpoints,              rescanned on restart for crash recovery.")
  in
  let cache_capacity =
    Arg.(
      value & opt int 512
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Result-cache entries (digest-keyed; duplicates coalesce              behind an in-flight primary).  0 disables caching.")
  in
  let no_cache_persist =
    Arg.(
      value & flag
      & info [ "no-cache-persist" ]
          ~doc:
            "Keep the result cache in memory only instead of persisting              pure entries to the job store.")
  in
  let read_deadline =
    Arg.(
      value & opt float 60.
      & info [ "read-deadline" ] ~docv:"SEC"
          ~doc:
            "Drop a client that stays idle past $(docv) seconds while the              daemon owes it no reply (half-open peers; 0 disables).")
  in
  let max_frame =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:
            "Maximum in-flight bytes of one request line; a client              exceeding it gets a structured error and is disconnected.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log scheduling to stderr.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run redspiderd: accept chase/determinacy/worm/audit jobs as           newline-delimited JSON over a Unix (and optionally loopback           TCP) socket, execute them preemptively on persistent worker           domains under a continuous batched scheduler — a divergent           chase is suspended to a checkpoint at every quantum and           resumed later, bit-identically, and duplicate submissions are           answered from a digest-keyed result cache — and drain           gracefully on SIGTERM.")
    Term.(
      const serve $ obs_term $ socket_arg $ tcp_port_arg $ workers $ quantum
      $ quantum_seconds $ store $ cache_capacity $ no_cache_persist
      $ read_deadline $ max_frame $ verbose)

(* One-shot client: print the daemon's JSON reply line and exit through
   the taxonomy (a waited-for job propagates its own exit code). *)
let client () socket tcp_port op id views q0 stages engine machine steps seed
    cases family from_case job_quantum timeout instance edits =
  (* a daemon slice runs one worker, where [par] is [seminaive] *)
  let engine =
    match engine with
    | `Par -> `Seminaive
    | (`Seminaive | `Oblivious) as e -> e
  in
  let conn =
    let tcp = Option.map (fun p -> ("127.0.0.1", p)) tcp_port in
    match Serve.Client.connect ?tcp ~socket () with
    | Ok c -> c
    | Error m ->
        Format.eprintf "error: %s@." m;
        exit 2
  in
  let fail m =
    Format.eprintf "error: %s@." m;
    exit 2
  in
  let need_id () =
    match id with Some id -> id | None -> fail "this op needs a job id"
  in
  let print_reply reply = print_endline (Serve.Json.to_string reply) in
  let job_exit reply =
    match
      Option.bind (Serve.Json.member "job" reply) (Serve.Json.mem_int "exit_code")
    with
    | Some c -> exit c
    | None -> ()
  in
  let spec_of_op kind =
    match kind with
    | "submit-chase" | "submit-determinacy" ->
        let q0 = match q0 with Some q -> q | None -> fail "missing --q0" in
        if views = [] then fail "missing --view";
        let views = List.mapi (fun i r -> (Printf.sprintf "v%d" i, r)) views in
        if kind = "submit-chase" then
          Serve.Job.Chase { views; q0; max_stages = stages; engine }
        else Serve.Job.Determinacy { views; q0; max_stages = stages; engine }
    | "submit-worm" ->
        let machine =
          match machine with Some m -> m | None -> fail "missing --machine"
        in
        Serve.Job.Worm { machine; steps }
    | "submit-mutate" ->
        let q0 = match q0 with Some q -> q | None -> fail "missing --q0" in
        let instance =
          match instance with
          | Some i -> i
          | None -> fail "missing --instance"
        in
        if views = [] then fail "missing --view";
        if edits = [] then fail "missing --edit";
        let views = List.mapi (fun i r -> (Printf.sprintf "v%d" i, r)) views in
        (* --edit insert:rel:1,2 | retract:rel:1,-1 (negative = fresh) *)
        let parse_edit s =
          match String.split_on_char ':' s with
          | [ verb; rel; args ] -> (
              let add =
                match verb with
                | "insert" -> true
                | "retract" -> false
                | _ -> fail (Printf.sprintf "bad edit verb in %S" s)
              in
              match
                List.map int_of_string (String.split_on_char ',' args)
              with
              | args -> { Serve.Job.add; rel; args }
              | exception _ -> fail (Printf.sprintf "bad edit args in %S" s))
          | _ -> fail (Printf.sprintf "bad edit %S (verb:rel:a,b)" s)
        in
        Serve.Job.Mutate
          {
            instance;
            views;
            q0;
            ops = List.map parse_edit edits;
            max_stages = stages;
            engine;
          }
    | _ -> Serve.Job.Audit { seed; cases; max_stages = stages; family; from_case }
  in
  let result =
    match op with
    | "ping" -> Serve.Client.ping conn
    | "jobs" -> Serve.Client.jobs conn
    | "stats" -> Serve.Client.stats conn
    | "drain" -> Serve.Client.drain conn
    | "status" -> Serve.Client.status conn (need_id ())
    | "cancel" -> Serve.Client.cancel conn (need_id ())
    | "wait" -> (
        match Serve.Client.wait_terminal ?poll_s:timeout conn (need_id ()) with
        | Error m -> Error m
        | Ok job ->
            let reply = Serve.Json.Obj [ ("ok", Serve.Json.Bool true); ("job", job) ] in
            print_reply reply;
            job_exit reply;
            exit 0)
    | ( "submit-chase" | "submit-determinacy" | "submit-worm" | "submit-audit"
      | "submit-mutate" ) as kind -> (
        let spec = spec_of_op kind in
        match Serve.Client.submit conn ?quantum:job_quantum spec with
        | Error m -> Error m
        | Ok id -> Ok (Serve.Json.Obj [ ("ok", Serve.Json.Bool true); ("id", Serve.Json.String id) ]))
    | op -> fail (Printf.sprintf "unknown op %s" op)
  in
  Serve.Client.close conn;
  match result with
  | Ok reply ->
      print_reply reply;
      job_exit reply
  | Error m ->
      Format.eprintf "error: %s@." m;
      exit 1

let client_cmd =
  let op =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OP"
          ~doc:
            "One of: ping, submit-chase, submit-determinacy, submit-worm,              submit-audit, submit-mutate, status, wait, cancel, jobs,              stats, drain.")
  in
  let id = Arg.(value & pos 1 (some string) None & info [] ~docv:"JOB") in
  let views =
    Arg.(
      value & opt_all string []
      & info [ "view"; "v" ] ~docv:"RULE" ~doc:"A view rule (repeatable).")
  in
  let q0 =
    Arg.(
      value
      & opt (some string) None
      & info [ "q0"; "q" ] ~docv:"RULE" ~doc:"The query rule.")
  in
  let stages =
    Arg.(value & opt int 64 & info [ "stages" ] ~doc:"Job stage budget.")
  in
  let machine =
    Arg.(
      value
      & opt (some string) None
      & info [ "machine" ] ~docv:"NAME" ~doc:"Zoo machine of a worm job.")
  in
  let steps =
    Arg.(value & opt int 200 & info [ "steps" ] ~doc:"Worm step budget.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Audit seed.") in
  let cases =
    Arg.(value & opt int 50 & info [ "cases" ] ~doc:"Audit case count.")
  in
  let family =
    Arg.(
      value & opt string "audit"
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"Oracle family of an audit job: audit or incr.")
  in
  let from_case =
    Arg.(
      value & opt int 0
      & info [ "from-case" ] ~docv:"N"
          ~doc:"First case index of the audit shard (campaign sharding).")
  in
  let job_quantum =
    Arg.(
      value
      & opt (some int) None
      & info [ "quantum" ] ~docv:"STAGES"
          ~doc:"Per-job preemption quantum override.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SEC" ~doc:"Poll interval for wait.")
  in
  let instance =
    Arg.(
      value
      & opt (some string) None
      & info [ "instance" ] ~docv:"NAME"
          ~doc:"Held-instance name of a mutate job.")
  in
  let edits =
    Arg.(
      value & opt_all string []
      & info [ "edit"; "e" ] ~docv:"EDIT"
          ~doc:
            "An edit op (repeatable, in order): insert:REL:A,B or              retract:REL:A,B — negative element ids allocate fresh              elements, shared across the instance.")
  in
  Cmd.v
    (Cmd.info "client" ~exits
       ~doc:
         "Talk to a running redspiderd: submit jobs, query status, wait           for results, cancel, or drain the daemon.")
    Term.(
      const client $ obs_term $ socket_arg $ tcp_port_arg $ op $ id $ views
      $ q0 $ stages $ engine_arg $ machine $ steps $ seed $ cases $ family
      $ from_case $ job_quantum $ timeout $ instance $ edits)

let () =
  let doc = "Red Spider Meets a Rainworm — PODS 2016, executable" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "redspider" ~doc)
          [
            tinf_cmd; collide_cmd; worm_cmd; reduce_cmd; finite_model_cmd;
            theorem2_cmd; determinacy_cmd; chase_cmd; analyze_cmd; audit_cmd;
            faults_cmd; campaign_cmd; serve_cmd; client_cmd;
          ]))
