(* Jobs: what the daemon runs.

   A job is a self-contained work description decoded from the wire (and
   persisted verbatim in its manifest), plus the mutable lifecycle state
   the scheduler drives:

     queued -> running -> done | faulted | cancelled
                  \-> suspended -> (requeued) running -> ...

   [Suspended] means the job exhausted its preemption quantum: its
   engine snapshot sits in the job store as a checkpoint and the job
   goes back to the run queue, so a divergent chase (which the source
   paper guarantees exists) never monopolizes a worker.  Only chase jobs
   suspend — the other classes are bounded by their own budgets and run
   to completion within a slice.

   Everything on the wire uses the PR 5 outcome taxonomy
   ([Governor.pp_outcome] strings and the documented exit codes). *)

(* The daemon's engines: the lazy chase ([`Seminaive]) or the
   semi-oblivious one.  Every slice runs one worker. *)
type engine = [ `Seminaive | `Oblivious ]

(* One fact edit of a mutate job.  Elements are referenced by the
   structure's integer ids; a negative id names a fresh element, to be
   allocated on first use and shared across the whole edit script (so
   [{add; rel="E"; args=[4; -1]}] appends an edge into a brand-new
   vertex). *)
type edit_op = { add : bool; rel : string; args : int list }

type spec =
  | Chase of {
      views : (string * string) list; (* (name, rule) as submitted *)
      q0 : string;
      max_stages : int;
      engine : engine;
    }
  | Determinacy of {
      views : (string * string) list;
      q0 : string;
      max_stages : int;
      engine : engine;
    }
  | Worm of { machine : string; steps : int }
  | Audit of {
      seed : int;
      cases : int;
      max_stages : int;
      family : string; (* an Oracle.Shard family name; "audit" default *)
      from_case : int; (* shard offset: cases [from_case, from_case+cases) *)
    }
  | Mutate of {
      instance : string; (* daemon-held maintained instance, by name *)
      views : (string * string) list; (* its definition, used on first touch *)
      q0 : string;
      ops : edit_op list; (* the edit script, applied as one edit *)
      max_stages : int;
      engine : engine;
    }

type result_ = {
  outcome : string;  (* Governor.pp_outcome string, or a class verdict *)
  exit_code : int;   (* the PR 5 exit taxonomy for this outcome *)
  digest : string;   (* canonical digest of the produced artifact; "" if n/a *)
  detail : (string * Json.t) list; (* class-specific numbers *)
}

type state =
  | Queued
  | Running
  | Suspended
  | Done of result_
  | Faulted of string
  | Cancelled

type t = {
  id : string;
  seq : int;
  spec : spec;
  quantum_override : int option; (* per-job stage quantum, if requested *)
  submitted_wall_s : float;      (* wall clock, epoch field only *)
  mutable state : state;
  mutable slices : int;          (* quanta executed so far *)
  mutable stages_done : int;     (* chase: last completed (absolute) stage *)
  mutable wall_s : float;        (* total on-worker wall clock *)
  mutable applications : int;
  mutable considered : int;
  mutable ckey : string option;  (* resolved cache key; runtime-only, not
                                    persisted — recovery re-derives it *)
}

let id_of_seq seq = Printf.sprintf "j%06d" seq

let make ~seq ?quantum spec =
  {
    id = id_of_seq seq;
    seq;
    spec;
    quantum_override = quantum;
    submitted_wall_s = Obs.Clock.wall_s ();
    state = Queued;
    slices = 0;
    stages_done = 0;
    wall_s = 0.;
    applications = 0;
    considered = 0;
    ckey = None;
  }

let kind = function
  | Chase _ -> "chase"
  | Determinacy _ -> "determinacy"
  | Worm _ -> "worm"
  | Audit _ -> "audit"
  | Mutate _ -> "mutate"

(* The daemon-held instance a job drives, if any: the scheduler never
   batches two jobs of the same instance into one round. *)
let instance_of = function
  | Mutate { instance; _ } -> Some instance
  | Chase _ | Determinacy _ | Worm _ | Audit _ -> None

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Suspended -> "suspended"
  | Done _ -> "done"
  | Faulted _ -> "faulted"
  | Cancelled -> "cancelled"

(* A job in a terminal state will never run again. *)
let terminal j =
  match j.state with
  | Done _ | Faulted _ | Cancelled -> true
  | Queued | Running | Suspended -> false

(* --- engines ----------------------------------------------------------- *)

let engine_name : engine -> string = function
  | `Seminaive -> "seminaive"
  | `Oblivious -> "oblivious"

(* [`Stage] is the tests' and the oracle's reference, and [`Par] at the
   daemon's one worker per slice is [`Seminaive]; neither is a daemon
   engine.  Specs and stored manifests that name them run [`Seminaive],
   which builds the bit-identical structure. *)
let engine_of_name : string -> engine option = function
  | "stage" | "seminaive" | "par" -> Some `Seminaive
  | "oblivious" -> Some `Oblivious
  | _ -> None

(* --- outcome strings --------------------------------------------------- *)

let outcome_string (o : Resilience.Governor.outcome) =
  Format.asprintf "%a" Resilience.Governor.pp_outcome o

let result_of_outcome ?(digest = "") ?(detail = []) o =
  {
    outcome = outcome_string o;
    exit_code = Resilience.Governor.exit_code o;
    digest;
    detail;
  }

(* --- view parsing ------------------------------------------------------ *)

(* Views and q0 are validated at submit time, so a malformed rule is a
   synchronous error response instead of a faulted job. *)
let parse_rules views q0 =
  let ( let* ) = Result.bind in
  let rec parse_views acc = function
    | [] -> Ok (List.rev acc)
    | (_, rule) :: rest -> (
        match Cq.Parse.named_query rule with
        | Ok nq -> parse_views (nq :: acc) rest
        | Error m -> Error (Printf.sprintf "bad view %S: %s" rule m))
  in
  let* views = parse_views [] views in
  match Cq.Parse.named_query q0 with
  | Ok (_, q0) -> Ok (views, q0)
  | Error m -> Error (Printf.sprintf "bad q0 %S: %s" q0 m)

let validate spec =
  match spec with
  | Chase { views; q0; max_stages; _ }
  | Determinacy { views; q0; max_stages; _ } ->
      if max_stages <= 0 then Error "max_stages must be positive"
      else Result.map (fun _ -> ()) (parse_rules views q0)
  | Worm { machine; steps } ->
      if steps <= 0 then Error "steps must be positive"
      else if Option.is_none (List.assoc_opt machine Zoo_table.machines) then
        Error
          (Printf.sprintf "unknown machine %s (try: %s)" machine
             (String.concat ", " (List.map fst Zoo_table.machines)))
      else Ok ()
  | Audit { cases; family; from_case; _ } ->
      if cases <= 0 then Error "cases must be positive"
      else if from_case < 0 then Error "from_case must be non-negative"
      else if family = "faults" then
        (* the faults oracle owns the process-global failpoint registry;
           running it inside a multi-worker daemon would perturb every
           concurrent chase slice *)
        Error "faults shards cannot run as daemon jobs"
      else if Option.is_none (Oracle.Shard.family_of_name family) then
        Error (Printf.sprintf "unknown oracle family %s" family)
      else Ok ()
  | Mutate { instance; views; q0; ops; max_stages; engine } ->
      if instance = "" then Error "instance must be named"
      else if max_stages <= 0 then Error "max_stages must be positive"
      else if engine <> `Seminaive then
        Error "mutate jobs need the maintained engine (seminaive)"
      else if List.exists (fun o -> o.rel = "") ops then
        Error "edit op with an empty relation name"
      else Result.map (fun _ -> ()) (parse_rules views q0)

(* --- structure digest -------------------------------------------------- *)

(* Canonical digest of a chased structure: the live journal (order
   included, symbols by content, elements by id) plus the element count —
   the witness the bit-identity tests compare across preempted vs
   uninterrupted runs, across engines, and now across cache paths.  The
   digest is history-sensitive on purpose: a retract-then-re-add leaves
   a different journal than never touching the fact, which is exactly
   what distinguishes a maintained instance from a re-chase.

   Streamed: [Structure.digest_hex] feeds the journal suffix since its
   last call straight into the 128-bit mixer — no O(journal) text render
   per digest (the old witness built the whole journal as a string and
   MD5'd it on every job completion). *)
let structure_digest d = Relational.Structure.digest_hex d

(* --- cache classification ---------------------------------------------- *)

(* How a spec may be served from the result cache.

   [Pure k]: the result is a function of the spec alone — the key [k]
   canonicalizes the inputs (ruleset digest + canonical-instance digest
   for chases, machine/steps for worms, parameters for audits).  Of the
   engine only its chase class is part of the key: the semi-oblivious
   chase builds a different structure from the lazy one and keys
   apart.  [quantum_override] is excluded because
   preempted ≡ uninterrupted is an invariant, not a parameter.

   [Instance_read]: a mutate job with an empty edit script reads a
   daemon-held instance; its key is only complete once the scheduler
   appends the instance's predicted version, and the entry must die with
   the version (see [Server] — such entries are never persisted).

   [Uncacheable]: a mutate with edits changes daemon state; running it
   twice is two distinct edits. *)
type cache_class =
  | Uncacheable
  | Pure of string
  | Instance_read of { instance : string; partial : string }

(* The chase class of an engine, in the key of every chase-backed spec.
   The ["/lazy"] and ["/oblivious"] suffixes also retire every entry
   persisted while the key held no engine at all. *)
let engine_class : engine -> string = function
  | `Seminaive -> "lazy"
  | `Oblivious -> "oblivious"

let chase_key ~tag views q0 max_stages =
  match parse_rules views q0 with
  | Error _ -> None (* validation rejects it before it gets a key *)
  | Ok (named, q0) ->
      let deps = Tgd.Dep.t_q named in
      let canon, _ = Tgd.Greenred.green_canonical q0 in
      Some
        (Relational.Digest128.of_strings
           [
             tag;
             Tgd.Dep.digest_hex deps;
             Relational.Structure.digest_hex canon;
             string_of_int max_stages;
           ])

let cache_class = function
  | Chase { views; q0; max_stages; engine } -> (
      match
        chase_key ~tag:("chase/" ^ engine_class engine) views q0 max_stages
      with
      | Some k -> Pure k
      | None -> Uncacheable)
  | Determinacy { views; q0; max_stages; engine } -> (
      match
        chase_key ~tag:("determinacy/" ^ engine_class engine) views q0
          max_stages
      with
      | Some k -> Pure k
      | None -> Uncacheable)
  | Worm { machine; steps } ->
      Pure
        (Relational.Digest128.of_strings
           [ "worm"; machine; string_of_int steps ])
  | Audit { seed; cases; max_stages; family; from_case } ->
      Pure
        (Relational.Digest128.of_strings
           [
             "audit";
             family;
             string_of_int seed;
             string_of_int cases;
             string_of_int max_stages;
             string_of_int from_case;
           ])
  | Mutate { ops = _ :: _; _ } -> Uncacheable
  | Mutate { instance; views; q0; ops = []; max_stages; _ } -> (
      match chase_key ~tag:"mutate-read" views q0 max_stages with
      | Some partial -> Instance_read { instance; partial }
      | None -> Uncacheable)

(* --- wire encoding ----------------------------------------------------- *)

let spec_to_json spec =
  let views_json vs =
    Json.List
      (List.map
         (fun (n, r) -> Json.Obj [ ("name", Json.String n); ("rule", Json.String r) ])
         vs)
  in
  match spec with
  | Chase { views; q0; max_stages; engine } ->
      Json.Obj
        [
          ("kind", Json.String "chase");
          ("views", views_json views);
          ("q0", Json.String q0);
          ("max_stages", Json.Int max_stages);
          ("engine", Json.String (engine_name engine));
        ]
  | Determinacy { views; q0; max_stages; engine } ->
      Json.Obj
        [
          ("kind", Json.String "determinacy");
          ("views", views_json views);
          ("q0", Json.String q0);
          ("max_stages", Json.Int max_stages);
          ("engine", Json.String (engine_name engine));
        ]
  | Worm { machine; steps } ->
      Json.Obj
        [
          ("kind", Json.String "worm");
          ("machine", Json.String machine);
          ("steps", Json.Int steps);
        ]
  | Audit { seed; cases; max_stages; family; from_case } ->
      Json.Obj
        [
          ("kind", Json.String "audit");
          ("seed", Json.Int seed);
          ("cases", Json.Int cases);
          ("max_stages", Json.Int max_stages);
          ("family", Json.String family);
          ("from_case", Json.Int from_case);
        ]
  | Mutate { instance; views; q0; ops; max_stages; engine } ->
      Json.Obj
        [
          ("kind", Json.String "mutate");
          ("instance", Json.String instance);
          ("views", views_json views);
          ("q0", Json.String q0);
          ( "ops",
            Json.List
              (List.map
                 (fun o ->
                   Json.Obj
                     [
                       ("op", Json.String (if o.add then "insert" else "retract"));
                       ("rel", Json.String o.rel);
                       ("args", Json.List (List.map (fun a -> Json.Int a) o.args));
                     ])
                 ops) );
          ("max_stages", Json.Int max_stages);
          ("engine", Json.String (engine_name engine));
        ]

let spec_of_json j =
  let ( let* ) = Result.bind in
  let req what = function Some v -> Ok v | None -> Error ("missing " ^ what) in
  let views () =
    match Json.mem_list "views" j with
    | None -> Error "missing views"
    | Some vs ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | v :: rest -> (
              match (Json.mem_str "name" v, Json.mem_str "rule" v) with
              | Some n, Some r -> go ((n, r) :: acc) rest
              | _ -> (
                  (* also accept a bare rule string; the name is parsed
                     out of the rule head anyway *)
                  match Json.to_str v with
                  | Some r -> go (("", r) :: acc) rest
                  | None -> Error "bad view entry"))
        in
        go [] vs
  in
  let engine () =
    match Json.mem_str "engine" j with
    | None -> Ok `Seminaive
    | Some s -> (
        match engine_of_name s with
        | Some e -> Ok e
        | None -> Error (Printf.sprintf "unknown engine %s" s))
  in
  let* k = req "kind" (Json.mem_str "kind" j) in
  match k with
  | "chase" ->
      let* views = views () in
      let* q0 = req "q0" (Json.mem_str "q0" j) in
      let* engine = engine () in
      let max_stages = Option.value (Json.mem_int "max_stages" j) ~default:64 in
      Ok (Chase { views; q0; max_stages; engine })
  | "determinacy" ->
      let* views = views () in
      let* q0 = req "q0" (Json.mem_str "q0" j) in
      let* engine = engine () in
      let max_stages = Option.value (Json.mem_int "max_stages" j) ~default:32 in
      Ok (Determinacy { views; q0; max_stages; engine })
  | "worm" ->
      let* machine = req "machine" (Json.mem_str "machine" j) in
      let steps = Option.value (Json.mem_int "steps" j) ~default:200 in
      Ok (Worm { machine; steps })
  | "audit" ->
      let seed = Option.value (Json.mem_int "seed" j) ~default:42 in
      let cases = Option.value (Json.mem_int "cases" j) ~default:50 in
      let max_stages = Option.value (Json.mem_int "max_stages" j) ~default:4 in
      let family = Option.value (Json.mem_str "family" j) ~default:"audit" in
      let from_case = Option.value (Json.mem_int "from_case" j) ~default:0 in
      Ok (Audit { seed; cases; max_stages; family; from_case })
  | "mutate" ->
      let* instance = req "instance" (Json.mem_str "instance" j) in
      let* views = views () in
      let* q0 = req "q0" (Json.mem_str "q0" j) in
      let* engine = engine () in
      let* ops =
        match Json.mem_list "ops" j with
        | None -> Error "missing ops"
        | Some os ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | o :: rest -> (
                  let args =
                    Option.bind (Json.mem_list "args" o) (fun vs ->
                        let is = List.filter_map Json.to_int vs in
                        if List.length is = List.length vs then Some is
                        else None)
                  in
                  match (Json.mem_str "op" o, Json.mem_str "rel" o, args) with
                  | Some "insert", Some rel, Some args ->
                      go ({ add = true; rel; args } :: acc) rest
                  | Some "retract", Some rel, Some args ->
                      go ({ add = false; rel; args } :: acc) rest
                  | _ -> Error "bad edit op (want op/rel/args)")
            in
            go [] os
      in
      let max_stages = Option.value (Json.mem_int "max_stages" j) ~default:64 in
      Ok (Mutate { instance; views; q0; ops; max_stages; engine })
  | k -> Error (Printf.sprintf "unknown job kind %s" k)

let result_to_json r =
  Json.Obj
    ([
       ("outcome", Json.String r.outcome);
       ("exit_code", Json.Int r.exit_code);
       ("digest", Json.String r.digest);
     ]
    @ r.detail)

let result_of_json j =
  let outcome = Option.value (Json.mem_str "outcome" j) ~default:"?" in
  let exit_code = Option.value (Json.mem_int "exit_code" j) ~default:1 in
  let digest = Option.value (Json.mem_str "digest" j) ~default:"" in
  let detail =
    match j with
    | Json.Obj kvs ->
        List.filter
          (fun (k, _) -> k <> "outcome" && k <> "exit_code" && k <> "digest")
          kvs
    | _ -> []
  in
  { outcome; exit_code; digest; detail }

(* The job summary shown by status/jobs responses. *)
let summary_json j =
  Json.Obj
    ([
       ("id", Json.String j.id);
       ("kind", Json.String (kind j.spec));
       ("state", Json.String (state_name j.state));
       ("slices", Json.Int j.slices);
       ("stages_done", Json.Int j.stages_done);
       ("wall_s", Json.Float j.wall_s);
       ("applications", Json.Int j.applications);
       ("triggers_considered", Json.Int j.considered);
     ]
    @ (match j.state with
      | Done r -> [ ("result", result_to_json r) ]
      | Faulted m -> [ ("error", Json.String m) ]
      | _ -> []))

(* --- manifest (de)serialization ---------------------------------------- *)

let manifest_json j =
  Json.Obj
    [
      ("id", Json.String j.id);
      ("seq", Json.Int j.seq);
      ("spec", spec_to_json j.spec);
      ( "quantum",
        match j.quantum_override with None -> Json.Null | Some q -> Json.Int q );
      ("submitted_wall_s", Json.Float j.submitted_wall_s);
      ("state", Json.String (state_name j.state));
      ( "result",
        match j.state with Done r -> result_to_json r | _ -> Json.Null );
      ( "fault",
        match j.state with Faulted m -> Json.String m | _ -> Json.Null );
      ("slices", Json.Int j.slices);
      ("stages_done", Json.Int j.stages_done);
      ("wall_s", Json.Float j.wall_s);
      ("applications", Json.Int j.applications);
      ("considered", Json.Int j.considered);
    ]

let manifest_of_json j =
  let ( let* ) = Result.bind in
  let* id =
    match Json.mem_str "id" j with Some v -> Ok v | None -> Error "missing id"
  in
  let* seq =
    match Json.mem_int "seq" j with Some v -> Ok v | None -> Error "missing seq"
  in
  let* spec =
    match Json.member "spec" j with
    | Some s -> spec_of_json s
    | None -> Error "missing spec"
  in
  let state_s = Option.value (Json.mem_str "state" j) ~default:"queued" in
  let* state =
    match state_s with
    | "queued" -> Ok Queued
    (* a manifest frozen mid-run means the daemon crashed inside a
       slice: the slice's work is lost, but the last published
       checkpoint (if any) is intact — recover as suspended/queued *)
    | "running" -> Ok Running
    | "suspended" -> Ok Suspended
    | "done" -> (
        match Json.member "result" j with
        | Some r -> Ok (Done (result_of_json r))
        | None -> Error "done manifest without result")
    | "faulted" ->
        Ok (Faulted (Option.value (Json.mem_str "fault" j) ~default:"?"))
    | "cancelled" -> Ok Cancelled
    | s -> Error (Printf.sprintf "unknown state %s" s)
  in
  Ok
    {
      id;
      seq;
      spec;
      quantum_override = Json.mem_int "quantum" j;
      submitted_wall_s =
        Option.value (Json.mem_float "submitted_wall_s" j) ~default:0.;
      state;
      slices = Option.value (Json.mem_int "slices" j) ~default:0;
      stages_done = Option.value (Json.mem_int "stages_done" j) ~default:0;
      wall_s = Option.value (Json.mem_float "wall_s" j) ~default:0.;
      applications = Option.value (Json.mem_int "applications" j) ~default:0;
      considered = Option.value (Json.mem_int "considered" j) ~default:0;
      ckey = None;
    }
