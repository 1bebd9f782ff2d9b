(* The persistent job store: one directory, two files per job, plus the
   persistent segment of the result cache.

     <id>.job    the JSON manifest (spec + lifecycle state + counters)
     <id>.ckpt   the engine snapshot of a suspended chase job
                 (REDSPIDER-CKPT-4, kind "tgd-chase")
     <key>.res   a cached result, named by its 32-hex-digit cache key
                 (pure keys only — instance reads never persist)

   Both are published with [Checkpoint]'s unique-temp + fsync + rename
   discipline, so a crash at any point leaves every job either at its
   previous durable state or its new one — never torn.  Daemon restart
   is a directory scan: terminal jobs are history, suspended/queued jobs
   re-enter the run queue, and a job frozen as "running" (the daemon
   died inside a slice) falls back to its last checkpoint, or to a fresh
   start if it never completed a quantum. *)

type t = { dir : string }

let manifest_suffix = ".job"

let open_ dir =
  let rec mkdirs d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mkdirs dir;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Store.open_: %s is not a directory" dir);
  { dir }

let manifest_path t id = Filename.concat t.dir (id ^ manifest_suffix)
let ckpt_path t id = Filename.concat t.dir (id ^ ".ckpt")

let save_manifest t (job : Job.t) =
  Resilience.Checkpoint.write_atomic (manifest_path t job.Job.id)
    (Json.to_string (Job.manifest_json job) ^ "\n")

let has_checkpoint t id = Sys.file_exists (ckpt_path t id)

let remove_checkpoint t id =
  try Sys.remove (ckpt_path t id) with Sys_error _ -> ()

let ckpt_suffix = ".ckpt"

(* Delete every [<id>.ckpt] whose owner [keep id] disavows — the crash-
   recovery sweep for checkpoints orphaned by a job that reached a
   terminal state (or lost its manifest) before the file was removed.
   Returns the ids swept. *)
let sweep_checkpoints t ~keep =
  let entries = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name ckpt_suffix then begin
        let id = Filename.chop_suffix name ckpt_suffix in
        if keep id then acc
        else begin
          (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
          id :: acc
        end
      end
      else acc)
    [] entries

(* Every parseable manifest, sorted by submission sequence; unreadable
   or corrupt manifests are returned as (file, error) pairs rather than
   aborting recovery — one damaged job must not take the store down. *)
let load_all t =
  let entries = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let jobs = ref [] and bad = ref [] in
  Array.iter
    (fun name ->
      if Filename.check_suffix name manifest_suffix then begin
        let path = Filename.concat t.dir name in
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | exception Sys_error m -> bad := (name, m) :: !bad
        | raw -> (
            match Result.bind (Json.parse raw) Job.manifest_of_json with
            | Ok job -> jobs := job :: !jobs
            | Error m -> bad := (name, m) :: !bad)
      end)
    entries;
  ( List.sort (fun (a : Job.t) b -> compare a.Job.seq b.Job.seq) !jobs,
    List.rev !bad )

(* The next submission sequence number after a restart. *)
let next_seq jobs =
  1 + List.fold_left (fun m (j : Job.t) -> max m j.Job.seq) 0 jobs

(* --- persistent result-cache segment ----------------------------------- *)

let res_suffix = ".res"
let res_path t key = Filename.concat t.dir (key ^ res_suffix)

let save_result t ~key json =
  Resilience.Checkpoint.write_atomic (res_path t key)
    (Json.to_string json ^ "\n")

let remove_result t key =
  try Sys.remove (res_path t key) with Sys_error _ -> ()

(* Delete every [<key>.res] the result cache disavows — the mirror of
   [sweep_checkpoints] for the persistent cache segment.  Entries are
   orphaned when the cache restarts disabled (capacity 0 or persistence
   off), shrinks below a previously persisted population, or when a key
   schema change strands old digests; without the sweep they accumulate
   forever.  Returns the keys swept. *)
let sweep_results t ~keep =
  let entries = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name res_suffix then begin
        let key = Filename.chop_suffix name res_suffix in
        if keep key then acc
        else begin
          (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
          key :: acc
        end
      end
      else acc)
    [] entries

(* Delete temp files left by writers the daemon's death interrupted.
   [Checkpoint.fresh_tmp] names them [<target>.tmp.<pid>.<n>]; at
   recovery no writer of this store is alive (one daemon per store),
   so anything tmp-infixed is garbage.  Returns the names swept. *)
let sweep_temps t =
  let entries = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let tmp_infix name =
    let rec find i =
      i + 5 <= String.length name
      && (String.sub name i 5 = ".tmp." || find (i + 1))
    in
    find 0
  in
  Array.fold_left
    (fun acc name ->
      if tmp_infix name then begin
        (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
        name :: acc
      end
      else acc)
    [] entries

(* Every parseable [<key>.res] entry; a corrupt entry is deleted rather
   than reported — the cache is a performance artifact, losing one entry
   re-runs one job. *)
let load_results t =
  let entries = try Sys.readdir t.dir with Sys_error _ -> [||] in
  Array.fold_left
    (fun acc name ->
      if Filename.check_suffix name res_suffix then begin
        let path = Filename.concat t.dir name in
        let key = Filename.chop_suffix name res_suffix in
        match
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with
        | exception Sys_error _ -> acc
        | raw -> (
            match Json.parse raw with
            | Ok json -> (key, json) :: acc
            | Error _ ->
                (try Sys.remove path with Sys_error _ -> ());
                acc)
      end
      else acc)
    [] entries
