(* Atomic, durable checkpoint files.

   Format: one header line

     REDSPIDER-CKPT-4 <kind> <md5-hex-of-payload> <payload-length>\n

   followed by the Marshal payload.  The magic names the payload's
   memory layout: Marshal output is only readable at the exact type it
   was written at, so every change to the layout of a checkpointed type
   ([Structure.t], [Symbol.t], the engine snapshot) bumps the version,
   and [load] refuses a file of any other version with a clean error
   naming it instead of unmarshalling it at the wrong type.  Version 1
   predates the one-table fact store and the stored symbol hash;
   version 2 predates the flat store (facts kept only in the arena,
   pins and elements in open-addressing int tables); version 3 predates
   the packed two-fact buckets and the one-word arena entry.

   Writes go to a *unique* temp file next to [path] and are published
   with [Sys.rename], which is atomic on POSIX: a reader of [path] sees
   either the previous checkpoint or the new one, never a torn file.

   Durability: the temp fd is fsynced before the rename and the
   containing directory is fsynced after it.  Without the first fsync a
   crash shortly after "publish" can leave [path] pointing at pages the
   kernel never flushed — an empty or torn file whose digest check then
   rejects it, silently losing the *previous* good checkpoint that the
   rename replaced.  Without the second, the rename itself may not have
   reached disk.  The digest additionally catches out-of-band corruption
   of a published file, so [load] always either returns the exact
   snapshot or a clean error.

   Temp names embed the pid and a process-wide counter
   ([path ^ ".tmp.<pid>.<n>"]): two concurrent writers — two daemon
   workers suspending jobs to the same store, or a daemon and a CLI run
   sharing a path — each write their own temp file and publish with
   their own rename, so the last rename wins with a *consistent*
   payload; a fixed suffix would let them interleave writes into one
   file and publish a mismatched header/payload pair.

   The payload is produced by [Marshal] without closures: every snapshot
   type in this repo (Structure.t, Graph.t, the engine snapshot records)
   is closure-free data, and the round-trip preserves everything a
   resumed run depends on — unlike [Structure.copy], which re-adds the
   live facts under fresh ids, dropping the retraction journal and the
   arena ids a snapshot's watermarks point into. *)

let magic_prefix = "REDSPIDER-CKPT-"
let magic = magic_prefix ^ "4"

(* Marshal round-trip deep clone: the only copy of a live structure that
   keeps its arena ids and retraction journal, as a snapshot needs. *)
let clone v = Marshal.from_string (Marshal.to_string v []) 0

(* Process-wide temp-name counter; atomic because daemon pool workers
   checkpoint concurrently. *)
let tmp_counter = Atomic.make 0

let fresh_tmp path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

(* Directory fsync after rename, so the publish itself is on disk.
   Best-effort: some filesystems refuse to fsync a directory fd, and a
   failure here cannot un-publish the checkpoint. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let error_message = function
  | Sys_error m -> m
  | Unix.Unix_error (e, fn, arg) ->
      Printf.sprintf "%s: %s (%s)" fn (Unix.error_message e) arg
  | e -> Printexc.to_string e

(* Write [emit]'s output to a unique temp file, fsync it, publish it at
   [path] with an atomic rename, and fsync the directory.  The temp file
   is removed on *every* failure — including exceptions other than
   [Sys_error]/[Unix_error], which are re-raised after cleanup rather
   than silently leaking the temp. *)
let publish_atomic path emit =
  let tmp = fresh_tmp path in
  let cleanup () =
    try Sys.remove tmp with Sys_error _ | Unix.Unix_error _ -> ()
  in
  let write () =
    let fd =
      Unix.openfile tmp
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o644
    in
    let oc = Unix.out_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        emit oc;
        flush oc;
        Unix.fsync fd)
  in
  match
    write ();
    Sys.rename tmp path;
    fsync_dir (Filename.dirname path)
  with
  | () -> Ok ()
  | exception Failpoint.Injected site ->
      cleanup ();
      Error
        (Printf.sprintf
           "fault injected at %s: checkpoint not published (previous \
            checkpoint, if any, is intact)"
           site)
  | exception ((Sys_error _ | Unix.Unix_error _) as e) ->
      cleanup ();
      Error (error_message e)
  | exception e ->
      cleanup ();
      raise e

let write_atomic path content =
  publish_atomic path (fun oc -> output_string oc content)

let save ~kind path v =
  if String.contains kind ' ' then invalid_arg "Checkpoint.save: kind has a space";
  let payload = Marshal.to_string v [] in
  let digest = Digest.to_hex (Digest.string payload) in
  publish_atomic path (fun oc ->
      Printf.fprintf oc "%s %s %s %d\n" magic kind digest
        (String.length payload);
      (* the crash-mid-write failpoint: half the payload lands in the
         temp file, the rename never happens *)
      if Failpoint.fire "checkpoint.write" then begin
        output_substring oc payload 0 (String.length payload / 2);
        flush oc;
        raise (Failpoint.Injected "checkpoint.write")
      end;
      output_string oc payload)

let load ~kind path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = input_line ic in
        match String.split_on_char ' ' header with
        | [ m; k; digest; len ] when m = magic ->
            if k <> kind then
              Error
                (Printf.sprintf "checkpoint kind mismatch: wanted %s, file has %s"
                   kind k)
            else (
              (* The header length is untrusted input (the daemon loads
                 checkpoints it did not write): a negative value would
                 crash [really_input_string] and an absurdly large one
                 would try to allocate it.  Anything outside the bytes
                 actually present is the same clean error a torn file
                 gets. *)
              match int_of_string_opt len with
              | None -> Error "bad checkpoint header"
              | Some n ->
                  let remaining = in_channel_length ic - pos_in ic in
                  if n < 0 || n > remaining then
                    Error
                      (Printf.sprintf
                         "bad checkpoint payload length %d (file has %d \
                          bytes after the header)"
                         n remaining)
                  else
                    let payload = really_input_string ic n in
                    if Digest.to_hex (Digest.string payload) <> digest then
                      Error "checkpoint digest mismatch (torn or corrupt file)"
                    else Ok (Marshal.from_string payload 0))
        | m :: _ when String.starts_with ~prefix:magic_prefix m ->
            Error
              (Printf.sprintf
                 "checkpoint format %s is not readable by this build, which \
                  reads %s"
                 m magic)
        | _ -> Error "bad checkpoint header")
  with
  | End_of_file -> Error "truncated checkpoint"
  | Failure _ -> Error "bad checkpoint header"
  | Sys_error m -> Error m
