(** Atomic, durable checkpoint files: a one-line header (magic, kind,
    md5 digest, payload length) followed by a closure-free [Marshal]
    payload, written to a unique temp file ([path ^ ".tmp.<pid>.<n>"],
    safe for concurrent writers to one path), fsynced, published with an
    atomic [Sys.rename], then made durable with a directory fsync.  A
    reader sees either the previous checkpoint or the new one, never a
    torn file — even across a crash right after the publish; the digest
    catches out-of-band corruption of a published file, and the header
    length is validated against the file size before any allocation, so
    {!load} on an adversarial or damaged file is always a clean
    [Error].

    The ["checkpoint.write"] failpoint makes {!save} die mid-payload
    before the rename: the temp file is torn, removed, and the published
    path is untouched. *)

val clone : 'a -> 'a
(** Marshal round-trip deep clone.  Preserves arena ids and the
    retraction journal — the only safe way to copy a live
    [Structure.t]/[Graph.t] a resumed run depends on ([Structure.copy]
    re-adds the live facts under fresh ids). *)

val save : kind:string -> string -> 'a -> (unit, string) result
(** [save ~kind path v] atomically publishes [v] at [path].  [kind] is a
    space-free tag checked by {!load} (e.g. ["tgd-chase"]). *)

val load : kind:string -> string -> ('a, string) result
(** Read back a checkpoint, verifying magic, kind, payload length and
    digest.  The caller asserts the payload type through [kind].  The
    magic carries the format version (["REDSPIDER-CKPT-3"]); a file of
    another version is an [Error] that names it, never unmarshalled. *)

val write_atomic : string -> string -> (unit, string) result
(** [write_atomic path content] publishes [content] at [path] with the
    same unique-temp + fsync + rename + directory-fsync discipline as
    {!save}, without the checkpoint header.  Used for small durable
    text files (the daemon's job manifests). *)
