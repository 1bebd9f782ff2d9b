(** Streaming 128-bit digests for journals and rulesets.

    A fast non-cryptographic two-lane mixer with a streaming feed: the
    digest is a pure function of the sequence of [feed_*] calls, however
    the feed is split across calls, so incremental feeds (structure
    journals growing under the chase) and from-scratch refeeds agree.
    State is three scalars — Marshal-safe inside engine snapshots. *)

type t

val create : unit -> t

(** O(1) structural copy; the copy feeds independently. *)
val copy : t -> t

(** Reset to the initial state. *)
val reset : t -> unit

val feed_int : t -> int -> unit

(** Length-prefixed, so consecutive string feeds are unambiguous. *)
val feed_string : t -> string -> unit

(** Finalize a snapshot of the state as 32 hex digits; the live state
    stays feedable.  [salt] folds trailing ints (cardinalities, params)
    into the result without disturbing the incremental feed. *)
val hex : ?salt:int list -> t -> string

(** One-shot digest of a string list. *)
val of_strings : string list -> string
