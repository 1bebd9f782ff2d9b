(** Seeded failpoint harness.  A spec such as
    ["par.shard=0.25,checkpoint.write=0.1,arena.grow"] arms the named
    sites with the given firing probabilities (a bare name means 1.0).
    Decisions come from a private splitmix64 stream, so a (seed, spec)
    pair replays the exact fault schedule.

    Sites currently wired in:
    - ["par.shard"]: a par discovery worker dies before scanning its
      shard ([Tgd.Chase] and [Greengraph.Rule] walk {!ladder}: retry
      once, then degrade to sequential discovery for that scan);
    - ["par.fire"]: a staged parallel firing task dies before staging
      its chunk ([Tgd.Chase] walks {!ladder}, degrading to the
      sequential firing path);
    - ["arena.grow"]: the fact arena's growth path fails, surfacing as a
      [Faulted] outcome;
    - ["checkpoint.write"]: a checkpoint write dies mid-payload before
      the atomic rename, leaving the previous checkpoint intact;
    - ["shard.case"]: an oracle shard worker dies at the start of a
      case ([Oracle.Shard.run] propagates it; the campaign supervisor
      reclaims the lease and retries the shard);
    - ["campaign.vanish"]: a campaign worker finishes a shard but its
      completion is silently dropped — only lease expiry recovers it;
    - ["campaign.ledger"]: a campaign ledger append is torn mid-record
      (recovery skips the bad trailing line; the next successful append
      republishes it);
    - ["campaign.sock"]: the daemon-mode campaign poll loop loses its
      socket mid-wait and must reconnect;
    - ["client.connect"]: a [Serve.Client] connection attempt fails,
      exercising the jittered connect/request retry path. *)

exception Injected of string
(** Raised at a faulting site; the payload is the site name. *)

val configure : ?seed:int -> string -> (unit, string) result
(** Arm the sites of [spec]; an empty spec disarms everything. *)

val configure_exn : ?seed:int -> string -> unit
(** [configure], raising [Invalid_argument] on a malformed spec. *)

val clear : unit -> unit
(** Disarm all sites (and forget their counters). *)

val active : unit -> bool
(** Any site armed?  The disabled fast path is this single ref read. *)

val fire : string -> bool
(** Should the named site fault now?  Counts the probe either way;
    unarmed/unknown sites never fault and never consume randomness. *)

val hit : string -> unit
(** [fire] that raises {!Injected} instead of returning [true]. *)

type summary = { name : string; prob : float; hits : int; injected : int }

val summary : unit -> summary list
(** Per-site counters, sorted by name; empty when disarmed. *)

val injected_total : unit -> int

val ladder :
  site:string -> int -> ((int -> unit) -> 'a) -> degrade:(unit -> 'a) -> 'a
(** [ladder ~site n run ~degrade] is the par engines' fault ladder over
    [n] tasks.  Each attempt draws one [site] decision per task before
    calling [run guard], where [run] spawns the tasks and each task [t]
    calls [guard t] first; a task marked to fault raises {!Injected}
    there.  A faulted attempt is retried once, then [degrade ()] runs
    instead.  Ticks ["resilience.par_retries"] on each retry and
    ["resilience.par_degraded"] on each degrade.  [run] and [degrade]
    must compute the same result, so a faulted run is bit-identical to
    an un-faulted one. *)

val pp_summary : Format.formatter -> summary -> unit
