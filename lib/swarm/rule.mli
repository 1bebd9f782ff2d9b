(** Swarm rewriting rules — the set L₁ of Definition 7 — and their chase.

    A rule f^{I1}_{J1} &· f^{I2}_{J2} (resp. /·) demands, for every pair
    of same-colored edges sharing their target (resp. source) to which the
    Rule of Spider Algebra applies, a witness pair of ♣-image edges
    anchored at the old free endpoints and sharing a joint endpoint. *)

type t = {
  left : Spider.Query.f;
  right : Spider.Query.f;
  conn : Spider.Query.conn;
}

(** [amp f f'] is f &· f' (shared targets). *)
val amp : Spider.Query.f -> Spider.Query.f -> t

(** [slash f f'] is f /· f' (shared sources). *)
val slash : Spider.Query.f -> Spider.Query.f -> t

(** The rule seen as a binary query from F₂. *)
val binary : t -> Spider.Query.binary

(** Definition 8: Compile treats each swarm rule as a binary query. *)
val compile : t -> Spider.Query.binary

val compile_set : t list -> Spider.Query.binary list

(** Both lower indices nonempty (Definition 33). *)
val is_lower : t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Semantics} *)

(** The identified endpoint of an edge under a connector. *)
val shared_of : Spider.Query.conn -> Graph.edge -> int

(** The free endpoint. *)
val free_of : Spider.Query.conn -> Graph.edge -> int

(** The active triggers: demanded-but-absent witness pairs. *)
val triggers : t -> Graph.t -> ((Spider.Ideal.t * int) * (Spider.Ideal.t * int)) list

(** Fire one trigger: fresh joint vertex plus the two witness edges. *)
val fire : t -> Graph.t -> (Spider.Ideal.t * int) * (Spider.Ideal.t * int) -> unit

val models : t list -> Graph.t -> bool

type stats = { stages : int; applications : int; fixpoint : bool }

(** Stage-based chase mirroring {!Tgd.Chase.run}. *)
val chase : ?max_stages:int -> ?stop:(Graph.t -> bool) -> t list -> Graph.t -> stats

(** Definition 11 for L₁, bounded: chase the seed swarm and watch for a
    full red spider edge. *)
val leads_to_red_spider :
  ?max_stages:int ->
  t list ->
  [ `Leads of stats * Graph.t
  | `Does_not_lead of stats * Graph.t
  | `Unknown of stats * Graph.t ]
