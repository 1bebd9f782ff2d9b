(** Precompile (Definition 9): L₂ rules into L₁ swarm rules, and the full
    Lemma 12 pipeline down to conjunctive queries over Σ. *)

(** The three bootstrap rules that turn a 1-2 pattern into the full red
    spider in three steps (footnote 10). *)
val base_rules : Swarm.Rule.t list

val precompile : Rule.t list -> Swarm.Rule.t list

(** The leg count s needed at Levels 1 and 0: max of the labels, the
    reserved 1–4 and the numbering range 2(k+1)+2. *)
val required_s : Rule.t list -> int

(** Definition 36: a green graph becomes a swarm by adding the red
    witnesses of one Precompile chase stage (Lemma 32(ii)). *)
val precompile_graph : Rule.t list -> Graph.t -> Swarm.Graph.t

(** A fully materialized Level-0 image of a Level-2 rule set. *)
type level0 = {
  ctx : Spider.Ctx.t;
  swarm_rules : Swarm.Rule.t list;
  binaries : Spider.Query.binary list;
  queries : (string * Cq.Query.t) list;  (** Q = Compile(Precompile(T)) *)
  tgds : Tgd.Dep.t list;                 (** T_Q *)
}

val to_level0 : ?s:int -> Rule.t list -> level0
