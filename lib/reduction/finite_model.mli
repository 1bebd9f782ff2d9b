(** The finite-model construction of Section VIII.E (Lemma 24 "⇐"): for a
    halting rainworm, a finite green graph containing D_I, satisfying
    T_M (Lemma 26) — and, after gridding, T_M ∪ T□ — with no 1-2
    pattern. *)

type t = {
  graph : Greengraph.Graph.t;
  a : int;
  b : int;
  stages_run : int;
}

(** Build M = M_{k_M + 1} from the final configuration. *)
val build : Worm_rules.t -> final_config:Rainworm.Config.t -> k_m:int -> t

(** Lemma 40(1) (Appendix C), executable: every word of the (pre-grid)
    model decodes to a machine word creeping forward to exactly u_M.
    Returns the number of words checked.
    @raise Failure on a violation. *)
val check_lemma40 :
  ?max_len:int -> Worm_rules.t -> t -> final_config:Rainworm.Config.t -> int

(** Run the machine to termination, build M and grid it into M̄.
    @raise Invalid_argument if the machine does not halt in the budget. *)
val of_halting_machine :
  ?max_steps:int ->
  Rainworm.Machine.t ->
  Worm_rules.t * t * Greengraph.Rule.stats
