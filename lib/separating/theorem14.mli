(** Theorem 14, made executable: T = T∞ ∪ T□ does not lead to the red
    spider but finitely leads to it. *)

(** Bounded evidence for the unrestricted side: chase T from D_I and
    report (no-pattern?, graph). *)
val chase_prefix_clean :
  ?governor:Resilience.Governor.t ->
  stages:int ->
  unit ->
  bool * Greengraph.Graph.t

(** The finite-side mechanism (Lemma 17): grid a fold of two αβ-paths. *)
val collision_outcome :
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  t:int ->
  t':int ->
  unit ->
  bool * Greengraph.Rule.stats * Greengraph.Graph.t

(** Lemma 18's intuition: a single path grids into M_t harmlessly. *)
val single_path_outcome :
  ?governor:Resilience.Governor.t ->
  ?max_stages:int ->
  t:int ->
  unit ->
  bool * Greengraph.Rule.stats * Greengraph.Graph.t
