(** ∆ → T_M: a rainworm machine as green-graph rewriting rules
    (Section VIII.C), plus the Lemma 24/25 tooling. *)

type t = {
  labeling : Labeling.t;
  machine : Rainworm.Machine.t;
  rules : Greengraph.Rule.t list;  (** T_M *)
}

(** The two machine-independent rules: ∅&··∅ ] α&··η11 and
    η11/··∅ ] γ1/··η0. *)
val base_rules : Labeling.t -> Greengraph.Rule.t list

val of_machine : ?labeling:Labeling.t -> Rainworm.Machine.t -> t

(** T_M□ = T_M ∪ T□, the rule set of Lemma 24. *)
val with_grid : t -> Greengraph.Rule.t list

(** Bounded chase(T_M, D_I) (optionally with T□). *)
val chase :
  ?with_tbox:bool ->
  stages:int ->
  t ->
  Greengraph.Graph.t * int * int * Greengraph.Rule.stats

(** The word of a configuration, to be tested against the chase
    (Lemma 25). *)
val configuration_word : t -> Rainworm.Config.t -> int list

(** The b-vertices of the longest α(β1β0)* spine from [a] in Parity
    Glasses. *)
val alpha_beta_spine : Greengraph.Graph.t -> a:int -> int list

(** Lemma 24 "⇒" made finite: chase, fold spine vertices [i] and [j]
    together (the pigeonhole collision of any finite model), grid with T□
    and look for the 1-2 pattern.
    @raise Invalid_argument when the spine is shorter than the fold. *)
val fold_and_grid :
  ?stages:int ->
  ?grid_stages:int ->
  t ->
  fold:int * int ->
  bool * Greengraph.Rule.stats * Greengraph.Graph.t
