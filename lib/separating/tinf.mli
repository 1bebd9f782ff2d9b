(** T∞ (Section VII, Step 1): three rules whose chase from D_I is the
    infinite quasi-path of Figure 1 — unbounded αβ-paths, no 1-2
    pattern. *)

(** (I) ∅&··∅ ] α&··η1, (II) ∅/··η1 ] η0/··β1, (III) ∅&··η0 ] η1&··β0. *)
val rules : Greengraph.Rule.t list

(** Bounded chase(T∞, D_I); returns graph, a, b and stats. *)
val chase :
  ?governor:Resilience.Governor.t ->
  stages:int ->
  unit ->
  Greengraph.Graph.t * int * int * Greengraph.Rule.stats

(** α(β1β0)^k η1 *)
val word_family_1 : int -> int list

(** α(β1β0)^k β1 η0 *)
val word_family_2 : int -> int list

(** α(β1β0)^k *)
val alpha_beta_word : int -> int list
