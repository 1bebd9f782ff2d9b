(** Integer codes for the symbolic labels of Sections VII–VIII.

    α, β0, η0 (and γ0, ω0) are even; β1, η1 (and η11, γ1) are odd — the
    Parity Glasses depend on it.  The grid labels ⟨n,α,d̄,b̄⟩ and
    ⟨w,α,d̄,b̄⟩ are the 1-2 pattern labels 1 and 2. *)

val alpha : int
val beta1 : int
val beta0 : int
val eta1 : int
val eta0 : int
val eta11 : int
val gamma0 : int
val gamma1 : int
val omega0 : int

(** {1 Grid labels ⟨n|e|s|w, α|β, d|d̄, b|b̄⟩ (Section VII, Step 2)} *)

type dir = N | E | S | W

type theta = Ta | Tb  (** α | β *)

type grid = { dir : dir; theta : theta; diag : bool; border : bool }

val g : ?diag:bool -> ?border:bool -> dir -> theta -> grid

(** The integer code; ⟨n,α,d̄,b̄⟩ ↦ 1 and ⟨w,α,d̄,b̄⟩ ↦ 2, the rest in
    16–47, avoiding the reserved 3 and 4. *)
val grid_code : grid -> int

val grid : grid -> Greengraph.Label.t

(** All 32 grid labels. *)
val all_grid_labels : grid list

val label : int -> Greengraph.Label.t
