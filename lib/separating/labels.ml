(* Integer codes for the symbolic labels of Section VII.

   The paper requires α, β0, η0 even and β1, η1 odd (so that Parity
   Glasses orient αβ-paths correctly), and identifies the grid labels
   ⟨n,α,d̄,b̄⟩ with 1 and ⟨w,α,d̄,b̄⟩ with 2 — the 1-2 pattern.  Codes 3 and
   4 are reserved by Precompile.  Codes 6–14 cover the special symbols
   (including Section VIII's η11, γ0, γ1, ω0); the remaining 30 grid
   labels live at 16–45; machine symbols of Section VIII are allocated
   from 100 upwards (even/odd split preserved). *)

let alpha = 6    (* even *)
let beta1 = 7    (* odd *)
let beta0 = 8    (* even *)
let eta1 = 9     (* odd *)
let eta0 = 10    (* even *)
let eta11 = 11   (* odd *)
let gamma0 = 12  (* even *)
let gamma1 = 13  (* odd *)
let omega0 = 14  (* even *)

(* --- grid labels ⟨n|e|s|w, α|β, d|d̄, b|b̄⟩ (Section VII, Step 2) ------- *)

type dir = N | E | S | W
type theta = Ta | Tb (* α | β *)

type grid = { dir : dir; theta : theta; diag : bool; border : bool }

let g ?(diag = false) ?(border = false) dir theta = { dir; theta; diag; border }

let grid_code gl =
  match gl with
  | { dir = N; theta = Ta; diag = false; border = false } -> 1
  | { dir = W; theta = Ta; diag = false; border = false } -> 2
  | _ ->
      let d = match gl.dir with N -> 0 | E -> 1 | S -> 2 | W -> 3 in
      let t = match gl.theta with Ta -> 0 | Tb -> 1 in
      let di = if gl.diag then 1 else 0 in
      let bo = if gl.border then 1 else 0 in
      16 + (d * 8) + (t * 4) + (di * 2) + bo

let grid gl : Greengraph.Label.t = Some (grid_code gl)

(* every grid label has a distinct code, disjoint from the specials *)
let all_grid_labels =
  List.concat_map
    (fun dir ->
      List.concat_map
        (fun theta ->
          List.concat_map
            (fun diag ->
              List.map (fun border -> { dir; theta; diag; border })
                [ true; false ])
            [ true; false ])
        [ Ta; Tb ])
    [ N; E; S; W ]

let label i : Greengraph.Label.t = Some i
