(* ∆ → T_M: translating a rainworm machine into green-graph rewriting
   rules (Section VIII.C).

     • ∅&··∅ ] α&··η11  and  η11/··∅ ] γ1/··η0 are always in T_M;
     • η0&··∅ ] b&··η1           for each ♦2 instruction η0 → bη1;
     • η1/··∅ ] q/··ω0           for each ♦3 instruction η1 → qω0;
     • x/··t ] x'/··t'           for instructions of form ♦4,♦5,♦6,♦7,♦8;
     • x&··t ] x'&··t'           for instructions of form ♦4',♦5',♦6',♦7'.

   The connector is determined by parity: a two-symbol subword "x t" with
   x odd reads in Parity Glasses as two edges sharing their source (/·),
   with x even as two edges sharing their target (&·) — which matches the
   paper's assignment of ♦-forms to connectors. *)

type t = {
  labeling : Labeling.t;
  machine : Rainworm.Machine.t;
  rules : Greengraph.Rule.t list;
}

let base_rules labeling =
  let l s = Labeling.label labeling s in
  [
    Greengraph.Rule.amp ~name:"init1" (None, None)
      (l Rainworm.Sym.Alpha, l Rainworm.Sym.Eta11);
    Greengraph.Rule.slash ~name:"init2" (l Rainworm.Sym.Eta11, None)
      (l Rainworm.Sym.Gamma1, l Rainworm.Sym.Eta0);
  ]

let rule_of_instruction labeling i =
  let l s = Labeling.label labeling s in
  match Rainworm.Instruction.lhs i, Rainworm.Instruction.rhs i with
  | [ Rainworm.Sym.Eta11 ], _ -> None (* covered by the base rules *)
  | [ Rainworm.Sym.Eta0 ], [ b; eta1 ] ->
      Some
        (Greengraph.Rule.amp ~name:"♦2" (l Rainworm.Sym.Eta0, None) (l b, l eta1))
  | [ Rainworm.Sym.Eta1 ], [ q; om ] ->
      Some
        (Greengraph.Rule.slash ~name:"♦3" (l Rainworm.Sym.Eta1, None) (l q, l om))
  | [ x; t ], [ x'; t' ] ->
      let name = Fmt.str "%a" Rainworm.Instruction.pp i in
      if Rainworm.Sym.is_odd x then
        Some (Greengraph.Rule.slash ~name (l x, l t) (l x', l t'))
      else Some (Greengraph.Rule.amp ~name (l x, l t) (l x', l t'))
  | _ -> None

let of_machine ?(labeling = Labeling.create ()) machine =
  let rules =
    base_rules labeling
    @ List.filter_map (rule_of_instruction labeling) (Rainworm.Machine.rules machine)
  in
  { labeling; machine; rules }

(* T_M□ = T_M ∪ T□ — the rule set of Lemma 24. *)
let with_grid t = t.rules @ Separating.Tbox.rules

(* chase(T_M, D_I) up to a stage bound. *)
let chase ?(with_tbox = false) ~stages t =
  let g, a, b = Greengraph.Graph.d_i () in
  let rules = if with_tbox then with_grid t else t.rules in
  let stats = Greengraph.Rule.chase ~max_stages:stages rules g in
  (g, a, b, stats)

(* Lemma 25: every machine configuration reachable from αη11 is a word of
   chase(T_M, D_I).  [configuration_word] gives the word to test. *)
let configuration_word t config = Labeling.word t.labeling config

(* Extract the αβ-spine of a green graph containing D_I: the vertices
   a, b1, a1, b2, … of the longest path α(β1β0)* starting at [a] in
   Parity Glasses.  Returns the b-vertices in order. *)
let alpha_beta_spine g ~a =
  let arrows = Greengraph.Pg.arrows g in
  let next v lab =
    List.find_map
      (fun (ar : Greengraph.Pg.arrow) ->
        if ar.Greengraph.Pg.src = v && ar.Greengraph.Pg.lab = lab then
          Some ar.Greengraph.Pg.dst
        else None)
      arrows
  in
  match next a Separating.Labels.alpha with
  | None -> []
  | Some b1 ->
      let rec go v acc =
        match next v Separating.Labels.beta1 with
        | None -> List.rev acc
        | Some ai -> (
            match next ai Separating.Labels.beta0 with
            | None -> List.rev acc
            | Some b_next -> go b_next (b_next :: acc))
      in
      go b1 [ b1 ]

(* The "⇒" direction of Lemma 24, made finite: fold the chase prefix by
   identifying two b-vertices of the αβ-spine (the pigeonhole collision
   of any finite model), then chase T□ and look for the 1-2 pattern. *)
let fold_and_grid ?(stages = 20) ?(grid_stages = 64) t ~fold:(i, j) =
  let g, a, _, _ = chase ~stages t in
  let spine = alpha_beta_spine g ~a in
  if List.length spine <= max i j then
    invalid_arg "fold_and_grid: spine too short; raise ~stages";
  let vi = List.nth spine i and vj = List.nth spine j in
  let folded =
    Greengraph.Graph.map_vertices (fun v -> if v = vj then vi else v) g
  in
  let stats =
    Greengraph.Rule.chase ~max_stages:grid_stages
      ~stop:Greengraph.Graph.has_12_pattern Separating.Tbox.rules folded
  in
  (Greengraph.Graph.has_12_pattern folded, stats, folded)
