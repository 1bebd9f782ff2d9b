(* Theorem 14, made executable.

   T = T∞ ∪ T□ does not lead to the red spider — chase(T, D_I) never
   contains a 1-2 pattern (we certify bounded prefixes) — but finitely
   leads to it: in any finite model the infinite αβ-path must fold,
   producing two αβ-paths of different lengths with shared endpoints, and
   then T□ grids them into a 1-2 pattern. *)

(* Bounded evidence for "does not lead": chase T for [stages] stages from
   D_I and report whether a 1-2 pattern appeared (Theorem 14 says it never
   does). *)
let chase_prefix_clean ?governor ~stages () =
  let g, _, _ = Greengraph.Graph.d_i () in
  let _ =
    Greengraph.Rule.chase ?governor ~max_stages:stages
      ~stop:Greengraph.Graph.has_12_pattern Tbox.t_full g
  in
  (not (Greengraph.Graph.has_12_pattern g), g)

(* The finite-leads mechanism (Lemma 17): fold two αβ-paths of lengths t
   and t' onto shared endpoints and chase T□. *)
let collision_outcome ?governor ?(max_stages = 64) ~t ~t' () =
  let g, _, _ = Paths.collision ~t ~t' in
  let stats =
    Greengraph.Rule.chase ?governor ~max_stages
      ~stop:Greengraph.Graph.has_12_pattern Tbox.rules g
  in
  (Greengraph.Graph.has_12_pattern g, stats, g)

(* Lemma 18 intuition: a single path grids into M_t without a 1-2
   pattern. *)
let single_path_outcome ?governor ?(max_stages = 64) ~t () =
  let g, _ = Paths.single ~t in
  let stats =
    Greengraph.Rule.chase ?governor ~max_stages
      ~stop:Greengraph.Graph.has_12_pattern Tbox.rules g
  in
  (Greengraph.Graph.has_12_pattern g, stats, g)
