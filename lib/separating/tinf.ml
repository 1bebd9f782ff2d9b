(* T∞ (Section VII, Step 1): three green-graph rules whose chase from D_I
   is the infinite quasi-path of Figure 1 — αβ-paths of unbounded length
   and no 1-2 pattern.

     (I)   ∅ &·· ∅  ]  α &·· η1
     (II)  ∅ /·· η1 ]  η0 /·· β1
     (III) ∅ &·· η0 ]  η1 &·· β0    *)

let rules =
  [
    Greengraph.Rule.amp ~name:"I" (None, None)
      (Labels.label Labels.alpha, Labels.label Labels.eta1);
    Greengraph.Rule.slash ~name:"II" (None, Labels.label Labels.eta1)
      (Labels.label Labels.eta0, Labels.label Labels.beta1);
    Greengraph.Rule.amp ~name:"III" (None, Labels.label Labels.eta0)
      (Labels.label Labels.eta1, Labels.label Labels.beta0);
  ]

(* chase(T∞, D_I) up to a stage bound; returns the graph and the
   constants a, b. *)
let chase ?governor ~stages () =
  let g, a, b = Greengraph.Graph.d_i () in
  let stats =
    Greengraph.Rule.chase ?governor ~max_stages:stages rules g
  in
  (g, a, b, stats)

(* The two word families of the Example after Definition 16:
   α(β1β0)^k η1  and  α(β1β0)^k β1 η0. *)
let word_family_1 k =
  (Labels.alpha
  :: List.concat (List.init k (fun _ -> [ Labels.beta1; Labels.beta0 ])))
  @ [ Labels.eta1 ]

let word_family_2 k =
  (Labels.alpha
  :: List.concat (List.init k (fun _ -> [ Labels.beta1; Labels.beta0 ])))
  @ [ Labels.beta1; Labels.eta0 ]

(* A pure αβ-word α(β1β0)^k. *)
let alpha_beta_word k =
  Labels.alpha
  :: List.concat (List.init k (fun _ -> [ Labels.beta1; Labels.beta0 ]))
