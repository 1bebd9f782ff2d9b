(* Precompile (Definition 9): translate a set T ⊆ L₂ of green-graph rules
   into swarm rules of L₁.

   The three base rules bootstrap the full red spider from a 1-2 pattern
   (footnote 10); each green-graph rule number i ≥ 2 contributes two swarm
   rules whose lower indices 2i+1, 2i+2 tie the two halves of the
   simulated equivalence together (Remark 10). *)

let f = Spider.Query.f

let base_rules =
  [
    Swarm.Rule.amp (f ~upper:1 ~lower:1 ()) (f ~upper:2 ~lower:2 ());
    Swarm.Rule.amp (f ~upper:3 ~lower:1 ()) (f ~upper:4 ~lower:2 ());
    Swarm.Rule.amp (f ~upper:3 ()) (f ~upper:4 ~lower:3 ());
  ]

let rule_pair i (r : Rule.t) =
  let lo1 = (2 * i) + 1 and lo2 = (2 * i) + 2 in
  let mk conn u1 u2 =
    let q1 = f ?upper:u1 ~lower:lo1 () and q2 = f ?upper:u2 ~lower:lo2 () in
    match conn with
    | Rule.Amp -> Swarm.Rule.amp q1 q2
    | Rule.Slash -> Swarm.Rule.slash q1 q2
  in
  [ mk r.Rule.conn r.Rule.l1 r.Rule.l2; mk r.Rule.conn r.Rule.r1 r.Rule.r2 ]

let precompile (rules : Rule.t list) =
  base_rules @ List.concat (List.mapi (fun idx r -> rule_pair (idx + 2) r) rules)

(* The leg count s needed to express [rules] at Levels 1 and 0: all upper
   labels, the reserved 1–4, and the numbering range. *)
let required_s (rules : Rule.t list) =
  let labels =
    List.concat_map
      (fun (r : Rule.t) ->
        List.filter_map Fun.id [ r.Rule.l1; r.Rule.l2; r.Rule.r1; r.Rule.r2 ])
      rules
  in
  let k = List.length rules + 1 in
  List.fold_left max ((2 * k) + 2) (4 :: labels)

(* The operation "precompile" on structures (Definition 36): a green graph
   D that models T becomes a swarm model of Precompile(T) by adding the
   red witnesses one chase stage demands — and nothing else (Lemma 32(ii),
   for minimal models without a 1-2 pattern). *)
let precompile_graph rules d =
  let sw = Graph.to_swarm d in
  let _ = Swarm.Rule.chase ~max_stages:1 (precompile rules) sw in
  sw

(* The full pipeline of Lemma 12: a set of L₂ rules down to conjunctive
   queries over the spider signature Σ (and their green-red TGDs). *)
type level0 = {
  ctx : Spider.Ctx.t;
  swarm_rules : Swarm.Rule.t list;
  binaries : Spider.Query.binary list;
  queries : (string * Cq.Query.t) list;
  tgds : Tgd.Dep.t list;
}

let to_level0 ?s (rules : Rule.t list) =
  let s = match s with Some s -> s | None -> required_s rules in
  let ctx = Spider.Ctx.create s in
  let swarm_rules = precompile rules in
  let binaries = Swarm.Rule.compile_set swarm_rules in
  let queries, tgds = Spider.Query.compile_binaries ctx binaries in
  { ctx; swarm_rules; binaries; queries; tgds }
