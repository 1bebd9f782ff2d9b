(* Spider queries f^I_J and the binary queries of F₂ (Section V.B).

   The quantifier-free part of f^I_J is a spider body with the calves of
   the legs in I ∪ J omitted; the knees of those legs are free variables —
   "they do the magic of ♣": when the query is used as a green-red TGD,
   the new spider inherits the old spider's calves at those knees, which
   is exactly the index arithmetic of the Rule of Spider Algebra.

   A binary query glues two spider queries: f &  f' identifies the two
   antennas (existential; the tails stay free), f / f' identifies the two
   tails (existential; the antennas stay free). *)

open Relational

type f = { upper : int option; lower : int option }

let f ?upper ?lower () = { upper; lower }

let upper t = t.upper
let lower t = t.lower

let pp_f ppf t =
  let idx ppf = function
    | None -> Fmt.string ppf "∅"
    | Some i -> Fmt.int ppf i
  in
  Fmt.pf ppf "f^%a_%a" idx t.upper idx t.lower

(* Variable names of one spider-query copy, distinguished by [prefix]. *)
let head_var p = p ^ "h"
let antenna_var p = p ^ "n"
let tail_var p = p ^ "t"
let upper_knee_var p j = Printf.sprintf "%suk%d" p j
let lower_knee_var p j = Printf.sprintf "%slk%d" p j

let the_end = Term.cst Ctx.leg_end

(* One prefixed copy of the full spider body, each atom built once.  A
   query over the copy lists the atoms it keeps, so every query built
   from one copy shares them: a compile's T∞ queries repeat 86 distinct
   atoms (at s = 10) over 725 positions, and a retained compilation
   costs what its distinct atoms cost.  Atoms are immutable, so sharing
   them changes nothing a reader can observe. *)
type leg = { knee : string; thigh : Atom.t; calf : Atom.t }

type copy = {
  tail_v : string;
  antenna_v : string;
  ant_atom : Atom.t;
  tail_atom : Atom.t;
  upper_legs : leg array;  (* leg j at index j - 1 *)
  lower_legs : leg array;
}

let copy ctx prefix =
  let h = Term.var (head_var prefix) in
  let legs thigh calf knee_var =
    Array.init (Ctx.s ctx) (fun i ->
        let j = i + 1 in
        let knee = knee_var prefix j in
        let k = Term.var knee in
        {
          knee;
          thigh = Atom.app2 (thigh ctx j) h k;
          calf = Atom.app2 (calf ctx j) k the_end;
        })
  in
  let tail_v = tail_var prefix and antenna_v = antenna_var prefix in
  {
    tail_v;
    antenna_v;
    ant_atom = Atom.app2 (Ctx.ant ctx) h (Term.var antenna_v);
    tail_atom = Atom.app2 (Ctx.tail ctx) h (Term.var tail_v);
    upper_legs = legs Ctx.upper_thigh Ctx.upper_calf upper_knee_var;
    lower_legs = legs Ctx.lower_thigh Ctx.lower_calf lower_knee_var;
  }

(* The body atoms of f^I_J over copy [c]: antenna, tail, then leg by leg
   the upper and the lower thigh, each followed by its calf unless the
   leg is consumed. *)
let body_of c t =
  let leg l consumed j = if consumed = Some j then [ l.thigh ] else [ l.thigh; l.calf ] in
  c.ant_atom :: c.tail_atom
  :: List.concat
       (List.init (Array.length c.upper_legs) (fun i ->
            leg c.upper_legs.(i) t.upper (i + 1) @ leg c.lower_legs.(i) t.lower (i + 1)))

let body ctx ~prefix t = body_of (copy ctx prefix) t

(* The free "magic" knee variables of f^I_J. *)
let magic_knees c t =
  (match t.upper with Some i -> [ c.upper_legs.(i - 1).knee ] | None -> [])
  @ (match t.lower with Some j -> [ c.lower_legs.(j - 1).knee ] | None -> [])

(* The standalone query f^I_J: free variables are tail, antenna and the
   magic knees. *)
let to_cq ctx ?(prefix = "") t =
  let c = copy ctx prefix in
  Cq.Query.make ~free:(c.tail_v :: c.antenna_v :: magic_knees c t) (body_of c t)

(* --- binary queries --------------------------------------------------- *)

type conn = Amp | Slash

type binary = { left : f; right : f; conn : conn }

let amp left right = { left; right; conn = Amp }
let slash left right = { left; right; conn = Slash }

let pp_binary ppf b =
  Fmt.pf ppf "%a %s %a" pp_f b.left
    (match b.conn with Amp -> "&" | Slash -> "/")
    pp_f b.right

(* The copies a set of binary queries is built from.  Prefixes "1_" and
   "2_" keep a query's two spider copies apart; the identified vertex
   keeps the prefix of the left copy and is existentially quantified.
   Only one atom of the right copy mentions it — the antenna atom under
   &, the tail atom under / — so the right copy of each connective
   differs from the plain one in that atom alone. *)
type copies = { left_copy : copy; amp_right : copy; slash_right : copy }

let copies ctx =
  let left = copy ctx "1_" and right = copy ctx "2_" in
  let h = Term.var (head_var "2_") in
  {
    left_copy = left;
    amp_right =
      { right with
        antenna_v = left.antenna_v;
        ant_atom = Atom.app2 (Ctx.ant ctx) h (Term.var left.antenna_v) };
    slash_right =
      { right with
        tail_v = left.tail_v;
        tail_atom = Atom.app2 (Ctx.tail ctx) h (Term.var left.tail_v) };
  }

(* The CQ of a binary query, over the atoms of [cs]. *)
let binary_cq cs b =
  let c1 = cs.left_copy in
  let c2 = match b.conn with Amp -> cs.amp_right | Slash -> cs.slash_right in
  let free =
    (match b.conn with
    | Amp -> [ c1.tail_v; c2.tail_v ]
    | Slash -> [ c1.antenna_v; c2.antenna_v ])
    @ magic_knees c1 b.left @ magic_knees c2 b.right
  in
  Cq.Query.make ~free (body_of c1 b.left @ body_of c2 b.right)

let binary_to_cq ctx b = binary_cq (copies ctx) b

(* Each query of [bs] named, all built over one set of copies. *)
let named_cqs ctx bs =
  let cs = copies ctx in
  List.map (fun b -> (Fmt.str "%a" pp_binary b, binary_cq cs b)) bs

(* The pair of green-red TGDs generated by a binary query (Definition 3),
   i.e. its meaning as an instruction acting on Σ̄-structures. *)
let binary_to_tgds ctx b = Tgd.Dep.t_q (named_cqs ctx [ b ])

(* T_Q of a set of binary queries: one [t_q] over the whole set, so the
   TGDs share their atoms. *)
let tgds_of_binaries ctx bs = Tgd.Dep.t_q (named_cqs ctx bs)

(* Compile a whole set of binary queries into named CQs over Σ — the Q of
   an CQfDP instance — and into T_Q, building each CQ once and each
   distinct atom once. *)
let compile_binaries ctx bs =
  let named = named_cqs ctx bs in
  (List.mapi (fun i (n, q) -> (Fmt.str "q%d:%s" i n, q)) named, Tgd.Dep.t_q named)
