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

(* The body atoms of f^I_J with variables prefixed by [prefix]. *)
let body ctx ~prefix t =
  let v = Term.var in
  let h = v (head_var prefix) in
  let the_end = Term.cst Ctx.leg_end in
  let base =
    [
      Atom.app2 (Ctx.ant ctx) h (v (antenna_var prefix));
      Atom.app2 (Ctx.tail ctx) h (v (tail_var prefix));
    ]
  in
  let leg side j =
    let thigh, calf, knee, omitted =
      match side with
      | `Upper ->
          (Ctx.upper_thigh ctx j, Ctx.upper_calf ctx j, upper_knee_var prefix j,
           t.upper = Some j)
      | `Lower ->
          (Ctx.lower_thigh ctx j, Ctx.lower_calf ctx j, lower_knee_var prefix j,
           t.lower = Some j)
    in
    Atom.app2 thigh h (v knee)
    :: (if omitted then [] else [ Atom.app2 calf (v knee) the_end ])
  in
  base
  @ List.concat_map (fun j -> leg `Upper j @ leg `Lower j) (Ctx.indices ctx)

(* The free "magic" knee variables of f^I_J. *)
let magic_knees ~prefix t =
  (match t.upper with Some i -> [ upper_knee_var prefix i ] | None -> [])
  @ (match t.lower with Some j -> [ lower_knee_var prefix j ] | None -> [])

(* The standalone query f^I_J: free variables are tail, antenna and the
   magic knees. *)
let to_cq ctx ?(prefix = "") t =
  Cq.Query.make
    ~free:(tail_var prefix :: antenna_var prefix :: magic_knees ~prefix t)
    (body ctx ~prefix t)

(* --- binary queries --------------------------------------------------- *)

type conn = Amp | Slash

type binary = { left : f; right : f; conn : conn }

let amp left right = { left; right; conn = Amp }
let slash left right = { left; right; conn = Slash }

let pp_binary ppf b =
  Fmt.pf ppf "%a %s %a" pp_f b.left
    (match b.conn with Amp -> "&" | Slash -> "/")
    pp_f b.right

(* The CQ of a binary query.  Prefixes "1_" and "2_" keep the two copies
   apart; the identified vertex keeps the prefix of the left copy and is
   existentially quantified. *)
let binary_to_cq ctx b =
  let b1 = body ctx ~prefix:"1_" b.left in
  let b2 = body ctx ~prefix:"2_" b.right in
  let identify =
    match b.conn with
    | Amp -> fun x -> if x = antenna_var "2_" then antenna_var "1_" else x
    | Slash -> fun x -> if x = tail_var "2_" then tail_var "1_" else x
  in
  let atoms = b1 @ List.map (Atom.rename identify) b2 in
  let free =
    (match b.conn with
    | Amp -> [ tail_var "1_"; tail_var "2_" ]
    | Slash -> [ antenna_var "1_"; antenna_var "2_" ])
    @ magic_knees ~prefix:"1_" b.left
    @ magic_knees ~prefix:"2_" b.right
  in
  Cq.Query.make ~free atoms

let named_cq ctx b = (Fmt.str "%a" pp_binary b, binary_to_cq ctx b)

(* The pair of green-red TGDs generated by a binary query (Definition 3),
   i.e. its meaning as an instruction acting on Σ̄-structures. *)
let binary_to_tgds ctx b = Tgd.Dep.t_q [ named_cq ctx b ]

(* T_Q of a set of binary queries: one [t_q] over the whole set, so the
   TGDs share their atoms. *)
let tgds_of_binaries ctx bs = Tgd.Dep.t_q (List.map (named_cq ctx) bs)

(* Compile a whole set of binary queries into named CQs over Σ — the Q of
   an CQfDP instance — and into T_Q, building each CQ once. *)
let compile_binaries ctx bs =
  let named = List.map (named_cq ctx) bs in
  (List.mapi (fun i (n, q) -> (Fmt.str "q%d:%s" i n, q)) named, Tgd.Dep.t_q named)
