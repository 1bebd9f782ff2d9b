(* Tuple-generating dependencies (Section II.B):
       ∀x̄,ȳ [Φ(x̄,ȳ) ⇒ ∃z̄ Ψ(z̄,ȳ)]
   Body and head are conjunctions of atoms; the frontier ȳ is the set of
   variables shared by both sides.  Variables occurring only in the head
   are existentially quantified. *)

open Relational

type t = { name : string; body : Atom.t list; head : Atom.t list }

let make ?(name = "tgd") ~body ~head () =
  if body = [] then invalid_arg "Dep.make: empty body";
  if head = [] then invalid_arg "Dep.make: empty head";
  { name; body; head }

let name t = t.name
let body t = t.body
let head t = t.head

let body_vars t = Atom.vars_of_list t.body
let head_vars t = Atom.vars_of_list t.head
let frontier t = Term.Var_set.inter (body_vars t) (head_vars t)
let existentials t = Term.Var_set.diff (head_vars t) (body_vars t)

(* The TGD generated by a conjunctive query in one color direction
   (Definition 3): Q^{G→R} = ∀ [G(Φ) ⇒ ∃ R(Φ)], where the frontier is
   exactly the set of free variables of Q, so head existentials must be
   renamed apart from body existentials.

   [translator ()] builds such TGDs over one table of painted symbols,
   renamed head variables and atoms, shared by every query it is given:
   T_Q's spider queries repeat a few hundred distinct atoms over a few
   thousand positions, and a chase keeps its dependencies alive as long
   as its result, so the shared form (under a third of the words) is
   what a retained T_Q costs.  Atoms are immutable, so sharing them
   changes nothing a reader can observe. *)
module Atom_tbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal a b =
    Symbol.equal (Atom.sym a) (Atom.sym b)
    && List.equal Term.equal (Atom.args a) (Atom.args b)

  let hash a =
    List.fold_left
      (fun h t -> (h * 31) + Hashtbl.hash t)
      (Symbol.hash (Atom.sym a))
      (Atom.args a)
end)

let translator () =
  let renamed = Hashtbl.create 64 in
  (* per color: an atom over Σ -> its painted copy, one per content *)
  let painter c =
    let syms = Symbol.Tbl.create 16 and atoms = Atom_tbl.create 256 in
    fun a ->
      match Atom_tbl.find_opt atoms a with
      | Some a' -> a'
      | None ->
          let sym =
            match Symbol.Tbl.find_opt syms (Atom.sym a) with
            | Some s -> s
            | None ->
                let s = Symbol.paint c (Atom.sym a) in
                Symbol.Tbl.add syms (Atom.sym a) s;
                s
          in
          let a' = Atom.make sym (Atom.args a) in
          Atom_tbl.add atoms a a';
          a'
  in
  let green = painter Symbol.Green and red = painter Symbol.Red in
  fun direction q ->
    let src, dst =
      match direction with `G_to_R -> (green, red) | `R_to_G -> (red, green)
    in
    let free = Cq.Query.free q in
    let rename_head = function
      | Term.Var x when not (List.mem x free) -> (
          match Hashtbl.find_opt renamed x with
          | Some v -> v
          | None ->
              let v = Term.Var ("z_" ^ x) in
              Hashtbl.add renamed x v;
              v)
      | t -> t
    in
    let body = List.map src (Cq.Query.body q) in
    let head =
      List.map
        (fun a -> dst (Atom.make (Atom.sym a) (List.map rename_head (Atom.args a))))
        (Cq.Query.body q)
    in
    let tag = match direction with `G_to_R -> "G>R" | `R_to_G -> "R>G" in
    make ~name:tag ~body ~head ()

let of_query direction q = translator () direction q

(* T_Q (Definition 3): both color directions for every query in Q. *)
let t_q named_queries =
  let of_query = translator () in
  List.concat_map
    (fun (n, q) ->
      [
        { (of_query `G_to_R q) with name = n ^ ":G>R" };
        { (of_query `R_to_G q) with name = n ^ ":R>G" };
      ])
    named_queries

(* A first-order ⇔ rule (the paper's green-graph rewriting rules are
   equivalences): a pair of TGDs, one per direction. *)
let equivalence ?(name = "eqv") ~left ~right () =
  [
    make ~name:(name ^ ":>") ~body:left ~head:right ();
    make ~name:(name ^ ":<") ~body:right ~head:left ();
  ]

(* Canonical ruleset digest: atoms rendered in rule order, names
   excluded — two submissions differing only in rule names chase
   identically, so they share a digest (and a cache entry).  Rule order
   matters: the chase fires rules in list order, and fresh-element
   identity (part of the bit-identity contract) depends on it. *)
let digest_hex deps =
  let dg = Digest128.create () in
  List.iter
    (fun d ->
      let feed_atoms atoms =
        Digest128.feed_int dg (List.length atoms);
        List.iter
          (fun a -> Digest128.feed_string dg (Format.asprintf "%a" Atom.pp a))
          atoms
      in
      feed_atoms d.body;
      feed_atoms d.head)
    deps;
  Digest128.hex ~salt:[ List.length deps ] dg

let pp ppf t =
  Fmt.pf ppf "@[<h>%s: %a ⇒ ∃ %a@]" t.name
    (Fmt.list ~sep:(Fmt.any " ∧ ") Atom.pp)
    t.body
    (Fmt.list ~sep:(Fmt.any " ∧ ") Atom.pp)
    t.head
