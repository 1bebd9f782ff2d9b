(* Maintained views: the chase side of Section IV kept incremental.

   For an instance (Q, Q0) and a plain base database D, the structure
   chase(T_Q, green(D)) answers queries under view exchange: its red
   Q0-answers over the elements of D are exactly the certain answers of
   Q0 given the view image Q(D).  Instead of re-running that chase on
   every change to D, we keep it as a [Tgd.Chase.Maint] instance and
   push base edits through the maintenance layer — the view then answers
   from the maintained structure with plain CQ evaluation. *)

open Relational

type op = Insert of Fact.t | Retract of Fact.t

type t = {
  inst : Instance.t;
  maint : Tgd.Chase.Maint.t;
  (* elements of the (current) base — certain answers may only mention
     these, never the chase's nulls *)
  base_elems : (int, unit) Hashtbl.t;
}

let paint_fact f =
  Fact.make (Symbol.green (Fact.sym f)) (Array.copy (Fact.args f))

let note_elems t f = Array.iter (fun e -> Hashtbl.replace t.base_elems e ()) (Fact.args f)

let create ?governor ?max_stages inst base =
  let d = Structure.paint Symbol.Green base in
  let maint, stats =
    Tgd.Chase.Maint.create ?governor ?max_stages (Instance.tgds inst) d
  in
  let t = { inst; maint; base_elems = Hashtbl.create 64 } in
  Structure.iter_facts base (fun f -> note_elems t f);
  Structure.iter_elems base (fun e -> Hashtbl.replace t.base_elems e ());
  (t, stats)

let instance t = t.inst
let structure t = Tgd.Chase.Maint.structure t.maint
let maint t = t.maint
let pending t = Tgd.Chase.Maint.pending t.maint

let continue_ ?governor ?max_stages t =
  Tgd.Chase.Maint.continue_ ?governor ?max_stages t.maint

let apply_edit ?governor ?max_stages t ops =
  let ops' =
    List.map
      (function
        | Insert f ->
            note_elems t f;
            Tgd.Chase.Maint.Insert (paint_fact f)
        | Retract f -> Tgd.Chase.Maint.Retract (paint_fact f))
      ops
  in
  Tgd.Chase.Maint.apply_edit ?governor ?max_stages t.maint ops'

(* The certain answers of [q] under view exchange: red answers of the
   maintained chase whose elements all lie in the base — a tuple through
   a null is witnessed only by the chase's invented elements and is not
   certain. *)
let certain_answers t q =
  let d = structure t in
  let red_q = Cq.Query.paint Symbol.Red q in
  Cq.Eval.Tuple_set.filter
    (fun tup -> Array.for_all (fun e -> Hashtbl.mem t.base_elems e) tup)
    (Cq.Eval.answers red_q d)

let certain_answers_q0 t = certain_answers t (Instance.q0 t.inst)

(* The materialized view image Q(D) itself, off the green side of the
   maintained structure (green facts of base elements = the live base). *)
let view_image t =
  let d = structure t in
  let base =
    Structure.filter
      (fun f ->
        Symbol.is_green (Fact.sym f)
        && Array.for_all (fun e -> Hashtbl.mem t.base_elems e) (Fact.args f))
      d
  in
  Cq.Eval.view_structure
    (List.map
       (fun (n, q) -> (n, Cq.Query.paint Symbol.Green q))
       (Instance.views t.inst))
    base
