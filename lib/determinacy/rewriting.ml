(* View-based rewriting (Section I.B).

   When Q determines Q0 in the unrestricted sense, [NSV07] guarantees an
   FO-rewriting of Q0 over the view schema; when a *conjunctive* rewriting
   exists, the classic chase & backchase recipe finds it:

     1. take the canonical database A[Q0];
     2. evaluate the views on it — the canonical view instance;
     3. read the view instance back as a CQ over the view schema, freeing
        the images of Q0's free variables (the universal plan);
     4. accept if its expansion (replacing each view atom by the view's
        body with fresh existentials) is equivalent to Q0.

   Theorem 2 of the paper shows this cannot always succeed for *finitely*
   determined queries — there are Q, Q0 with no FO (a fortiori no CQ)
   rewriting at all. *)

open Relational

(* Expand a query over the view schema into one over the base schema. *)
let expand ~views q =
  let counter = ref 0 in
  let body =
    List.concat_map
      (fun atom ->
        let name = Symbol.name (Atom.sym atom) in
        match List.assoc_opt name views with
        | None ->
            invalid_arg
              (Printf.sprintf "Rewriting.expand: unknown view %s" name)
        | Some view ->
            incr counter;
            let prefix = Printf.sprintf "x%d_" !counter in
            (* view free variables are substituted by the atom's arguments;
               existentials are freshened per occurrence *)
            let subst =
              List.fold_left2
                (fun acc v arg -> Term.Var_map.add v arg acc)
                Term.Var_map.empty (Cq.Query.free view) (Atom.args atom)
            in
            let freshen_then_substitute a =
              Atom.substitute subst
                (Atom.rename
                   (fun x ->
                     if List.mem x (Cq.Query.free view) then x else prefix ^ x)
                   a)
            in
            List.map freshen_then_substitute (Cq.Query.body view))
      (Cq.Query.body q)
  in
  Cq.Query.make ~free:(Cq.Query.free q) body

(* The universal plan: the canonical view instance of A[Q0], read back as
   a query over the view schema. *)
let universal_plan ~views q0 =
  let canon, elem = Cq.Query.canonical q0 in
  let view_inst = Cq.Eval.view_structure views canon in
  if Structure.size view_inst = 0 then None
  else
    let free_elems = List.filter_map elem (Cq.Query.free q0) in
    (* name elements after their canonical variables so the plan is
       readable *)
    let plan = Cq.Query.of_structure ~free:free_elems view_inst in
    Some plan

type result =
  | Rewriting of Cq.Query.t   (* an exact CQ rewriting over the views *)
  | No_conjunctive_rewriting  (* the universal plan is inexact or empty *)

let conjunctive ~views q0 =
  match universal_plan ~views q0 with
  | None -> No_conjunctive_rewriting
  | Some plan ->
      let expansion = expand ~views plan in
      if Cq.Containment.equivalent expansion q0 then
        Rewriting (Cq.Containment.core plan)
      else No_conjunctive_rewriting
