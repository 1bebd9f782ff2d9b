(* Property suite holding the compiled Hom.Plan evaluator to the
   interpreted reference (hom.mli promises bit-identity: same bindings,
   same order, same effort counters), plus the parallel chase engine's
   bit-identity to semi-naive. *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge = Symbol.make "E" 2
let node = Symbol.make "N" 1
let v = Term.var
let c = Term.cst

(* enumerate as concrete association lists so polymorphic equality sees
   binding contents, order of enumeration included *)
let enumerate ?init ?delta ~compiled d atoms =
  let out = ref [] in
  Hom.iter_all ~compiled ?init ?delta d atoms (fun b ->
      out := Term.Var_map.bindings b :: !out);
  List.rev !out

let hom_counters () =
  List.filter
    (fun (name, _) -> String.length name >= 4 && String.sub name 0 4 = "hom.")
    (Obs.Metrics.snapshot ())

(* compiled and interpreted must agree on the binding sequence AND on the
   hom.* effort counters *)
let agree ?init ?delta what d atoms =
  Obs.set_metrics true;
  let before = hom_counters () in
  let compiled = enumerate ?init ?delta ~compiled:true d atoms in
  let mid = hom_counters () in
  let interp = enumerate ?init ?delta ~compiled:false d atoms in
  let after = hom_counters () in
  Obs.set_metrics false;
  check (what ^ ": same bindings in the same order") true (compiled = interp);
  check
    (what ^ ": same effort counters")
    true
    (Obs.Metrics.diff before mid = Obs.Metrics.diff mid after)

(* --- handcrafted shapes --------------------------------------------------- *)

let test_repeated_atoms () =
  let s = Structure.create () in
  let a = Structure.fresh s and b = Structure.fresh s in
  let d = Structure.fresh s in
  Structure.add2 s edge a b;
  Structure.add2 s edge b d;
  Structure.add2 s edge a d;
  let atom = Atom.app2 edge (v "x") (v "y") in
  (* physically equal repeated atoms each keep their occurrence *)
  agree "duplicate atom" s [ atom; atom ];
  agree "triangle with a repeat" s
    [ Atom.app2 edge (v "x") (v "y"); Atom.app2 edge (v "y") (v "z"); atom ];
  check_int "duplicate atom matches once per edge" 3
    (Hom.count s [ atom; atom ])

let test_constants_in_body () =
  let s = Structure.create () in
  let cc = Structure.constant s "c" in
  let a = Structure.fresh s and b = Structure.fresh s in
  Structure.add2 s edge cc a;
  Structure.add2 s edge a b;
  Structure.add2 s edge b cc;
  Structure.add s node [| cc |];
  agree "constant as source" s [ Atom.app2 edge (c "c") (v "x") ];
  agree "constant mid-body" s
    [ Atom.app2 edge (v "x") (v "y"); Atom.app2 edge (v "y") (c "c") ];
  agree "ground atom" s [ Atom.app2 edge (c "c") (c "c") ];
  agree "constant-only unary" s [ Atom.make node [ c "c" ] ];
  check "absent ground atom finds nothing" true
    (Hom.find s [ Atom.app2 edge (c "c") (c "c") ] = None)

let test_init_seeding () =
  let s = Structure.create () in
  let vs = Array.init 4 (fun _ -> Structure.fresh s) in
  for i = 0 to 2 do
    Structure.add2 s edge vs.(i) vs.(i + 1)
  done;
  let body = [ Atom.app2 edge (v "x") (v "y"); Atom.app2 edge (v "y") (v "z") ] in
  let init = Term.Var_map.singleton "y" vs.(1) in
  agree ~init "bound middle variable" s body;
  (* init variables outside the body pass through untouched *)
  let init = Term.Var_map.add "w" vs.(3) init in
  agree ~init "pass-through init variable" s body;
  check "exists agrees" true
    (Hom.exists ~compiled:true ~init s body
    = Hom.exists ~compiled:false ~init s body);
  check "find agrees" true
    (Option.map Term.Var_map.bindings (Hom.find ~compiled:true ~init s body)
    = Option.map Term.Var_map.bindings (Hom.find ~compiled:false ~init s body))

let test_delta_handcrafted () =
  let s = Structure.create () in
  let vs = Array.init 5 (fun _ -> Structure.fresh s) in
  for i = 0 to 3 do
    Structure.add2 s edge vs.(i) vs.(i + 1)
  done;
  let wm = Structure.watermark s in
  Structure.add2 s edge vs.(4) vs.(0);
  Structure.add2 s edge vs.(0) vs.(2);
  let delta = Structure.delta_since s wm in
  let body = [ Atom.app2 edge (v "x") (v "y"); Atom.app2 edge (v "y") (v "z") ] in
  agree ~delta "delta-restricted pair" s body;
  let atom = Atom.app2 edge (v "x") (v "y") in
  agree ~delta "delta with a duplicate atom" s [ atom; atom ];
  agree ~delta "delta with empty body (nothing)" s [];
  check "delta enumeration nonempty" true
    (enumerate ~delta ~compiled:true s body <> [])

(* --- generated cases ------------------------------------------------------ *)

(* Chase the generated instance a little so the structure has chase-built
   shape (fresh elements, multi-stage journal), then hold the compiled
   evaluator to the interpreted one on every TGD body: full enumeration,
   frontier-seeded enumeration, and delta mode over the journal tail. *)
let test_generated_agreement () =
  for case = 0 to 79 do
    let r = Oracle.Gen.case_rng ~seed:7 ~case in
    let inst = Oracle.Gen.instance r in
    let d = Oracle.Gen.build inst in
    let stop d = Structure.card d > 80 || Structure.size d > 200 in
    let wm = Structure.watermark d in
    ignore (Tgd.Chase.run ~max_stages:4 ~stop inst.Oracle.Gen.deps d);
    let delta = Structure.delta_since d wm in
    List.iteri
      (fun i dep ->
        let body = Tgd.Dep.body dep in
        let what = Printf.sprintf "case %d dep %d" case i in
        agree what d body;
        agree ~delta (what ^ " (delta)") d body;
        (* seed one frontier variable with each element of some match *)
        match Hom.find ~compiled:false d body with
        | None -> ()
        | Some b ->
            Term.Var_map.iter
              (fun x e ->
                agree
                  ~init:(Term.Var_map.singleton x e)
                  (Printf.sprintf "%s (init %s)" what x)
                  d body)
              b)
      inst.Oracle.Gen.deps;
    (* generated CQ bodies add constant-in-body coverage beyond the deps *)
    let q = Oracle.Gen.query r inst.Oracle.Gen.signature in
    agree (Printf.sprintf "case %d cq" case) d (Cq.Query.body q)
  done

(* plan slot round-trips: binding_of_slots ∘ iter_slots = iter *)
let test_slot_round_trip () =
  let s = Structure.create () in
  let cc = Structure.constant s "c" in
  let a = Structure.fresh s in
  Structure.add2 s edge cc a;
  Structure.add2 s edge a a;
  let body = [ Atom.app2 edge (v "x") (v "y"); Atom.app2 edge (v "y") (c "c") ] in
  let plan = Hom.Plan.compile body in
  check_int "two slots" 2 (Hom.Plan.nslots plan);
  check "slots cover the variables" true
    (Hom.Plan.slot plan "x" <> None && Hom.Plan.slot plan "y" <> None);
  let via_slots = ref [] in
  Hom.Plan.iter_slots plan s (fun slots ->
      via_slots :=
        Term.Var_map.bindings (Hom.Plan.binding_of_slots plan slots)
        :: !via_slots);
  let direct = ref [] in
  Hom.Plan.iter plan s (fun b -> direct := Term.Var_map.bindings b :: !direct);
  check "slot and binding views agree" true (!via_slots = !direct)

(* --- the greedy ordering against its list/Var_set specification ----------- *)

(* The connectivity-greedy ordering as first written, over lists and
   [Var_set]s: the specification the integer ordering of [Hom.order_atoms]
   and [Hom.Plan.compile_family] is held to.  Each atom carries a tag (its
   body position), so orders over repeated atoms compare position by
   position; the tags play no part in the choice. *)
let spec_order ?(bound = Term.Var_set.empty) (atoms : (int * Atom.t) list) =
  match atoms with
  | [] -> []
  | _ ->
      let score bound (_, a) =
        let vs = Atom.vars a in
        let shared = Term.Var_set.cardinal (Term.Var_set.inter vs bound) in
        let csts = List.length (Atom.constants a) in
        (shared * 4) + csts
      in
      let best_index bound = function
        | [] -> invalid_arg "spec_order: empty"
        | a :: rest ->
            let rec go i best_i best_s = function
              | [] -> best_i
              | a :: rest ->
                  let s = score bound a in
                  if s > best_s then go (i + 1) i s rest
                  else go (i + 1) best_i best_s rest
            in
            go 1 0 (score bound a) rest
      in
      let rec remove_nth i = function
        | [] -> []
        | x :: rest -> if i = 0 then rest else x :: remove_nth (i - 1) rest
      in
      let rec go bound remaining acc =
        match remaining with
        | [] -> List.rev acc
        | _ ->
            let i = best_index bound remaining in
            let a = List.nth remaining i in
            let remaining = remove_nth i remaining in
            go
              (Term.Var_set.union bound (Atom.vars (snd a)))
              remaining (a :: acc)
      in
      go bound atoms []

(* Slots numbered by first appearance along [atoms]. *)
let spec_slots atoms =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun a ->
      List.iter
        (function
          | Term.Var x when not (Hashtbl.mem tbl x) ->
              Hashtbl.replace tbl x (Hashtbl.length tbl)
          | _ -> ())
        (Atom.args a))
    atoms;
  tbl

let compilations () =
  Option.value ~default:0
    (List.assoc_opt "plan.compilations" (Obs.Metrics.snapshot ()))

(* [compile_family] against the spec: per pivot, the rest-plan's body
   positions in the spec's order of the other atoms (pivot variables
   bound); the slot table of pivot 0 then its ordered rest; one
   compilation per pivot; and every rest-plan atom physically one of the
   family's per-position atoms. *)
let check_family what atoms =
  let indexed = List.mapi (fun i a -> (i, a)) atoms in
  let rest_of j = List.filter (fun (k, _) -> k <> j) indexed in
  let spec =
    List.map
      (fun (j, pivot) -> spec_order ~bound:(Atom.vars pivot) (rest_of j))
      indexed
  in
  Obs.set_metrics true;
  let c0 = compilations () in
  let fam = Hom.Plan.compile_family atoms in
  let c1 = compilations () in
  Obs.set_metrics false;
  check_int
    (what ^ ": one compilation per pivot")
    (List.length atoms) (c1 - c0);
  let layout = Hom.Plan.family_layout fam in
  check (what ^ ": pivot orders") true
    (Array.to_list (Array.map Array.to_list layout)
    = List.map (List.map fst) spec);
  (match (atoms, spec) with
  | a0 :: _, rest0 :: _ ->
      let tbl = spec_slots (a0 :: List.map snd rest0) in
      check_int (what ^ ": slot count") (Hashtbl.length tbl)
        (Hom.Plan.family_nslots fam);
      Hashtbl.iter
        (fun x s ->
          check (what ^ ": slot of " ^ x) true
            (Hom.Plan.family_slot fam x = Some s))
        tbl
  | _ -> check_int (what ^ ": no slots") 0 (Hom.Plan.family_nslots fam))

(* [order_atoms] and [Plan.compile] against the spec, under [bound]. *)
let check_order ~bound what atoms =
  let indexed = List.mapi (fun i a -> (i, a)) atoms in
  let spec = List.map snd (spec_order ~bound indexed) in
  let got = Hom.order_atoms ~bound atoms in
  check (what ^ ": order_atoms") true
    (List.length got = List.length spec && List.for_all2 ( == ) got spec);
  Obs.set_metrics true;
  let c0 = compilations () in
  let plan = Hom.Plan.compile ~bound atoms in
  let c1 = compilations () in
  Obs.set_metrics false;
  check_int (what ^ ": one compilation") 1 (c1 - c0);
  let tbl = spec_slots spec in
  check_int (what ^ ": plan slot count") (Hashtbl.length tbl)
    (Hom.Plan.nslots plan);
  Hashtbl.iter
    (fun x s ->
      check (what ^ ": plan slot of " ^ x) true (Hom.Plan.slot plan x = Some s))
    tbl

let unary = Symbol.make "U" 1
let ternary = Symbol.make "T" 3

(* A seeded body of [n] atoms over unary/binary/ternary symbols, a
   variable pool of 1..2n names and three constants; about one atom in
   eight repeats an earlier one physically and one in eight as a
   structurally equal copy. *)
let random_body r n =
  let nv = 1 + Random.State.int r (2 * n) in
  let term () =
    if Random.State.int r 6 = 0 then
      c (Printf.sprintf "k%d" (Random.State.int r 3))
    else v (Printf.sprintf "x%d" (Random.State.int r nv))
  in
  let fresh () =
    match Random.State.int r 3 with
    | 0 -> Atom.make unary [ term () ]
    | 1 -> Atom.app2 edge (term ()) (term ())
    | _ -> Atom.make ternary [ term (); term (); term () ]
  in
  let rec go i acc =
    if i = n then List.rev acc
    else
      let a =
        match (acc, Random.State.int r 8) with
        | _ :: _, 0 -> List.nth acc (Random.State.int r (List.length acc))
        | _ :: _, 1 ->
            let b = List.nth acc (Random.State.int r (List.length acc)) in
            Atom.make (Atom.sym b) (Atom.args b)
        | _ -> fresh ()
      in
      go (i + 1) (a :: acc)
  in
  go 0 []

let test_order_spec_random () =
  let r = Random.State.make [| 20241017 |] in
  for case = 0 to 119 do
    let n = 1 + (case * 53 mod 120) in
    let atoms = random_body r n in
    let what = Printf.sprintf "case %d (%d atoms)" case n in
    let vars = Term.Var_set.elements (Atom.vars_of_list atoms) in
    let bound =
      List.filter (fun _ -> Random.State.int r 4 = 0) vars
      |> List.cons (if case mod 2 = 0 then "x0" else "absent")
      |> Term.Var_set.of_list
    in
    check_order ~bound:Term.Var_set.empty what atoms;
    check_order ~bound (what ^ " bound") atoms;
    if n <= 60 || case mod 4 = 0 then check_family what atoms
  done

let test_order_spec_handcrafted () =
  let a = Atom.app2 edge (v "x") (v "y") in
  let b = Atom.app2 edge (v "y") (c "k") in
  List.iter
    (fun (what, atoms) ->
      check_order ~bound:Term.Var_set.empty what atoms;
      check_order ~bound:(Term.Var_set.singleton "y") (what ^ " bound") atoms;
      check_family what atoms)
    [
      ("empty", []);
      ("single", [ a ]);
      ("shared repeat", [ a; a ]);
      ("equal repeat", [ a; b; Atom.app2 edge (v "x") (v "y"); a ]);
      ("ground", [ Atom.app2 edge (c "k") (c "k"); b; a ]);
      ( "self loop",
        [ Atom.app2 edge (v "z") (v "z"); a; Atom.app2 edge (v "y") (v "z") ] );
    ]

(* The paper's regime: the spider-CQ bodies of T_Q at s = 10. *)
let test_order_spec_tq () =
  let p = Greengraph.Precompile.to_level0 ~s:10 Separating.Tinf.rules in
  List.iteri
    (fun i dep ->
      let body = Tgd.Dep.body dep in
      let what = Printf.sprintf "T_Q dep %d (%d atoms)" i (List.length body) in
      check_order ~bound:Term.Var_set.empty what body;
      check_family what body)
    p.Greengraph.Precompile.tgds

(* --- the parallel chase --------------------------------------------------- *)

let test_par_bit_identity () =
  for case = 0 to 39 do
    let r = Oracle.Gen.case_rng ~seed:11 ~case in
    let inst = Oracle.Gen.instance r in
    let stop d = Structure.card d > 100 || Structure.size d > 300 in
    let run engine jobs =
      let d = Oracle.Gen.build inst in
      let firings = ref [] in
      let on_fire ~stage dep fb =
        firings :=
          (stage, Tgd.Dep.name dep, Term.Var_map.bindings fb) :: !firings
      in
      let stats =
        Tgd.Chase.run ~engine ?jobs ~max_stages:6 ~stop ~on_fire
          inst.Oracle.Gen.deps d
      in
      (d, stats, List.rev !firings)
    in
    let d1, s1, f1 = run `Seminaive None in
    (* jobs:3 exercises sharding + merge even on a single-core box *)
    let d2, s2, f2 = run `Par (Some 3) in
    check
      (Printf.sprintf "case %d: par structure = seminaive" case)
      true
      (Structure.equal_sets d1 d2);
    check
      (Printf.sprintf "case %d: par journal = seminaive" case)
      true
      (Structure.delta_since d1 0 = Structure.delta_since d2 0);
    check
      (Printf.sprintf "case %d: par firings = seminaive" case)
      true (f1 = f2);
    check
      (Printf.sprintf "case %d: par stats = seminaive" case)
      true (s1 = s2)
  done

let () =
  Alcotest.run "plan"
    [
      ( "compiled = interpreted",
        [
          Alcotest.test_case "repeated atoms" `Quick test_repeated_atoms;
          Alcotest.test_case "constants in body" `Quick test_constants_in_body;
          Alcotest.test_case "init seeding" `Quick test_init_seeding;
          Alcotest.test_case "delta mode" `Quick test_delta_handcrafted;
          Alcotest.test_case "generated cases" `Quick test_generated_agreement;
          Alcotest.test_case "slot round trip" `Quick test_slot_round_trip;
        ] );
      ( "ordering = spec",
        [
          Alcotest.test_case "handcrafted bodies" `Quick
            test_order_spec_handcrafted;
          Alcotest.test_case "seeded random bodies" `Quick
            test_order_spec_random;
          Alcotest.test_case "T_Q bodies at s=10" `Quick test_order_spec_tq;
        ] );
      ( "parallel chase",
        [
          Alcotest.test_case "bit-identical to sem" `Quick
            test_par_bit_identity;
        ] );
    ]
