(* The oracle itself, and the bugs it exists to catch.

   Besides exercising the generator/auditor/differential-runner stack on
   clean code, the decisive test here re-introduces the pre-fix
   [Containment.fold_step] (the |image| + |constants| double-count) through
   the harness's [?fold] hook and checks that the audit run flags it — the
   harness must be able to catch the very regression this PR fixes. *)

open Relational

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let edge = Symbol.make "E" 2
let v = Term.var
let c = Term.cst
let e x y = Atom.app2 edge x y

(* --- the generator ------------------------------------------------------- *)

let test_prng_deterministic () =
  let draw () =
    let r = Oracle.Gen.case_rng ~seed:42 ~case:7 in
    List.init 16 (fun _ -> Oracle.Gen.int r 1000)
  in
  check "same (seed, case) gives the same stream" true (draw () = draw ());
  let other = Oracle.Gen.case_rng ~seed:42 ~case:8 in
  check "different case gives a different stream" true
    (draw () <> List.init 16 (fun _ -> Oracle.Gen.int other 1000))

let test_build_deterministic () =
  let r1 = Oracle.Gen.case_rng ~seed:3 ~case:0 in
  let r2 = Oracle.Gen.case_rng ~seed:3 ~case:0 in
  let i1 = Oracle.Gen.instance r1 and i2 = Oracle.Gen.instance r2 in
  check "same recipe" true (i1.Oracle.Gen.facts = i2.Oracle.Gen.facts);
  check "same realization" true
    (Structure.equal_sets (Oracle.Gen.build i1) (Oracle.Gen.build i2))

(* --- the auditor: it passes on honest structures, fails on corrupted
   recomputation inputs --------------------------------------------------- *)

(* The quadratic audits, kept verbatim as the specification of
   [Oracle.Audit]: every bucket is checked against a fresh filter over the
   whole fact (edge) enumeration.  The audits under test derive each
   ground truth once per audit and must report exactly what these report
   on honest inputs, and at least what these report on corrupted ones. *)
module Spec = struct
  let fail violations fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt

  (* --- structures --------------------------------------------------------- *)

  module Key = struct
    type t = Symbol.t * int * int

    let compare (s1, p1, e1) (s2, p2, e2) =
      let c = Symbol.compare s1 s2 in
      if c <> 0 then c
      else
        let c = Int.compare p1 p2 in
        if c <> 0 then c else Int.compare e1 e2
  end

  module Key_map = Map.Make (Key)
  module Int_set = Set.Make (Int)

  let sorted_facts fs = List.sort Fact.compare fs

  let structure ?(provenance = false) d =
    let violations = ref [] in
    let facts = Structure.facts d in
    let n = List.length facts in
    (* size / card coherence *)
    if Structure.size d <> n then
      fail violations "size=%d but %d facts enumerate" (Structure.size d) n;
    let elems = Int_set.of_list (Structure.elems d) in
    if Structure.card d <> Int_set.cardinal elems then
      fail violations "card=%d but %d elements enumerate" (Structure.card d)
        (Int_set.cardinal elems);
    List.iter
      (fun f ->
        List.iter
          (fun e ->
            if not (Int_set.mem e elems) then
              fail violations "fact %a uses unregistered element %d" (Fact.pp ()) f e)
          (Fact.elements f))
      facts;
    (* constants resolve to registered elements and back *)
    List.iter
      (fun c ->
        match Structure.constant_opt d c with
        | None -> fail violations "constant %s lost its element" c
        | Some e ->
            if not (Int_set.mem e elems) then
              fail violations "constant %s -> unregistered element %d" c e;
            if Structure.constant_name d e <> Some c then
              fail violations "constant %s -> %d does not resolve back" c e)
      (Structure.constants d);
    (* ground-truth pin table: (sym, pos, elem) -> facts *)
    let truth =
      List.fold_left
        (fun acc f ->
          let sym = Fact.sym f in
          snd
            (Array.fold_left
               (fun (i, acc) e ->
                 let key = (sym, i, e) in
                 let prev = Option.value ~default:[] (Key_map.find_opt key acc) in
                 (i + 1, Key_map.add key (f :: prev) acc))
               (0, acc) (Fact.args f)))
        Key_map.empty facts
    in
    Key_map.iter
      (fun (sym, pos, e) expected ->
        let got = Structure.facts_with_pin d sym pos e in
        if sorted_facts got <> sorted_facts expected then
          fail violations "pin bucket (%a,%d,%d): %d facts indexed, %d expected"
            Symbol.pp sym pos e (List.length got) (List.length expected);
        let cnt = Structure.pin_count d sym pos e in
        if cnt <> List.length expected then
          fail violations "pin count (%a,%d,%d)=%d, expected %d" Symbol.pp sym pos
            e cnt (List.length expected))
      truth;
    (* per-symbol buckets *)
    List.iter
      (fun sym ->
        let expected = List.filter (fun f -> Symbol.equal (Fact.sym f) sym) facts in
        let got = Structure.facts_with_sym d sym in
        if sorted_facts got <> sorted_facts expected then
          fail violations "symbol bucket %a: %d facts indexed, %d expected"
            Symbol.pp sym (List.length got) (List.length expected))
      (Structure.symbols d);
    (* symbols list covers exactly the symbols with facts *)
    let sym_truth =
      List.sort_uniq Symbol.compare (List.map Fact.sym facts)
    in
    if List.sort Symbol.compare (Structure.symbols d) <> sym_truth then
      fail violations "symbols: %d listed, %d with facts"
        (List.length (Structure.symbols d))
        (List.length sym_truth);
    (* per-element buckets *)
    Int_set.iter
      (fun e ->
        let expected =
          List.filter (fun f -> List.mem e (Fact.elements f)) facts
        in
        let got = Structure.facts_with_elem d e in
        if sorted_facts got <> sorted_facts expected then
          fail violations "element bucket %d: %d facts indexed, %d expected" e
            (List.length got) (List.length expected))
      elems;
    (* the dense-id arena view agrees with the boxed facts.  With
       retractions the journal keeps dead entries: the id bound is the
       live count plus the retraction count, and dead ids are excluded
       from the bucket ground truth below. *)
    let nretr = Structure.retraction_count d in
    if Structure.nfacts d <> n + nretr then
      fail violations "nfacts=%d but %d facts enumerate (+%d retracted)"
        (Structure.nfacts d) n nretr;
    for id = 0 to Structure.nfacts d - 1 do
      if Structure.live_id d id then begin
        let f = Structure.id_fact d id in
        let sym = Fact.sym f in
        let sid = Structure.sym_id d sym in
        if sid < 0 then
          fail violations "fact %d's symbol %a is not interned" id Symbol.pp sym
        else if Structure.id_sym d id <> sid then
          fail violations "id_sym %d=%d but sym_id %a=%d" id
            (Structure.id_sym d id) Symbol.pp sym sid;
        Array.iteri
          (fun pos e ->
            if Structure.id_arg d id pos <> e then
              fail violations "arena arg (%d,%d)=%d but fact %a has %d" id pos
                (Structure.id_arg d id pos) (Fact.pp ()) f e)
          (Fact.args f)
      end
    done;
    (* the retraction journal names exactly the dead ids *)
    let retr = Structure.retractions d in
    if List.length retr <> nretr then
      fail violations "retraction journal has %d entries, count says %d"
        (List.length retr) nretr;
    List.iter
      (fun (id, f) ->
        if id < 0 || id >= Structure.nfacts d then
          fail violations "retracted id %d outside the journal" id
        else if Structure.live_id d id then
          fail violations "retracted id %d still live" id
        else if not (Fact.equal (Structure.id_fact d id) f) then
          fail violations "retracted id %d holds %a, journal says %a" id
            (Fact.pp ()) (Structure.id_fact d id) (Fact.pp ()) f)
      retr;
    (* dense-id buckets are the id images of the boxed buckets (live ids
       only: a resurrected fact's dead former id must not count) *)
    let ids_of fs =
      List.sort Int.compare
        (List.concat_map
           (fun f ->
             List.filteri
               (fun id _ ->
                 Structure.live_id d id
                 && Fact.equal (Structure.id_fact d id) f)
               (List.init (Structure.nfacts d) Fun.id))
           fs)
    in
    List.iter
      (fun sym ->
        let sid = Structure.sym_id d sym in
        let got =
          List.sort Int.compare (Intvec.to_list (Structure.ids_with_sym d sid))
        in
        if got <> ids_of (Structure.facts_with_sym d sym) then
          fail violations "ids_with_sym %a disagrees with facts_with_sym"
            Symbol.pp sym)
      (Structure.symbols d);
    Key_map.iter
      (fun (sym, pos, e) expected ->
        let sid = Structure.sym_id d sym in
        let got =
          List.sort Int.compare
            (Intvec.to_list (Structure.ids_with_pin d sid pos e))
        in
        if got <> ids_of expected then
          fail violations "ids_with_pin (%a,%d,%d) disagrees with ground truth"
            Symbol.pp sym pos e;
        if Structure.pin_count_id d sid pos e <> List.length expected then
          fail violations "pin_count_id (%a,%d,%d)=%d, expected %d" Symbol.pp sym
            pos e
            (Structure.pin_count_id d sid pos e)
            (List.length expected))
      truth;
    (* journal and watermark *)
    if Structure.watermark d <> n + nretr then
      fail violations "watermark=%d but size=%d (+%d retracted)"
        (Structure.watermark d) n nretr;
    let lo, hi = Structure.delta_ids d (Structure.watermark d) in
    if lo <> hi then
      fail violations "delta_ids at the watermark is nonempty: [%d, %d)" lo hi;
    (let lo, hi = Structure.delta_ids d 0 in
     if lo <> 0 || hi <> n + nretr then
       fail violations "delta_ids 0 = [%d, %d), expected [0, %d)" lo hi (n + nretr));
    let journal = Structure.delta_since d 0 in
    if List.length journal <> n then
      fail violations "journal has %d entries for %d facts" (List.length journal) n;
    if sorted_facts journal <> sorted_facts facts then
      fail violations "journal is not a permutation of the fact set";
    let seen = Fact.Tbl.create 64 in
    List.iter
      (fun f ->
        if Fact.Tbl.mem seen f then
          fail violations "journal repeats fact %a" (Fact.pp ()) f
        else Fact.Tbl.replace seen f ())
      journal;
    (* provenance (chase outputs only): every fact and element is stamped,
       journal stages never decrease, and a fact is never older than the
       elements it mentions *)
    if provenance then begin
      let last = ref min_int in
      List.iter
        (fun f ->
          match Structure.fact_stage d f with
          | None -> fail violations "fact %a has no stage" (Fact.pp ()) f
          | Some s ->
              if s < !last then
                fail violations
                  "journal stage drops from %d to %d at %a (provenance not \
                   monotone)"
                  !last s (Fact.pp ()) f;
              last := max !last s;
              List.iter
                (fun e ->
                  match Structure.elem_stage d e with
                  | None -> fail violations "element %d has no birth stage" e
                  | Some b ->
                      if b > s then
                        fail violations
                          "fact %a at stage %d mentions element %d born later \
                           (stage %d)"
                          (Fact.pp ()) f s e b)
                (Fact.elements f))
        journal
    end;
    List.rev !violations
end

let check_violations = Alcotest.(check (list string))

let generated_structure seed case =
  Oracle.Gen.build (Oracle.Gen.instance (Oracle.Gen.case_rng ~seed ~case))

(* The oldest live fact of [d], retracted for good, and the next one
   retracted and re-added: a dead id, and a fact whose live id is not
   its first. *)
let edited_structure seed case =
  let d = generated_structure seed case in
  (match Structure.delta_since d 0 with
  | f1 :: f2 :: _ ->
      ignore (Structure.retract_fact d f1);
      ignore (Structure.retract_fact d f2);
      ignore (Structure.add_fact d f2)
  | _ -> ());
  d

(* The same instances over element (vertex) ids a million apart: the
   audits number sparse ids by sorting instead of a direct table. *)
let spread e = e * 1_000_003

let sparse_structure seed case =
  let d = generated_structure seed case in
  let s = Structure.create () in
  Structure.iter_elems d (fun e -> Structure.reserve s (spread e));
  Structure.iter_facts d (fun f ->
      ignore (Structure.add_fact s (Fact.map_elements spread f)));
  s

let test_audit_clean_structure () =
  for case = 0 to 24 do
    let d = generated_structure 11 case in
    check_int
      (Printf.sprintf "no violations on generated structure %d" case)
      0
      (List.length (Oracle.Audit.structure d))
  done

(* Both specifications: the quadratic one, and the verbatim copy of the
   audits before they moved to local ids ([Audit_spec]), which must
   agree message for message, in order. *)
let check_structure_spec what ?provenance d =
  let got = Oracle.Audit.structure ?provenance d in
  check_violations what (Spec.structure ?provenance d) got;
  check_violations (what ^ ", verbatim copy")
    (Audit_spec.structure ?provenance d)
    got

let test_structure_spec () =
  check_structure_spec "empty structure" (Structure.create ());
  let edited = ref 0 in
  for case = 0 to 24 do
    check_structure_spec
      (Printf.sprintf "generated structure %d" case)
      (generated_structure 11 case);
    let d = edited_structure 13 case in
    if Structure.retraction_count d > 0 then incr edited;
    check_structure_spec (Printf.sprintf "edited structure %d" case) d;
    check_structure_spec
      (Printf.sprintf "sparse structure %d" case)
      (sparse_structure 11 case)
  done;
  check "some structures carry retractions" true (!edited > 0);
  (* every engine's chase output, under the oracle's own overshoot guard *)
  let budget = Oracle.Diff.default_budget in
  for case = 0 to 14 do
    let inst = Oracle.Gen.instance (Oracle.Gen.case_rng ~seed:9 ~case) in
    let _, runs, _ = Oracle.Diff.diff_tgd budget inst in
    check_int "four engine runs" 4 (List.length runs);
    List.iter
      (fun (r : Oracle.Diff.engine_run) ->
        let d = r.Oracle.Diff.result in
        if
          Structure.size d <= 4 * budget.Oracle.Diff.max_facts
          && Structure.card d <= 4 * budget.Oracle.Diff.max_elems
        then
          check_structure_spec
            (Format.asprintf "case %d, %a output" case Tgd.Chase.pp_engine
               r.Oracle.Diff.engine)
            ~provenance:true d)
      runs
  done

(* Corruptions of the live id buckets of a structure: [ids_with_pin] and
   [ids_with_sym] hand out the index vectors themselves, so a push or a
   sorted removal on them is a fault inside the index under audit. *)
type corruption =
  | Pin_drop  (** the oldest fact leaves its first pin bucket *)
  | Pin_dup  (** the oldest fact is indexed twice in that bucket *)
  | Pin_foreign  (** the newest fact joins that bucket *)
  | Sym_drop  (** the oldest fact leaves its symbol bucket *)
  | Sym_foreign  (** a fact of another symbol joins that bucket *)
  | Sym_dead  (** a retracted id rejoins its symbol's bucket *)
  | Pin_phantom
      (** a live fact joins a pin bucket a retraction emptied: the bucket
          stays in the index under a key no fact has, so a probe that
          picks it gets a fact without the pin that chose it *)

let corruptions =
  [ Pin_drop; Pin_dup; Pin_foreign; Sym_drop; Sym_foreign; Sym_dead; Pin_phantom ]

let corruption_name = function
  | Pin_drop -> "pin drop"
  | Pin_dup -> "pin duplicate"
  | Pin_foreign -> "pin foreign"
  | Sym_drop -> "symbol drop"
  | Sym_foreign -> "symbol foreign"
  | Sym_dead -> "symbol dead id"
  | Pin_phantom -> "pin phantom"

(* Apply the corruption to the oldest live fact's buckets; [false] when
   the structure offers nothing to corrupt that way. *)
let corrupt d c =
  let live =
    List.filter (Structure.live_id d) (List.init (Structure.nfacts d) Fun.id)
  in
  match live with
  | [] -> false
  | id :: _ -> (
      let sid = Structure.id_sym d id in
      let pin = Structure.ids_with_pin d sid 0 (Structure.id_arg d id 0) in
      let sym = Structure.ids_with_sym d sid in
      let newest = List.nth live (List.length live - 1) in
      match c with
      | Pin_drop -> Intvec.remove_sorted pin id
      | Pin_dup ->
          Intvec.push pin id;
          true
      | Pin_foreign ->
          if List.mem newest (Intvec.to_list pin) then false
          else begin
            Intvec.push pin newest;
            true
          end
      | Sym_drop -> Intvec.remove_sorted sym id
      | Sym_foreign -> (
          match List.find_opt (fun i -> Structure.id_sym d i <> sid) live with
          | None -> false
          | Some other ->
              Intvec.push sym other;
              true)
      | Sym_dead -> (
          match Structure.retractions d with
          | [] -> false
          | (dead, _) :: _ ->
              Intvec.push
                (Structure.ids_with_sym d (Structure.id_sym d dead))
                dead;
              true)
      | Pin_phantom -> (
          (* a pin bucket of a retracted fact that no live fact refills:
             [retract_fact] emptied it and left it in the index *)
          let emptied (dead, f) =
            let dsid = Structure.id_sym d dead in
            List.find_map
              (fun pos ->
                let e = Fact.arg f pos in
                if Structure.pin_count_id d dsid pos e = 0 then
                  Some (dsid, Structure.ids_with_pin d dsid pos e)
                else None)
              (List.init (Array.length (Fact.args f)) Fun.id)
          in
          match List.find_map emptied (Structure.retractions d) with
          | None -> false
          | Some (dsid, bucket) ->
              (* a fact of the bucket's own symbol when there is one *)
              Intvec.push bucket
                (Option.value ~default:id
                   (List.find_opt (fun i -> Structure.id_sym d i = dsid) live));
              true))

let test_corrupted_structures () =
  List.iter
    (fun c ->
      let applied = ref 0 in
      for case = 0 to 24 do
        List.iter
          (fun (what, d) ->
            if corrupt d c then begin
              incr applied;
              let got = Oracle.Audit.structure d and spec = Spec.structure d in
              let name =
                Printf.sprintf "%s, %s %d" (corruption_name c) what case
              in
              check (name ^ ": flagged") true (got <> []);
              (* the one deliberate difference from the verbatim copy:
                 it visits truth keys only and misses the phantom *)
              if c = Pin_phantom then
                check (name ^ ": the verbatim copy misses it") true
                  (Audit_spec.structure d = [])
              else
                check_violations (name ^ ": as the verbatim copy reports")
                  (Audit_spec.structure d) got;
              List.iter
                (fun v ->
                  check
                    (Printf.sprintf "%s: reports the spec's %S" name v)
                    true (List.mem v got))
                spec
            end)
          [
            ("generated structure", generated_structure 11 case);
            ("edited structure", edited_structure 13 case);
          ]
      done;
      check
        (corruption_name c ^ " was injected at least once")
        true (!applied > 0))
    corruptions

(* The audits against the verbatim copy on the audit workload's case
   universe: every in-slack result of seed 42 cases 0..599 under the
   five TGD runs.  (A graph output is a structure and is audited as
   one: [test_corrupted_graph_buckets].) *)
let test_spec_seed42 () =
  let budget = Oracle.Diff.default_budget in
  let slack size card =
    size <= 4 * budget.Oracle.Diff.max_facts
    && card <= 4 * budget.Oracle.Diff.max_elems
  in
  let results = ref 0 in
  let agree what spec got =
    if spec <> got then
      Alcotest.failf "%s: verbatim copy [%s], audit [%s]" what
        (String.concat "; " spec) (String.concat "; " got)
  in
  let staged = { Tgd.Chase.default_tuning with Tgd.Chase.par_fire = `Staged } in
  for case = 0 to 599 do
    let inst = Oracle.Gen.instance (Oracle.Gen.case_rng ~seed:42 ~case) in
    List.iter
      (fun (engine, tuning) ->
        let d = (Oracle.Diff.run_tgd ?tuning budget engine inst).Oracle.Diff.result in
        if slack (Structure.size d) (Structure.card d) then begin
          incr results;
          agree
            (Format.asprintf "case %d, %a" case Tgd.Chase.pp_engine engine)
            (Audit_spec.structure ~provenance:true d)
            (Oracle.Audit.structure ~provenance:true d)
        end)
      [ (`Stage, None); (`Seminaive, None); (`Oblivious, None); (`Par, None);
        (`Par, Some staged) ]
  done;
  check_int "results within the slack" 2989 !results

(* A graph is a view over a structure, and [diff_graph] audits each
   graph output as that structure: a pin bucket of a chased graph's
   structure, corrupted as [test_corrupted_structures] corrupts a
   structure's, is flagged by [diff_graph]'s output audit. *)
let test_corrupted_graph_buckets () =
  let module G = Greengraph.Graph in
  let budget = Oracle.Diff.default_budget in
  let applied = ref 0 in
  for case = 0 to 24 do
    let gc = Oracle.Gen.graph_case (Oracle.Gen.case_rng ~seed:12 ~case) in
    let g = Oracle.Gen.build_graph gc in
    ignore
      (Greengraph.Rule.chase ~max_stages:budget.Oracle.Diff.max_stages
         ~stop:(fun g -> G.size g > budget.Oracle.Diff.max_facts)
         gc.Oracle.Gen.rules g);
    let name = Printf.sprintf "chased graph %d" case in
    check_violations (name ^ ": clean") []
      (Oracle.Diff.audit_graph_output budget g);
    List.iter
      (fun c ->
        let g = G.copy g in
        if corrupt (G.structure g) c then begin
          incr applied;
          check
            (Printf.sprintf "%s, %s: flagged" name (corruption_name c))
            true
            (Oracle.Diff.audit_graph_output budget g <> [])
        end)
      [ Pin_drop; Pin_dup; Pin_foreign ]
  done;
  check "some graph was corrupted" true (!applied > 0)

(* [facts_with_sym] is the image of [ids_with_sym], so an id dropped from
   a symbol bucket vanishes from both: the old check compared the bucket
   with its own image and passed.  Held against the ground-truth symbol
   group, the id-bucket check must flag the drop itself.  (A bucket the
   drop empties takes its symbol off [Structure.symbols], which the
   symbols check flags instead.) *)
let test_ids_with_sym_not_circular () =
  let flagged = ref 0 in
  for case = 0 to 24 do
    let d = generated_structure 11 case in
    let sym = Fact.sym (Structure.id_fact d 0) in
    if corrupt d Sym_drop && List.mem sym (Structure.symbols d) then begin
      incr flagged;
      let msg =
        Format.asprintf "ids_with_sym %a disagrees with facts_with_sym"
          Symbol.pp sym
      in
      check
        (Printf.sprintf "case %d: the id-bucket check flags the drop" case)
        true
        (List.mem msg (Oracle.Audit.structure d));
      check
        (Printf.sprintf "case %d: the circular spec check missed it" case)
        false
        (List.mem msg (Spec.structure d))
    end
  done;
  check "some drop left its symbol listed" true (!flagged > 0)

(* --- satellite fix: folding a variable onto a constant ------------------- *)

(* q() :- E(x,c), E(c,c) folds by x ↦ c; before the fix the fold was
   invisible because |image| + |constants| counted c's element twice. *)
let folding_query () =
  Cq.Query.make ~free:[] [ e (v "x") (c "c"); e (c "c") (c "c") ]

let test_fold_onto_constant () =
  let q = folding_query () in
  let core = Cq.Containment.core q in
  check_int "core folds down to the single constant loop" 1
    (List.length (Cq.Query.body core));
  check "core is equivalent to the input" true (Cq.Containment.equivalent q core);
  check "independent witness agrees the core is minimal" true
    (Option.is_none (Oracle.Audit.fold_witness core));
  check "and that the input was not" true
    (Option.is_some (Oracle.Audit.fold_witness q))

(* The pre-fix [fold_step], kept verbatim as the regression specimen:
   the image is counted as |image of variables| + |constants| (double
   counting any variable mapped onto a constant's element), and the
   rewrite knows only variable representatives. *)
let legacy_fold_step q =
  let canon, elem = Cq.Query.canonical q in
  let init =
    List.fold_left
      (fun acc x ->
        match elem x with Some e -> Term.Var_map.add x e acc | None -> acc)
      Term.Var_map.empty (Cq.Query.free q)
  in
  let n_elems = Structure.card canon in
  let n_csts = List.length (Structure.constants canon) in
  let result = ref None in
  (try
     Hom.iter_all ~init canon (Cq.Query.body q) (fun binding ->
         let image =
           Term.Var_map.fold
             (fun _ e acc -> if List.mem e acc then acc else e :: acc)
             binding []
         in
         if List.length image + n_csts < n_elems then begin
           result := Some binding;
           raise Exit
         end)
   with Exit -> ());
  match !result with
  | None -> None
  | Some binding ->
      let repr = Hashtbl.create 16 in
      Term.Var_map.iter
        (fun x e -> if not (Hashtbl.mem repr e) then Hashtbl.replace repr e x)
        binding;
      List.iter
        (fun x ->
          match Term.Var_map.find_opt x binding with
          | Some e -> Hashtbl.replace repr e x
          | None -> ())
        (Cq.Query.free q);
      let subst =
        Term.Var_map.mapi
          (fun x e ->
            match Hashtbl.find_opt repr e with
            | Some y -> Term.Var y
            | None -> Term.Var x)
          binding
      in
      let body =
        List.sort_uniq Atom.compare
          (List.map (Atom.substitute subst) (Cq.Query.body q))
      in
      Some (Cq.Query.make ~free:(Cq.Query.free q) body)

let test_legacy_fold_misses () =
  check "the legacy fold misses the var-onto-constant fold" true
    (Option.is_none (legacy_fold_step (folding_query ())));
  check "the fixed fold finds it" true
    (Option.is_some (Cq.Containment.fold_step (folding_query ())))

(* --- containment vs direct evaluation ------------------------------------ *)

let test_containment_fixtures () =
  let q_loop = Cq.Query.make ~free:[] [ e (v "x") (v "y"); e (v "y") (v "x") ] in
  let q_edge = Cq.Query.make ~free:[] [ e (v "x") (v "y") ] in
  check "2-loop ⊆ edge" true (Cq.Containment.contained_in q_loop q_edge);
  check "edge ⊄ 2-loop" false (Cq.Containment.contained_in q_edge q_loop)

let test_cq_checks_clean () =
  for case = 0 to 49 do
    let r = Oracle.Gen.case_rng ~seed:5 ~case in
    let inst = Oracle.Gen.instance r in
    let d = Oracle.Gen.build inst in
    match Oracle.Diff.cq_checks r inst.Oracle.Gen.signature d with
    | [] -> ()
    | vs -> Alcotest.failf "case %d: %s" case (String.concat "; " vs)
  done

(* --- the differential runner --------------------------------------------- *)

let test_engines_bit_identical () =
  for case = 0 to 39 do
    let r = Oracle.Gen.case_rng ~seed:9 ~case in
    let inst = Oracle.Gen.instance r in
    match Oracle.Diff.diff_tgd Oracle.Diff.default_budget inst with
    | [], runs, _ ->
        let st = List.nth runs 0 and sn = List.nth runs 1 in
        check
          (Printf.sprintf "case %d: equal structures, fresh ids included" case)
          true
          (Structure.delta_since st.Oracle.Diff.result 0
          = Structure.delta_since sn.Oracle.Diff.result 0)
    | vs, _, _ -> Alcotest.failf "case %d: %s" case (String.concat "; " vs)
  done

let test_find_violation_deterministic () =
  let d = Structure.create () in
  let a = Structure.fresh d and b = Structure.fresh d in
  Structure.add2 d edge a b;
  let sat =
    Tgd.Dep.make ~name:"sat" ~body:[ e (v "x") (v "y") ]
      ~head:[ e (v "x") (v "y") ] ()
  in
  let viol1 =
    Tgd.Dep.make ~name:"viol1" ~body:[ e (v "x") (v "y") ]
      ~head:[ e (v "y") (v "y") ] ()
  in
  let viol2 =
    Tgd.Dep.make ~name:"viol2" ~body:[ e (v "x") (v "y") ]
      ~head:[ e (v "y") (v "x") ] ()
  in
  let deps = [ sat; viol1; viol2 ] in
  check "not a model" false (Tgd.Chase.models deps d);
  (match Tgd.Chase.find_violation deps d with
  | Some (dep, fb) ->
      check "first violated dependency in list order" true
        (Tgd.Dep.name dep = "viol1");
      (* viol1's frontier is {y} — the only variable shared by body and
         head — so the witness binds just y *)
      ignore a;
      check "witness is the least active frontier binding" true
        (Term.Var_map.bindings fb = [ ("y", b) ])
  | None -> Alcotest.fail "no violation found");
  (* same answer when asked again: the probe has no hidden state *)
  (match Tgd.Chase.find_violation deps d with
  | Some (dep, _) -> check "deterministic" true (Tgd.Dep.name dep = "viol1")
  | None -> Alcotest.fail "no violation on the second probe");
  let stats = Tgd.Chase.run ~max_stages:8 deps d in
  check "fixpoint reached" true stats.Tgd.Chase.fixpoint;
  check "fixpoint is a model" true (Tgd.Chase.models deps d);
  check "no violation at the fixpoint" true
    (Option.is_none (Tgd.Chase.find_violation deps d))

let test_body_matches_dominate_considered () =
  for case = 0 to 19 do
    let r = Oracle.Gen.case_rng ~seed:21 ~case in
    let inst = Oracle.Gen.instance r in
    let run =
      Oracle.Diff.run_tgd Oracle.Diff.default_budget `Stage inst
    in
    check
      (Printf.sprintf "case %d: matches ≥ considered ≥ applications" case)
      true
      (run.Oracle.Diff.stats.Tgd.Chase.body_matches
       >= run.Oracle.Diff.stats.Tgd.Chase.triggers_considered
      && run.Oracle.Diff.stats.Tgd.Chase.triggers_considered
         >= run.Oracle.Diff.stats.Tgd.Chase.applications)
  done

(* --- the harness end to end ----------------------------------------------- *)

let test_harness_clean () =
  let report = Oracle.Diff.run_cases ~seed:42 ~cases:60 () in
  check_int "no violations on clean code" 0
    (List.length report.Oracle.Diff.violations);
  (* 4 TGD runs (stage, seminaive, oblivious, par+staged firing) plus 2
     graph runs (the graph engine and its bridged reference) per case *)
  check_int "six engine runs per case" (6 * 60)
    report.Oracle.Diff.engine_runs

(* The audit workload's case universe, pinned to its exact outcome: a
   faster oracle must still run every engine on every case and bucket
   the endings the same way. *)
let test_harness_exact_outcome () =
  let report = Oracle.Diff.run_cases ~seed:42 ~from_case:0 ~cases:600 () in
  check_int "engine runs" 3600 report.Oracle.Diff.engine_runs;
  check_int "budget exceeded" 428 report.Oracle.Diff.budget_exceeded;
  check_int "incomparable pairs" 0 report.Oracle.Diff.incomparable;
  check_int "cases with violations" 0
    (List.length report.Oracle.Diff.violations)

(* The same universe's chase effort, summed over the [`Stage],
   [`Seminaive] and [`Oblivious] runs at one worker: the counters no
   plan, key or store change may move.  A head probe answers yes or no
   however it is planned, so only the [hom.*] counters beneath it may
   change. *)
let test_harness_tgd_counters () =
  let names =
    [ "tgd.body_matches"; "tgd.firings"; "tgd.head_checks";
      "tgd.triggers_considered" ]
  in
  let value n = Obs.Metrics.value (Obs.Metrics.counter n) in
  Obs.set_metrics true;
  let before = List.map value names in
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      for case = 0 to 599 do
        let inst = Oracle.Gen.instance (Oracle.Gen.case_rng ~seed:42 ~case) in
        List.iter
          (fun engine ->
            ignore (Oracle.Diff.run_tgd Oracle.Diff.default_budget engine inst))
          [ `Stage; `Seminaive; `Oblivious ]
      done);
  Alcotest.(check (list (pair string int)))
    "tgd counters"
    [ ("tgd.body_matches", 83446); ("tgd.firings", 26416);
      ("tgd.head_checks", 27978); ("tgd.triggers_considered", 34528) ]
    (List.map2 (fun n b -> (n, value n - b)) names before)

let test_harness_catches_legacy_fold () =
  let report =
    Oracle.Diff.run_cases ~fold:legacy_fold_step ~seed:42 ~cases:200 ()
  in
  check "re-introducing the fold_step bug is caught" true
    (report.Oracle.Diff.violations <> [])

let () =
  Alcotest.run "oracle"
    [
      ( "gen",
        [
          Alcotest.test_case "prng determinism" `Quick test_prng_deterministic;
          Alcotest.test_case "build determinism" `Quick test_build_deterministic;
        ] );
      ( "audit",
        [
          Alcotest.test_case "structures" `Quick test_audit_clean_structure;
          Alcotest.test_case "structures match the spec" `Quick
            test_structure_spec;
          Alcotest.test_case "corrupted buckets flagged" `Quick
            test_corrupted_structures;
          Alcotest.test_case "ids_with_sym check is not circular" `Quick
            test_ids_with_sym_not_circular;
          Alcotest.test_case "verbatim copy, seed 42, 600 cases" `Slow
            test_spec_seed42;
          Alcotest.test_case "corrupted graph buckets flagged" `Quick
            test_corrupted_graph_buckets;
        ] );
      ( "cores",
        [
          Alcotest.test_case "fold onto constant" `Quick test_fold_onto_constant;
          Alcotest.test_case "legacy fold misses it" `Quick
            test_legacy_fold_misses;
          Alcotest.test_case "containment fixtures" `Quick
            test_containment_fixtures;
          Alcotest.test_case "random cq cross-checks" `Quick test_cq_checks_clean;
        ] );
      ( "diff",
        [
          Alcotest.test_case "engines bit-identical" `Quick
            test_engines_bit_identical;
          Alcotest.test_case "find_violation deterministic" `Quick
            test_find_violation_deterministic;
          Alcotest.test_case "stat dominance" `Quick
            test_body_matches_dominate_considered;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean run" `Quick test_harness_clean;
          Alcotest.test_case "exact outcome, seed 42, 600 cases" `Slow
            test_harness_exact_outcome;
          Alcotest.test_case "catches the fold_step regression" `Quick
            test_harness_catches_legacy_fold;
          Alcotest.test_case "tgd counters, seed 42, 600 cases" `Slow
            test_harness_tgd_counters;
        ] );
    ]
