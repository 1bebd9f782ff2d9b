(* Tests for the relational substrate: structures, homomorphisms,
   painting/daltonisation. *)

open Relational

let edge = Symbol.make "E" 2
let node = Symbol.make "N" 1

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A directed path 0 -> 1 -> ... -> n. *)
let path n =
  let s = Structure.create () in
  let vs = Array.init (n + 1) (fun _ -> Structure.fresh s) in
  for i = 0 to n - 1 do
    Structure.add2 s edge vs.(i) vs.(i + 1)
  done;
  (s, vs)

(* A directed cycle of length n. *)
let cycle n =
  let s = Structure.create () in
  let vs = Array.init n (fun _ -> Structure.fresh s) in
  for i = 0 to n - 1 do
    Structure.add2 s edge vs.(i) vs.((i + 1) mod n)
  done;
  (s, vs)

let test_structure_basics () =
  let s = Structure.create () in
  let a = Structure.fresh ~name:"a" s in
  let b = Structure.fresh s in
  Structure.add2 s edge a b;
  Structure.add2 s edge a b;
  check_int "no duplicate facts" 1 (Structure.size s);
  check_int "two elements" 2 (Structure.card s);
  check "mem" true (Structure.mem s (Fact.app2 edge a b));
  check "not mem" false (Structure.mem s (Fact.app2 edge b a));
  Alcotest.(check string) "name" "a" (Structure.name s a);
  check_int "by sym" 1 (List.length (Structure.facts_with_sym s edge));
  check_int "by elem" 1 (List.length (Structure.facts_with_elem s a))

let test_constants () =
  let s = Structure.create () in
  let c1 = Structure.constant s "c" in
  let c2 = Structure.constant s "c" in
  check_int "constants are shared" c1 c2;
  check "is_constant" true (Structure.is_constant s c1);
  Alcotest.(check (option string)) "constant_name" (Some "c")
    (Structure.constant_name s c1)

let test_copy_independent () =
  let s, vs = path 3 in
  let s' = Structure.copy s in
  Structure.add2 s' edge vs.(3) vs.(0);
  check_int "copy grew" 4 (Structure.size s');
  check_int "original untouched" 3 (Structure.size s)

let test_filter_restrict () =
  let s = Structure.create () in
  let a = Structure.fresh s and b = Structure.fresh s in
  Structure.add2 s (Symbol.green edge) a b;
  Structure.add2 s (Symbol.red edge) b a;
  let g = Structure.restrict_color Symbol.Green s in
  let r = Structure.restrict_color Symbol.Red s in
  check_int "green part" 1 (Structure.size g);
  check_int "red part" 1 (Structure.size r);
  check "green fact survives" true (Structure.mem g (Fact.app2 (Symbol.green edge) a b))

let test_dalt () =
  let s = Structure.create () in
  let a = Structure.fresh s and b = Structure.fresh s in
  Structure.add2 s (Symbol.green edge) a b;
  Structure.add2 s (Symbol.red edge) a b;
  let d = Structure.dalt s in
  (* both colored atoms collapse onto the same uncolored atom *)
  check_int "dalt collapses" 1 (Structure.size d);
  check "dalt fact" true (Structure.mem d (Fact.app2 edge a b))

let test_quotient () =
  let s, vs = path 2 in
  (* identify endpoints: 0 -> 1 -> 0 becomes a 2-cycle *)
  let f e = if e = vs.(2) then vs.(0) else e in
  let q = Structure.quotient f s in
  check "quotient has back edge" true (Structure.mem q (Fact.app2 edge vs.(1) vs.(0)));
  check_int "quotient facts" 2 (Structure.size q)

let test_disjoint_union () =
  let s1, _ = path 2 in
  let s2, _ = cycle 3 in
  let u, _ = Structure.disjoint_union [ s1; s2 ] in
  check_int "facts add up" 5 (Structure.size u);
  check_int "elements add up" 6 (Structure.card u)

let test_disjoint_union_shares_constants () =
  let s1 = Structure.create () in
  let a1 = Structure.constant s1 "a" in
  Structure.add2 s1 edge a1 (Structure.fresh s1);
  let s2 = Structure.create () in
  let a2 = Structure.constant s2 "a" in
  Structure.add2 s2 edge a2 (Structure.fresh s2);
  let u, _ = Structure.disjoint_union [ s1; s2 ] in
  (* the constant a is shared, so 3 elements, both edges from the same a *)
  check_int "constant merged" 3 (Structure.card u);
  let a = Structure.constant u "a" in
  check_int "both edges at a" 2 (List.length (Structure.facts_with_elem u a))

(* Each part's non-constant elements become fresh elements of the union
   in ascending id order, part by part; constants are shared by name. *)
let test_disjoint_union_renaming () =
  let s1 = Structure.create () in
  List.iter (Structure.reserve s1) [ 40; 7; 300; 12 ];
  Structure.add2 s1 edge 300 7;
  Structure.add2 s1 edge 12 40;
  let s2 = Structure.create () in
  let a = Structure.constant s2 "a" in
  List.iter (Structure.reserve s2) [ 9; 2 ];
  Structure.add2 s2 edge 9 a;
  let u, maps = Structure.disjoint_union [ s1; s2 ] in
  let image m e = Option.value ~default:(-1) (m e) in
  Alcotest.(check (list int)) "part 1" [ 0; 1; 2; 3 ]
    (List.map (image (List.nth maps 0)) [ 7; 12; 40; 300 ]);
  Alcotest.(check (list int)) "part 2" [ 4; 5; 6 ]
    (List.map (image (List.nth maps 1)) [ a; 2; 9 ]);
  check_int "a is u's constant" 4 (Structure.constant u "a");
  Alcotest.(check (list int)) "elements" [ 0; 1; 2; 3; 4; 5; 6 ] (Structure.elems u);
  check "edges renamed" true
    (Structure.mem u (Fact.app2 edge 3 0) && Structure.mem u (Fact.app2 edge 1 2)
    && Structure.mem u (Fact.app2 edge 6 4))

let test_hom_path_to_cycle () =
  (* a path maps into a cycle, a cycle does not map into a path *)
  let p, _ = path 5 in
  let c, _ = cycle 3 in
  check "path -> cycle" true (Hom.exists_between p c);
  check "cycle -/-> path" false (Hom.exists_between c p)

let test_hom_cycle_divisibility () =
  (* C_m -> C_n iff n divides m (directed cycles) *)
  let test m n expected =
    let cm, _ = cycle m and cn, _ = cycle n in
    check (Printf.sprintf "C%d -> C%d" m n) expected (Hom.exists_between cm cn)
  in
  test 6 3 true;
  test 6 2 true;
  test 4 3 false;
  test 3 6 false;
  test 5 5 true

let test_hom_respects_constants () =
  let s1 = Structure.create () in
  let a1 = Structure.constant s1 "a" in
  let x = Structure.fresh s1 in
  Structure.add2 s1 edge a1 x;
  let s2 = Structure.create () in
  let a2 = Structure.constant s2 "a" in
  let y = Structure.fresh s2 in
  (* edge goes INTO the constant: no hom fixing a *)
  Structure.add2 s2 edge y a2;
  check "constants block hom" false (Hom.exists_between s1 s2);
  Structure.add2 s2 edge a2 y;
  check "now ok" true (Hom.exists_between s1 s2)

let test_hom_unary () =
  let s = Structure.create () in
  let a = Structure.fresh s and b = Structure.fresh s in
  Structure.add2 s edge a b;
  Structure.add s node [| a |];
  (* query: N(x) ∧ E(x,y) has a match; N(y) ∧ E(x,y) does not *)
  let q1 = [ Atom.make node [ Term.var "x" ]; Atom.app2 edge (Term.var "x") (Term.var "y") ] in
  let q2 = [ Atom.make node [ Term.var "y" ]; Atom.app2 edge (Term.var "x") (Term.var "y") ] in
  check "q1 matches" true (Hom.exists s q1);
  check "q2 does not" false (Hom.exists s q2)

let test_hom_count () =
  let c, _ = cycle 4 in
  (* edges can map onto any of the 4 edges *)
  let q = [ Atom.app2 edge (Term.var "x") (Term.var "y") ] in
  check_int "4 edge images" 4 (Hom.count c q)

let test_identity_hom_property =
  QCheck.Test.make ~name:"identity homomorphism always exists" ~count:50
    QCheck.(pair (int_bound 8) (list_of_size Gen.(int_bound 20) (pair (int_bound 8) (int_bound 8))))
    (fun (n, edges) ->
      let s = Structure.create () in
      let vs = Array.init (n + 1) (fun _ -> Structure.fresh s) in
      List.iter (fun (i, j) -> Structure.add2 s edge vs.(i mod (n+1)) vs.(j mod (n+1))) edges;
      Hom.exists_between s s)

let test_hom_into_superstructure_property =
  QCheck.Test.make ~name:"substructure maps into superstructure" ~count:50
    QCheck.(pair (int_bound 6) (list_of_size Gen.(int_bound 15) (pair (int_bound 6) (int_bound 6))))
    (fun (n, edges) ->
      let s = Structure.create () in
      let vs = Array.init (n + 1) (fun _ -> Structure.fresh s) in
      List.iter (fun (i, j) -> Structure.add2 s edge vs.(i mod (n+1)) vs.(j mod (n+1))) edges;
      let bigger = Structure.copy s in
      Structure.add2 bigger edge (Structure.fresh bigger) vs.(0);
      Hom.exists_between s bigger)

let test_paint_roundtrip_property =
  QCheck.Test.make ~name:"dalt after paint is identity on symbols" ~count:100
    QCheck.(pair string (int_bound 4))
    (fun (name, arity) ->
      QCheck.assume (name <> "");
      let s = Symbol.make name arity in
      Symbol.equal s (Symbol.dalt (Symbol.green s))
      && Symbol.equal s (Symbol.dalt (Symbol.red s))
      && Symbol.is_green (Symbol.green s)
      && Symbol.is_red (Symbol.red s))

(* --- keys ----------------------------------------------------------------- *)

(* A symbol by one of several routes: made with its color, painted,
   repainted, or painted and then daltonised.  Names come from a small
   pool, so equal symbols from different routes are common. *)
let gen_symbol =
  QCheck.Gen.(
    map3
      (fun name arity route ->
        let plain = Symbol.make name arity in
        match route with
        | 0 -> plain
        | 1 -> Symbol.make ~color:Symbol.Green name arity
        | 2 -> Symbol.green plain
        | 3 -> Symbol.paint Symbol.Red (Symbol.green plain)
        | 4 -> Symbol.red plain
        | _ -> Symbol.dalt (Symbol.red plain))
      (oneofl [ "E"; "F"; "EF"; "H_1" ])
      (int_range 1 2) (int_bound 5))

let test_symbol_keys =
  QCheck.Test.make ~name:"Symbol.equal implies equal hashes" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_symbol gen_symbol))
    (fun (a, b) ->
      Symbol.equal a b = (Symbol.compare a b = 0)
      && ((not (Symbol.equal a b)) || Symbol.hash a = Symbol.hash b))

let gen_fact =
  QCheck.Gen.(
    gen_symbol >>= fun sym ->
    map
      (fun args -> Fact.make sym (Array.of_list args))
      (list_repeat (Symbol.arity sym) (int_bound 2)))

let test_fact_keys =
  QCheck.Test.make ~name:"Fact.equal implies equal hashes" ~count:500
    (QCheck.make QCheck.Gen.(pair gen_fact gen_fact))
    (fun (a, b) ->
      Fact.equal a b = (Fact.compare a b = 0)
      && ((not (Fact.equal a b)) || Fact.hash a = Fact.hash b))

(* A fact of arity [pos + 1] with element [e] at position [pos] (the
   other positions small).  Positions below 2^8 and elements below 2^32
   are packable. *)
let wide_fact pos e =
  Fact.make (Symbol.make "W" (pos + 1))
    (Array.init (pos + 1) (fun i -> if i = pos then e else i))

(* Pins round-trip through the index: each (position, element) of a
   fact finds its id in its bucket, and [fold_pin_buckets] hands back
   exactly the fact's (symbol, position, element) triples. *)
let test_pin_keys_roundtrip =
  QCheck.Test.make ~name:"pin keys round-trip" ~count:200
    (QCheck.make
       QCheck.Gen.(pair (int_bound 255) (map (fun x -> x land ((1 lsl 32) - 1)) int)))
    (fun (pos, e) ->
      let f = wide_fact pos e in
      let s = Structure.create () in
      ignore (Structure.add_fact s f);
      let sym = Fact.sym f and sid = Structure.sym_id s (Fact.sym f) in
      let pins = List.sort_uniq compare (List.mapi (fun i x -> (i, x)) (Array.to_list (Fact.args f))) in
      let folded =
        Structure.fold_pin_buckets s
          (fun sym' pos' e' ids acc ->
            if Symbol.equal sym' sym && Intvec.to_list ids = [ 0 ] then (pos', e') :: acc
            else (-1, -1) :: acc)
          []
      in
      Structure.pin_count s sym pos e = 1
      && Intvec.to_list (Structure.ids_with_pin s sid pos e) = [ 0 ]
      && List.sort compare folded = pins)

let test_pin_key_range () =
  let raises what f =
    check (what ^ " raises Invalid_argument") true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  (* the widest packable pin *)
  let s = Structure.create () in
  let top = (1 lsl 32) - 1 in
  check "position 255 over element 2^32 - 1" true
    (Structure.add_fact s (wide_fact 255 top));
  check_int "its pin" 1 (Structure.pin_count s (Fact.sym (wide_fact 255 top)) 255 top);
  (* an unpackable pin is refused and leaves nothing behind *)
  let s, vs = path 2 in
  let digest = Structure.digest_hex s in
  List.iter
    (fun (what, f) -> raises ("adding a fact with " ^ what) (fun () -> Structure.add_fact s f))
    [
      ("element 2^32 + 1", Fact.app2 edge vs.(0) ((1 lsl 32) + vs.(1)));
      ("element -1", Fact.app2 edge vs.(0) (-1));
      ("position 256", wide_fact 256 0);
    ];
  check_int "size unchanged" 2 (Structure.size s);
  check "journal unchanged" true (Structure.digest_hex s = digest);
  let far = (1 lsl 32) + vs.(1) in
  check "no fact over 2^32 + 1" false (Structure.mem s (Fact.app2 edge vs.(0) far));
  check_int "its pin is empty, not element 1's" 0
    (Structure.pin_count s edge 1 far);
  check_int "element 1's pin still holds" 1 (Structure.pin_count s edge 1 vs.(1));
  check_int "an unpackable lookup finds the empty bucket" 0
    (Intvec.length (Structure.ids_with_pin s (Structure.sym_id s edge) 1 (-1)))

let () =
  Alcotest.run "relational"
    [
      ( "structure",
        [
          Alcotest.test_case "basics" `Quick test_structure_basics;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "copy is independent" `Quick test_copy_independent;
          Alcotest.test_case "filter and color restriction" `Quick test_filter_restrict;
          Alcotest.test_case "daltonisation" `Quick test_dalt;
          Alcotest.test_case "quotient" `Quick test_quotient;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "disjoint union shares constants" `Quick
            test_disjoint_union_shares_constants;
          Alcotest.test_case "disjoint union renaming order" `Quick
            test_disjoint_union_renaming;
        ] );
      ( "homomorphism",
        [
          Alcotest.test_case "path to cycle" `Quick test_hom_path_to_cycle;
          Alcotest.test_case "cycle divisibility" `Quick test_hom_cycle_divisibility;
          Alcotest.test_case "constants respected" `Quick test_hom_respects_constants;
          Alcotest.test_case "unary predicates" `Quick test_hom_unary;
          Alcotest.test_case "counting" `Quick test_hom_count;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            test_identity_hom_property;
            test_hom_into_superstructure_property;
            test_paint_roundtrip_property;
          ] );
      ( "keys",
        Alcotest.test_case "pin key range" `Quick test_pin_key_range
        :: List.map QCheck_alcotest.to_alcotest
             [ test_symbol_keys; test_fact_keys; test_pin_keys_roundtrip ] );
    ]
