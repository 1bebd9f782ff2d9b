(* Executable specification, over the public API.

   [Oracle.Audit.structure] as it stood before the audit moved to flat
   local ids: ground truth grouped into a [Map] of boxed (symbol,
   position, element) keys and hash tables of fact lists, buckets
   compared as [Fact.compare]-sorted lists.  Kept verbatim as the
   specification the rewrite is held to: it must report the same
   violations, in the same order.  The one deliberate difference is the
   rewrite's key-set check, which also flags a non-empty index bucket
   under a key no fact accounts for; this copy only visits the truth
   keys. *)

open Relational

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
  (* the facts grouped by symbol and by element (each element once per
     fact, however often it occurs in the fact) *)
  let sym_truth = Symbol.Tbl.create 16 in
  let elem_truth = Hashtbl.create (Int_set.cardinal elems) in
  let push tbl find replace k f =
    replace tbl k (f :: Option.value ~default:[] (find tbl k))
  in
  List.iter
    (fun f ->
      push sym_truth Symbol.Tbl.find_opt Symbol.Tbl.replace (Fact.sym f) f;
      List.iter
        (fun e -> push elem_truth Hashtbl.find_opt Hashtbl.replace e f)
        (List.sort_uniq Int.compare (Fact.elements f)))
    facts;
  let facts_of_sym sym =
    Option.value ~default:[] (Symbol.Tbl.find_opt sym_truth sym)
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
      let expected = facts_of_sym sym in
      let got = Structure.facts_with_sym d sym in
      if sorted_facts got <> sorted_facts expected then
        fail violations "symbol bucket %a: %d facts indexed, %d expected"
          Symbol.pp sym (List.length got) (List.length expected))
    (Structure.symbols d);
  (* symbols list covers exactly the symbols with facts *)
  let syms_with_facts =
    List.sort Symbol.compare
      (Symbol.Tbl.fold (fun sym _ acc -> sym :: acc) sym_truth [])
  in
  if List.sort Symbol.compare (Structure.symbols d) <> syms_with_facts then
    fail violations "symbols: %d listed, %d with facts"
      (List.length (Structure.symbols d))
      (List.length syms_with_facts);
  (* per-element buckets *)
  Int_set.iter
    (fun e ->
      let expected =
        Option.value ~default:[] (Hashtbl.find_opt elem_truth e)
      in
      let got = Structure.facts_with_elem d e in
      if sorted_facts got <> sorted_facts expected then
        fail violations "element bucket %d: %d facts indexed, %d expected" e
          (List.length got) (List.length expected))
    elems;
  (* the dense-id arena view agrees with the boxed facts.  With
     retractions the journal keeps dead entries: the id bound is the
     live count plus the retraction count, and dead ids are excluded
     from the bucket ground truth below.  The same scan records each
     fact's live ids. *)
  let nretr = Structure.retraction_count d in
  if Structure.nfacts d <> n + nretr then
    fail violations "nfacts=%d but %d facts enumerate (+%d retracted)"
      (Structure.nfacts d) n nretr;
  let live_ids = Fact.Tbl.create (Structure.nfacts d) in
  for id = 0 to Structure.nfacts d - 1 do
    if Structure.live_id d id then begin
      let f = Structure.id_fact d id in
      push live_ids Fact.Tbl.find_opt Fact.Tbl.replace f id;
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
  (* dense-id buckets are the id images of the ground-truth groups (live
     ids only: a resurrected fact's dead former id must not count) *)
  let ids_of fs =
    List.sort Int.compare
      (List.concat_map
         (fun f -> Option.value ~default:[] (Fact.Tbl.find_opt live_ids f))
         fs)
  in
  (* [facts_with_sym] is itself the image of [ids_with_sym], so the id
     bucket is held against the symbol's ground-truth group, as the pin
     buckets are *)
  List.iter
    (fun sym ->
      let sid = Structure.sym_id d sym in
      let got =
        List.sort Int.compare (Structure.bucket_ids d (Structure.ids_with_sym d sid))
      in
      if got <> ids_of (facts_of_sym sym) then
        fail violations "ids_with_sym %a disagrees with facts_with_sym"
          Symbol.pp sym)
    (Structure.symbols d);
  Key_map.iter
    (fun (sym, pos, e) expected ->
      let sid = Structure.sym_id d sym in
      let got =
        List.sort Int.compare
          (Structure.bucket_ids d (Structure.ids_with_pin d sid pos e))
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
