(* Ground-truth recomputation audits (see audit.mli).

   Style note: every check here is written against the plain
   enumerations — [Structure.facts] and the arena's [live_id] /
   [id_fact] scan — and never against the indices it is auditing.
   Redundancy is the point.

   The audit numbers its enumeration once: facts become the local ints
   [0, n), symbols local ids in their compare order, elements local ids
   in int order.  Every ground-truth grouping is then one sort of (key,
   member) int pairs — a counting sort per key digit, since every digit
   ranges over local ids — whose runs are the groups, members ascending
   and distinct.  A bucket under audit is read as local ints — one hash
   per boxed entry, one array read per arena id — and held against its
   group by stamping the group's members in a mark array, which is the
   sorted-array comparison without the sort.  The buckets an index holds
   under keys the truth lacks are found through its read-only folds
   (the key-set checks), which run only when the index's bucket count
   exceeds the truth keys it holds, so no check visits a key that has
   no fact. *)

open Relational

let fail violations fmt = Format.kasprintf (fun s -> violations := s :: !violations) fmt

module Int_set = Set.Make (Int)

(* --- local numbering and ground-truth groups ------------------------------ *)

(* Local ids for the ints of [vals] (repeats allowed), in int order:
   [(ids, find)] with [ids] the distinct values ascending and [find v]
   the local id of [v], or [-1].  Elements and vertices are allocated
   densely from 0, so ids spanning at most about four times their count
   go through a direct table: every structure and graph the oracle
   audits on seed 42 cases 0..599 does, and the sort alone made those
   audits 1.3x (structures) and 1.5x (graphs) slower, and the audit
   workload's p95 latency 1.17x higher (EXPERIMENTS.md E29).  Sparser
   ids are sorted and searched. *)
let number vals =
  let n = Array.length vals in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    if vals.(i) < !lo then lo := vals.(i);
    if vals.(i) > !hi then hi := vals.(i)
  done;
  let lo = !lo and hi = !hi in
  if n = 0 then ([||], fun _ -> -1)
  else if hi - lo >= 0 && hi - lo <= (4 * n) + 64 then begin
    let tbl = Array.make (hi - lo + 1) (-1) in
    for i = 0 to n - 1 do
      tbl.(vals.(i) - lo) <- 0
    done;
    let k = ref 0 in
    for i = 0 to hi - lo do
      if tbl.(i) = 0 then begin
        tbl.(i) <- !k;
        incr k
      end
    done;
    let ids = Array.make !k 0 in
    for i = 0 to hi - lo do
      if tbl.(i) >= 0 then ids.(tbl.(i)) <- i + lo
    done;
    (ids, fun v -> if v < lo || v > hi then -1 else tbl.(v - lo))
  end
  else begin
    let a = Array.copy vals in
    Array.stable_sort Int.compare a;
    let k = ref 0 in
    Array.iteri
      (fun i x ->
        if i = 0 || x <> a.(!k - 1) then begin
          a.(!k) <- x;
          incr k
        end)
      a;
    let ids = Array.sub a 0 !k in
    let find v =
      let lo = ref 0 and hi = ref !k in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if ids.(mid) < v then lo := mid + 1 else hi := mid
      done;
      if !lo < !k && ids.(!lo) = v then !lo else -1
    in
    (ids, find)
  end

(* A ground-truth grouping: (key, member) pairs sorted by key, then
   member, so each group is a run of one key with its members ascending
   and distinct. *)
type groups = { keys : int array; members : int array }

(* [group digits members] sorts the entries [i] by their key, whose
   digits [digits] lists most significant first as (range, digit array)
   pairs, members given in ascending order: one stable counting pass per
   digit, least significant first.  Each range counts things the audit
   numbered, so a pass is O(entries + range); the key is the digits read
   as a mixed-radix number. *)
let group digits members =
  let len = Array.length members in
  let pass order (range, digit) =
    let at = Array.make (range + 1) 0 in
    for i = 0 to len - 1 do
      let d = digit.(order.(i)) + 1 in
      at.(d) <- at.(d) + 1
    done;
    for d = 1 to range do
      at.(d) <- at.(d) + at.(d - 1)
    done;
    let sorted = Array.make len 0 in
    for i = 0 to len - 1 do
      let d = digit.(order.(i)) in
      sorted.(at.(d)) <- order.(i);
      at.(d) <- at.(d) + 1
    done;
    sorted
  in
  let order = List.fold_left pass (Array.init len Fun.id) (List.rev digits) in
  let keys = Array.make len 0 in
  List.iter
    (fun (range, digit) ->
      for i = 0 to len - 1 do
        keys.(i) <- (keys.(i) * range) + digit.(order.(i))
      done)
    digits;
  { keys; members = Array.map (fun i -> members.(i)) order }

let key g i = g.keys.(i)
let member g i = g.members.(i)

(* [iter_groups g f] calls [f key lo hi] on each run [lo, hi) of [g], in
   key order. *)
let iter_groups g f =
  let n = Array.length g.keys in
  let i = ref 0 in
  while !i < n do
    let k = key g !i in
    let j = ref (!i + 1) in
    while !j < n && key g !j = k do
      incr j
    done;
    f k !i !j;
    i := !j
  done

(* Does [g] have a group under key [k]? *)
let has_key g k =
  let lo = ref 0 and hi = ref (Array.length g.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if key g mid < k then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length g.keys && key g !lo = k

(* [starts g nkeys]: the run of key [k] is [starts.(k), starts.(k + 1)),
   empty for a key without members. *)
let starts g nkeys =
  let s = Array.make (nkeys + 1) 0 in
  Array.iteri (fun i k -> s.(k + 1) <- i + 1) g.keys;
  for k = 1 to nkeys do
    s.(k) <- Int.max s.(k) s.(k - 1)
  done;
  s

(* Bucket against group: stamp the run's members, then let every bucket
   entry take one stamped member.  Equal lengths and no failed take is
   equality of the sorted arrays, since a run's members are distinct;
   an entry the enumeration lacks reads as [-1] and takes nothing. *)
type marks = { mark : int array; mutable stamp : int }

let marks size = { mark = Array.make size 0; stamp = 0 }

let stamp mk g lo hi =
  mk.stamp <- mk.stamp + 2;
  for i = lo to hi - 1 do
    mk.mark.(member g i) <- mk.stamp
  done

let take mk x =
  x >= 0
  && x < Array.length mk.mark
  && mk.mark.(x) = mk.stamp
  && begin
       mk.mark.(x) <- mk.stamp + 1;
       true
     end

(* Is the boxed bucket [got] the run [lo, hi) of [g]? *)
let list_is mk local g lo hi got =
  List.compare_length_with got (hi - lo) = 0
  && begin
       stamp mk g lo hi;
       List.for_all (fun x -> take mk (local x)) got
     end

(* Stable-sort tagged violations and emit them in that order. *)
let emit_sorted violations cmp tagged =
  List.iter
    (fun (_, msg) -> violations := msg :: !violations)
    (List.stable_sort (fun (a, _) (b, _) -> cmp a b) (List.rev tagged))

(* --- structures --------------------------------------------------------- *)

let audit_structure ~provenance d =
  let violations = ref [] in
  let facts = Array.of_list (Structure.facts d) in
  let n = Array.length facts in
  (* size / card coherence *)
  if Structure.size d <> n then
    fail violations "size=%d but %d facts enumerate" (Structure.size d) n;
  (* local fact ids: positions in the enumeration *)
  let local_tbl = Fact.Tbl.create (max 16 n) in
  Array.iteri (fun i f -> Fact.Tbl.add local_tbl f i) facts;
  let local f = try Fact.Tbl.find local_tbl f with Not_found -> -1 in
  (* local symbol ids, renumbered into [Symbol.compare] order *)
  let sym_tbl = Symbol.Tbl.create 8 in
  let fsym =
    Array.map
      (fun f ->
        let s = Fact.sym f in
        match Symbol.Tbl.find sym_tbl s with
        | i -> i
        | exception Not_found ->
            let i = Symbol.Tbl.length sym_tbl in
            Symbol.Tbl.add sym_tbl s i;
            i)
      facts
  in
  let nsym = Symbol.Tbl.length sym_tbl in
  let syms = Array.make nsym (Symbol.make "" 0) in
  Symbol.Tbl.iter (fun s i -> syms.(i) <- s) sym_tbl;
  Array.stable_sort Symbol.compare syms;
  let renum = Array.make nsym 0 in
  Array.iteri
    (fun r s ->
      renum.(Symbol.Tbl.find sym_tbl s) <- r;
      Symbol.Tbl.replace sym_tbl s r)
    syms;
  Array.iteri (fun i s -> fsym.(i) <- renum.(s)) fsym;
  let local_sym s = try Symbol.Tbl.find sym_tbl s with Not_found -> -1 in
  (* local element ids over the registered elements and every argument;
     fact [f]'s arguments sit at [off.(f) ..] of the flat [args], and
     their local ids in [largs] *)
  let off = Array.make (n + 1) 0 in
  Array.iteri
    (fun i f -> off.(i + 1) <- off.(i) + Array.length (Fact.args f))
    facts;
  let nargs = off.(n) in
  let args = Array.make nargs 0 in
  Array.iteri
    (fun i f -> Array.blit (Fact.args f) 0 args off.(i) (off.(i + 1) - off.(i)))
    facts;
  let registered = Array.of_list (Structure.elems d) in
  let elems, local_elem = number (Array.append registered args) in
  let nev = Array.length elems in
  let largs = Array.map local_elem args in
  let is_reg = Array.make nev false in
  Array.iter (fun e -> is_reg.(local_elem e) <- true) registered;
  let nreg = Array.fold_left (fun k b -> if b then k + 1 else k) 0 is_reg in
  if Structure.card d <> nreg then
    fail violations "card=%d but %d elements enumerate" (Structure.card d) nreg;
  Array.iteri
    (fun i f ->
      for slot = off.(i) to off.(i + 1) - 1 do
        if not is_reg.(largs.(slot)) then
          fail violations "fact %a uses unregistered element %d" (Fact.pp ())
            f elems.(largs.(slot))
      done)
    facts;
  (* constants resolve to registered elements and back *)
  List.iter
    (fun c ->
      match Structure.constant_opt d c with
      | None -> fail violations "constant %s lost its element" c
      | Some e ->
          let le = local_elem e in
          if le < 0 || not is_reg.(le) then
            fail violations "constant %s -> unregistered element %d" c e;
          if Structure.constant_name d e <> Some c then
            fail violations "constant %s -> %d does not resolve back" c e)
    (Structure.constants d);
  (* ground truth, one sort each: the pin groups, keyed (symbol,
     position, element) in that order; the symbol groups; the element
     groups (each element once per fact, however often it occurs) *)
  let maxar = Array.fold_left (fun k f -> Int.max k (Array.length (Fact.args f))) 1 facts in
  let owner = Array.make nargs 0 in
  for i = 0 to n - 1 do
    Array.fill owner off.(i) (off.(i + 1) - off.(i)) i
  done;
  let sym_pos =
    Array.init nargs (fun slot ->
        (fsym.(owner.(slot)) * maxar) + slot - off.(owner.(slot)))
  in
  let pins = group [ (nsym * maxar, sym_pos); (nev, largs) ] owner in
  let pin_key k = (k / nev / maxar, k / nev mod maxar, elems.(k mod nev)) in
  let by_sym = group [ (nsym, fsym) ] (Array.init n Fun.id) in
  let sym_starts = starts by_sym nsym in
  (* a slot repeating an earlier slot's element in the same fact is not
     the element's first occurrence there *)
  let by_elem =
    let first slot =
      let rec go j = j = slot || (largs.(j) <> largs.(slot) && go (j + 1)) in
      go off.(owner.(slot))
    in
    let k = ref 0 in
    let firsts = Array.make nargs 0 in
    for slot = 0 to nargs - 1 do
      if first slot then begin
        firsts.(!k) <- slot;
        incr k
      end
    done;
    let firsts = Array.sub firsts 0 !k in
    group
      [ (nev, Array.map (fun slot -> largs.(slot)) firsts) ]
      (Array.map (fun slot -> owner.(slot)) firsts)
  in
  let elem_starts = starts by_elem nev in
  let mk = marks n in
  (* pin buckets, boxed, and their O(1) counts; [held] counts the truth
     keys whose bucket is non-empty *)
  let held = ref 0 in
  iter_groups pins (fun k lo hi ->
      let ls, pos, e = pin_key k in
      let sym = syms.(ls) in
      let got = Structure.facts_with_pin d sym pos e in
      if not (list_is mk local pins lo hi got) then
        fail violations "pin bucket (%a,%d,%d): %d facts indexed, %d expected"
          Symbol.pp sym pos e (List.length got) (hi - lo);
      let cnt = Structure.pin_count d sym pos e in
      if cnt > 0 then incr held;
      if cnt <> hi - lo then
        fail violations "pin count (%a,%d,%d)=%d, expected %d" Symbol.pp sym pos
          e cnt (hi - lo));
  (* key-set check: every non-empty pin bucket the index holds is a
     truth key.  The bucket count settles it when every bucket is a held
     key; else the fold names the strays. *)
  if Structure.pin_buckets d > !held then begin
    let is_key sym pos e =
      let ls = local_sym sym and le = local_elem e in
      ls >= 0 && le >= 0 && pos >= 0 && pos < maxar
      && has_key pins ((((ls * maxar) + pos) * nev) + le)
    in
    let strays =
      Structure.fold_pin_buckets d
        (fun sym pos e ids acc ->
          if Structure.bucket_length d ids > 0 && not (is_key sym pos e) then
            ( (sym, pos, e),
              Format.asprintf "pin bucket (%a,%d,%d): %d facts indexed, 0 expected"
                Symbol.pp sym pos e (Structure.bucket_length d ids) )
            :: acc
          else acc)
        []
    in
    emit_sorted violations
      (fun (s1, p1, e1) (s2, p2, e2) ->
        let c = Symbol.compare s1 s2 in
        if c <> 0 then c
        else
          let c = Int.compare p1 p2 in
          if c <> 0 then c else Int.compare e1 e2)
      strays
  end;
  (* per-symbol buckets, then the symbols list as a key set: exactly the
     symbols with facts *)
  let listed = Structure.symbols d in
  let listed_local = List.map local_sym listed in
  let sym_run ls = if ls < 0 then (0, 0) else (sym_starts.(ls), sym_starts.(ls + 1)) in
  List.iter2
    (fun sym ls ->
      let lo, hi = sym_run ls in
      let got = Structure.facts_with_sym d sym in
      if not (list_is mk local by_sym lo hi got) then
        fail violations "symbol bucket %a: %d facts indexed, %d expected"
          Symbol.pp sym (List.length got) (hi - lo))
    listed listed_local;
  (let l = Array.of_list listed_local in
   Array.sort Int.compare l;
   if l <> Array.init nsym Fun.id then
     fail violations "symbols: %d listed, %d with facts" (Array.length l) nsym);
  (* per-element buckets, over the registered elements in order *)
  Array.iteri
    (fun le r ->
      if r then begin
        let lo = elem_starts.(le) and hi = elem_starts.(le + 1) in
        let got = Structure.facts_with_elem d elems.(le) in
        if not (list_is mk local by_elem lo hi got) then
          fail violations "element bucket %d: %d facts indexed, %d expected"
            elems.(le) (List.length got) (hi - lo)
      end)
    is_reg;
  (* the dense-id arena view agrees with the boxed facts.  With
     retractions the journal keeps dead entries: the id bound is the
     live count plus the retraction count, and dead ids are excluded
     from the bucket ground truth below.  The same scan maps each live
     id to its fact's local id: [loc] is the live-id group of the
     truth.  A fact's second live id maps past [n] (into [extra]), so
     the mapping stays one-to-one. *)
  let nretr = Structure.retraction_count d in
  let nids = Structure.nfacts d in
  if nids <> n + nretr then
    fail violations "nfacts=%d but %d facts enumerate (+%d retracted)" nids n
      nretr;
  let sids = Array.map (Structure.sym_id d) syms in
  let loc = Array.make nids (-1) in
  let nlive = Array.make n 0 and extra = ref [] and nextra = ref 0 in
  for id = 0 to nids - 1 do
    if Structure.live_id d id then begin
      let f = Structure.id_fact d id in
      let lf = local f in
      if lf >= 0 then begin
        if nlive.(lf) = 0 then loc.(id) <- lf
        else begin
          loc.(id) <- n + !nextra;
          extra := (lf, loc.(id)) :: !extra;
          incr nextra
        end;
        nlive.(lf) <- nlive.(lf) + 1
      end;
      let sym = Fact.sym f in
      let sid = if lf >= 0 then sids.(fsym.(lf)) else Structure.sym_id d sym in
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
      if id < 0 || id >= nids then
        fail violations "retracted id %d outside the journal" id
      else if Structure.live_id d id then
        fail violations "retracted id %d still live" id
      else if not (Fact.equal (Structure.id_fact d id) f) then
        fail violations "retracted id %d holds %a, journal says %a" id
          (Fact.pp ()) (Structure.id_fact d id) (Fact.pp ()) f)
    retr;
  (* dense-id buckets are the live-id images of the ground-truth groups
     (a resurrected fact's dead former id must not count).  Each fact
     has one live id unless the arena itself is broken; then a group's
     image is spelled out as a one-group grouping of its own. *)
  let one_to_one = !nextra = 0 && Array.for_all (fun k -> k = 1) nlive in
  let mk = if one_to_one then mk else marks (n + !nextra) in
  let ids_are g lo hi ids =
    let g, lo, hi =
      if one_to_one then (g, lo, hi)
      else begin
        let image = ref [] in
        for i = lo to hi - 1 do
          let f = member g i in
          if nlive.(f) > 0 then image := f :: !image;
          List.iter (fun (f', x) -> if f' = f then image := x :: !image) !extra
        done;
        let image = Array.of_list !image in
        ({ keys = Array.make (Array.length image) 0; members = image }, 0,
          Array.length image)
      end
    in
    Structure.bucket_length d ids = hi - lo
    && begin
         stamp mk g lo hi;
         Structure.fold_bucket d
           (fun ok id -> ok && take mk (if id >= 0 && id < nids then loc.(id) else -1))
           true ids
       end
  in
  (* [facts_with_sym] is itself the image of [ids_with_sym], so the id
     bucket is held against the symbol's ground-truth group, as the pin
     buckets are *)
  List.iter2
    (fun sym ls ->
      let lo, hi = sym_run ls in
      let sid = if ls < 0 then Structure.sym_id d sym else sids.(ls) in
      if not (ids_are by_sym lo hi (Structure.ids_with_sym d sid)) then
        fail violations "ids_with_sym %a disagrees with facts_with_sym"
          Symbol.pp sym)
    listed listed_local;
  iter_groups pins (fun k lo hi ->
      let ls, pos, e = pin_key k in
      let sid = sids.(ls) in
      if not (ids_are pins lo hi (Structure.ids_with_pin d sid pos e)) then
        fail violations "ids_with_pin (%a,%d,%d) disagrees with ground truth"
          Symbol.pp syms.(ls) pos e;
      if Structure.pin_count_id d sid pos e <> hi - lo then
        fail violations "pin_count_id (%a,%d,%d)=%d, expected %d" Symbol.pp
          syms.(ls) pos e
          (Structure.pin_count_id d sid pos e)
          (hi - lo));
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
  (* the journal group: each fact exactly once.  A repeat of a fact the
     enumeration lacks is caught by a side table. *)
  let journal = Structure.delta_since d 0 in
  let len = List.length journal in
  if len <> n then
    fail violations "journal has %d entries for %d facts" len n;
  let seen = Array.make n false and strangers = lazy (Fact.Tbl.create 1) in
  let repeats = ref [] and unknown = ref false in
  List.iter
    (fun f ->
      let lf = local f in
      let again =
        if lf >= 0 then seen.(lf) || (seen.(lf) <- true; false)
        else begin
          unknown := true;
          let strangers = Lazy.force strangers in
          Fact.Tbl.mem strangers f || (Fact.Tbl.replace strangers f (); false)
        end
      in
      if again then repeats := f :: !repeats)
    journal;
  if len <> n || !unknown || !repeats <> [] then
    fail violations "journal is not a permutation of the fact set";
  List.iter
    (fun f -> fail violations "journal repeats fact %a" (Fact.pp ()) f)
    (List.rev !repeats);
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
            last := Int.max !last s;
            Array.iter
              (fun e ->
                match Structure.elem_stage d e with
                | None -> fail violations "element %d has no birth stage" e
                | Some b ->
                    if b > s then
                      fail violations
                        "fact %a at stage %d mentions element %d born later \
                         (stage %d)"
                        (Fact.pp ()) f s e b)
              (Fact.args f))
      journal
  end;
  List.rev !violations

let structure ?(provenance = false) d =
  Obs.Trace.with_span "oracle.audit" (fun () -> audit_structure ~provenance d)

(* --- independent core-minimality witness ---------------------------------- *)

let fold_witness q =
  let canon, elem = Cq.Query.canonical q in
  let init =
    List.fold_left
      (fun acc x ->
        match elem x with Some e -> Term.Var_map.add x e acc | None -> acc)
      Term.Var_map.empty (Cq.Query.free q)
  in
  let n = Structure.card canon in
  let fixed =
    Int_set.of_list
      (List.filter_map (Structure.constant_opt canon) (Structure.constants canon))
  in
  let witness = ref None in
  (try
     Hom.iter_all ~init canon (Cq.Query.body q) (fun binding ->
         let image =
           Term.Var_map.fold (fun _ e acc -> Int_set.add e acc) binding fixed
         in
         if Int_set.cardinal image < n then begin
           witness := Some binding;
           raise Exit
         end)
   with Exit -> ());
  !witness
