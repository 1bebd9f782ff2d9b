(* Finite relational structures (Section II.A).

   Elements are integers allocated by the structure.  Constants of the
   signature are interpreted as dedicated elements, shared by name: a
   homomorphism must send the interpretation of [c] in one structure to the
   interpretation of [c] in the other.

   The structure is mutable — the chase (Section II.C) extends a structure
   in place — and carries provenance: each fact and element remembers the
   chase stage at which it appeared, which Section IX's "late fragments"
   [chase^L] need. *)

(* The (symbol id, argument position, element) fact index: the unit of
   selectivity for the homomorphism engine.  Buckets are [Intvec.t]s of
   dense fact ids in insertion order, so their length is a field read and
   scans are cache-linear.

   A pin key is packed into one int — the element in bits 30–61, the
   symbol id in bits 8–29, the position in bits 0–7 — so a probe
   allocates nothing.  Inserting a key outside that range raises
   [Invalid_argument] instead of colliding with another; a lookup of one
   finds the empty bucket, since no such key was ever inserted.  The
   table hashes the packed key with an xmx avalanche, so nearby keys
   spread over the whole table. *)
let packable sid pos e = sid lsr 22 = 0 && pos lsr 8 = 0 && e lsr 32 = 0
let pack sid pos e = (e lsl 30) lor (sid lsl 8) lor pos

module Pin_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash k =
    let h = (k lxor (k lsr 33)) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)

let empty_ids = Intvec.create ~capacity:1 ()

(* The stage of a retracted arena id: no chase stage is this low. *)
let dead_stage = min_int

(* A registered element: its birth stage and the ids of the live facts
   over it, once each. *)
type elem = { birth : int; efacts : Intvec.t }

(* One fact store: [ids] maps each live fact to its arena id, and the
   arena id indexes everything else — its stage in [stages], its
   symbol and arguments in the arena, its membership in the buckets. *)
type t = {
  mutable next : int;                        (* next fresh element id *)
  consts : (string, int) Hashtbl.t;          (* constant name -> element *)
  const_of : (int, string) Hashtbl.t;        (* element -> constant name *)
  names : (int, string) Hashtbl.t;           (* optional debug labels *)
  ids : int Fact.Tbl.t;                      (* live fact -> arena id *)
  stages : Intvec.t;                         (* arena id -> stage, [dead_stage] once retracted *)
  arena : Fact_arena.t;                      (* interned flat fact store *)
  mutable by_sym : Intvec.t array;           (* sym id -> fact ids *)
  by_pin : Intvec.t Pin_tbl.t;               (* packed pin key -> fact ids *)
  dom : (int, elem) Hashtbl.t;               (* registered elements *)
  mutable retracted : (int * Fact.t) list;   (* retraction journal, newest first *)
  mutable nretracted : int;
  mutable stage : int;                       (* current provenance stage *)
  dg : Digest128.t;                          (* incremental journal digest *)
  mutable dg_wm : int;                       (* journal ids fed so far *)
  mutable dg_valid : bool;                   (* false: refeed from id 0 *)
}

let create () =
  {
    next = 0;
    consts = Hashtbl.create 8;
    const_of = Hashtbl.create 8;
    names = Hashtbl.create 8;
    ids = Fact.Tbl.create 16;
    stages = Intvec.create ~capacity:16 ();
    arena = Fact_arena.create ();
    by_sym = [||];
    by_pin = Pin_tbl.create 16;
    dom = Hashtbl.create 16;
    retracted = [];
    nretracted = 0;
    stage = 0;
    dg = Digest128.create ();
    dg_wm = 0;
    dg_valid = true;
  }

let set_stage t s = t.stage <- s

let new_elem birth = { birth; efacts = Intvec.create () }

(* [e]'s entry, registering it at the current stage if it is new. *)
let elem_entry t e =
  match Hashtbl.find t.dom e with
  | r -> r
  | exception Not_found ->
      let r = new_elem t.stage in
      Hashtbl.add t.dom e r;
      r

let register_elem t e = ignore (elem_entry t e)

let elem_bound t = t.next

(* Import an externally-allocated element id, keeping [fresh] clear of it. *)
let reserve t e =
  register_elem t e;
  if e >= t.next then t.next <- e + 1

let fresh ?name t =
  let e = t.next in
  t.next <- t.next + 1;
  register_elem t e;
  (match name with Some n -> Hashtbl.replace t.names e n | None -> ());
  e

let constant t c =
  match Hashtbl.find_opt t.consts c with
  | Some e -> e
  | None ->
      let e = fresh ~name:c t in
      Hashtbl.replace t.consts c e;
      Hashtbl.replace t.const_of e c;
      e

let constant_opt t c = Hashtbl.find_opt t.consts c
let constant_name t e = Hashtbl.find_opt t.const_of e
let is_constant t e = Hashtbl.mem t.const_of e

let name t e =
  match Hashtbl.find_opt t.names e with
  | Some n -> n
  | None -> Printf.sprintf "e%d" e

let set_name t e n = Hashtbl.replace t.names e n

let mem t f = Fact.Tbl.mem t.ids f

(* Does [args.(i)] occur at an earlier position?  Elements index each
   fact once, at their first occurrence. *)
let repeated args i =
  let e = args.(i) in
  let rec go j = j < i && (args.(j) = e || go (j + 1)) in
  go 0

let add_fact t f =
  if Fact.Tbl.mem t.ids f then false
  else begin
    (* the arena assigns the dense id; its id order IS the journal.  A
       re-added fact (inserted after a retraction) gets a *new* id: the
       journal is append-only, so the resurrection lands in the current
       delta and semi-naive discovery sees it like any other new fact.
       The pin keys are checked and the fact appended before anything
       is indexed: an unpackable key, or an ["arena.grow"] fault raised
       by the append, leaves no trace of the fact behind (at most its
       symbol interned, which no reader sees without facts). *)
    let args = Fact.args f in
    let sid = Fact_arena.intern t.arena (Fact.sym f) in
    Array.iteri
      (fun i e ->
        if not (packable sid i e) then
          invalid_arg "Structure.add_fact: unpackable pin")
      args;
    let id = Fact_arena.append t.arena f sid in
    Intvec.push t.stages t.stage;
    Fact.Tbl.add t.ids f id;
    (* every slot owns its vector: a shared filler, tested by physical
       equality, would come back from a Marshal round trip as one vector
       shared by every unused slot *)
    let n = Array.length t.by_sym in
    if sid >= n then
      t.by_sym <-
        Array.init (2 * (sid + 1)) (fun i ->
            if i < n then t.by_sym.(i) else Intvec.create ());
    Intvec.push t.by_sym.(sid) id;
    Array.iteri
      (fun i e ->
        let r = elem_entry t e in
        let key = pack sid i e in
        let b =
          match Pin_tbl.find t.by_pin key with
          | b -> b
          | exception Not_found ->
              let b = Intvec.create () in
              Pin_tbl.add t.by_pin key b;
              b
        in
        Intvec.push b id;
        if not (repeated args i) then Intvec.push r.efacts id)
      args;
    true
  end

(* Retract a live fact: physical, order-preserving removal from every
   index the homomorphism engine reads.  The arena keeps the dead entry —
   the journal is append-only and fact ids are never reused — but the id
   leaves its [by_sym], [by_pin] and element buckets (a sorted shift,
   so bucket order, [lower_bound] tails and newest-first enumeration are
   exactly what a structure that never held the fact would present) and
   the fact leaves [ids].  The retraction is recorded in its own
   journal, newest first.

   Elements are reference-counted by live facts — the length of their
   element bucket: a non-constant element whose count reaches zero and
   whose birth stage is past the base stage (a chase-created null)
   leaves the domain — re-adding a fact over it later re-registers it.
   Base-stage elements stay: they belong to the instance, facts or not. *)
let retract_fact t f =
  match Fact.Tbl.find t.ids f with
  | exception Not_found -> false
  | id ->
      Fact.Tbl.remove t.ids f;
      (* A retraction below the digest watermark falsifies the fed prefix;
         the next digest refeeds the whole journal (still streamed, no
         intermediate string).  At or above the watermark the entry was
         never fed — skipping dead ids at feed time suffices. *)
      if id < t.dg_wm then t.dg_valid <- false;
      Intvec.set t.stages id dead_stage;
      t.retracted <- (id, f) :: t.retracted;
      t.nretracted <- t.nretracted + 1;
      let sid = Fact_arena.sym t.arena id in
      ignore (Intvec.remove_sorted t.by_sym.(sid) id);
      let args = Fact.args f in
      Array.iteri
        (fun i e ->
          (match Pin_tbl.find t.by_pin (pack sid i e) with
          | b -> ignore (Intvec.remove_sorted b id)
          | exception Not_found -> ());
          if not (repeated args i) then
            match Hashtbl.find t.dom e with
            | exception Not_found -> ()
            | r ->
                ignore (Intvec.remove_sorted r.efacts id);
                if
                  Intvec.length r.efacts = 0
                  && (not (Hashtbl.mem t.const_of e))
                  && r.birth > 0
                then Hashtbl.remove t.dom e)
        args;
      true

let live_id t id = Intvec.get t.stages id <> dead_stage
let retraction_count t = t.nretracted

(* The retraction journal, oldest first: (arena id, fact) pairs. *)
let retractions t = List.rev t.retracted

let add t sym args = ignore (add_fact t (Fact.make sym args))
let add2 t sym a b = ignore (add_fact t (Fact.app2 sym a b))

let fact_id t f = Fact.Tbl.find_opt t.ids f

let fact_stage t f =
  match Fact.Tbl.find t.ids f with
  | id -> Some (Intvec.unsafe_get t.stages id)
  | exception Not_found -> None

let elem_stage t e =
  match Hashtbl.find t.dom e with
  | r -> Some r.birth
  | exception Not_found -> None

let card t = Hashtbl.length t.dom
let size t = Fact.Tbl.length t.ids

(* Live facts in journal order (ascending arena id), with their stage:
   an order that no hash function or table size can move. *)
let iter_staged t f =
  for id = 0 to Fact_arena.n_facts t.arena - 1 do
    let s = Intvec.unsafe_get t.stages id in
    if s <> dead_stage then f (Fact_arena.fact t.arena id) s
  done

let iter_facts t f = iter_staged t (fun fact _ -> f fact)

let fold_facts t f acc =
  let acc = ref acc in
  iter_facts t (fun fact -> acc := f fact !acc);
  !acc

let facts t = fold_facts t (fun f acc -> f :: acc) []

(* Ascending ids: [union_into]'s renaming and [Hom.between]'s default
   image follow this order, so no table size may move it. *)
let elems t = List.sort Int.compare (Hashtbl.fold (fun e _ acc -> e :: acc) t.dom [])
let iter_elems t f = List.iter f (elems t)

(* {2 The dense-id hot-path view}

   The homomorphism evaluator works on fact ids, interned symbol ids and
   the flat argument arena — never on boxed [Fact.t]s.  Buckets are
   returned as shared [Intvec.t]s; callers must not mutate them. *)

(* Dense-id bound: every live id is below this.  With retractions the
   arena length and the live count diverge; the hot path iterates ids via
   the buckets (which hold live ids only), so the bound is the arena's. *)
let nfacts t = Fact_arena.n_facts t.arena

(* The interned id of [sym], or [-1] when the structure has no fact with
   it (an un-interned symbol has an empty pool by construction). *)
let sym_id t sym = Fact_arena.find_sym t.arena sym

let id_fact t id = Fact_arena.fact t.arena id
let id_sym t id = Fact_arena.sym t.arena id
let sym_of_id t sid = Fact_arena.sym_obj t.arena sid
let id_arg t id pos = Fact_arena.arg t.arena id pos

(* Number of interned symbol ids: every [id_sym] is below this, so it
   sizes dense sym-id-indexed tables (the chase's per-stage delta index). *)
let n_sym_ids t = Fact_arena.n_syms t.arena

let ids_with_sym t sid =
  if sid < 0 || sid >= Array.length t.by_sym then empty_ids else t.by_sym.(sid)

let ids_with_pin t sid pos e =
  if not (packable sid pos e) then empty_ids
  else
    match Pin_tbl.find t.by_pin (pack sid pos e) with
    | b -> b
    | exception Not_found -> empty_ids

let pin_count_id t sid pos e = Intvec.length (ids_with_pin t sid pos e)

let ids_with_elem t e =
  match Hashtbl.find t.dom e with
  | r -> r.efacts
  | exception Not_found -> empty_ids

(* The pin index as it stands, buckets a retraction emptied included:
   what an audit holds against its recomputed truth. *)
let pin_buckets t = Pin_tbl.length t.by_pin

let fold_pin_buckets t f acc =
  Pin_tbl.fold
    (fun k ids acc ->
      let sym = Fact_arena.sym_obj t.arena ((k lsr 8) land 0x3FFFFF) in
      f sym (k land 0xFF) (k lsr 30) ids acc)
    t.by_pin acc

(* {2 The boxed list view, derived from the id view} *)

(* Newest-first, the order the cons-built buckets used to present. *)
let facts_of_ids t ids =
  Intvec.fold_left (fun acc id -> id_fact t id :: acc) [] ids

let facts_with_sym t sym = facts_of_ids t (ids_with_sym t (sym_id t sym))

let facts_with_elem t e = facts_of_ids t (ids_with_elem t e)

let facts_with_pin t sym pos e =
  let sid = sym_id t sym in
  if sid < 0 then [] else facts_of_ids t (ids_with_pin t sid pos e)

let pin_count t sym pos e =
  let sid = sym_id t sym in
  if sid < 0 then 0 else pin_count_id t sid pos e

(* The delta journal: the arena's id order is insertion order and the
   arena length is the journal length, so a watermark is the journal
   length at some past moment and a delta is an id interval.  Retraction
   never rewrites the journal — dead ids simply stop being enumerated —
   so watermarks taken before an edit stay valid across it. *)
let watermark t = Fact_arena.n_facts t.arena

let delta_since t wm =
  let rec go id acc =
    if id < wm then acc
    else
      go (id - 1) (if live_id t id then id_fact t id :: acc else acc)
  in
  go (Fact_arena.n_facts t.arena - 1) []

(* Delta as an id interval [wm, journal length): what the sharded
   parallel scan partitions.  Dead ids inside the interval are skipped by
   the bucket-driven scans (a dead id is in no bucket); raw-range
   consumers must check {!live_id}. *)
let delta_ids t wm = (wm, Fact_arena.n_facts t.arena)

(* {2 Incremental journal digest}

   The canonical digest of the structure's build history: the live facts
   in journal order, plus the element count.  Symbols are fed by content
   (name, color, arity) — never by interned id, which depends on the
   order symbols were first seen and so differs between an incremental
   run and a from-scratch one — while elements are fed by id, because
   fresh-element identity is exactly what the bit-identity witness is
   meant to observe.

   The feed is lazy and incremental: [digest_hex] feeds only the journal
   suffix since the last call.  The split points always fall between
   facts, so the streamed state is identical to a single from-scratch
   feed (see {!Digest128}).  A retraction below the fed watermark resets
   the state and refeeds — still streaming, no O(journal) string. *)

let feed_fact dg f =
  let sym = Fact.sym f in
  Digest128.feed_string dg (Symbol.name sym);
  Digest128.feed_int dg
    (match Symbol.color sym with
    | None -> 0
    | Some Symbol.Green -> 1
    | Some Symbol.Red -> 2);
  let args = Fact.args f in
  Digest128.feed_int dg (Array.length args);
  Array.iter (fun e -> Digest128.feed_int dg e) args

let digest_hex t =
  if not t.dg_valid then begin
    Digest128.reset t.dg;
    t.dg_wm <- 0;
    t.dg_valid <- true
  end;
  let n = Fact_arena.n_facts t.arena in
  for id = t.dg_wm to n - 1 do
    if live_id t id then feed_fact t.dg (id_fact t id)
  done;
  t.dg_wm <- n;
  Digest128.hex ~salt:[ card t ] t.dg

let symbols t =
  let acc = ref [] in
  for sid = Fact_arena.n_syms t.arena - 1 downto 0 do
    if Intvec.length (ids_with_sym t sid) > 0 then
      acc := Fact_arena.sym_obj t.arena sid :: !acc
  done;
  !acc

let constants t = Hashtbl.fold (fun c _ acc -> c :: acc) t.consts []

(* Add [f] as born at stage [s]. *)
let add_staged u f s =
  let saved = u.stage in
  u.stage <- s;
  ignore (add_fact u f);
  u.stage <- saved

(* [like t] is an empty structure sharing [t]'s constants (same element
   ids) and element allocator position, so facts built from [t]'s elements
   can be added to it directly. *)
let like t =
  let u = create () in
  u.next <- t.next;
  Hashtbl.iter
    (fun c e ->
      Hashtbl.replace u.consts c e;
      Hashtbl.replace u.const_of e c;
      Hashtbl.replace u.dom e (new_elem 0))
    t.consts;
  u

(* [like t] with [t]'s element names: the start of every derived
   structure below. *)
let like_named t =
  let u = like t in
  Hashtbl.iter (fun e n -> Hashtbl.replace u.names e n) t.names;
  u

(* Deep copy: the copy allocates elements with the same identifiers and
   shares nothing mutable with the original. *)
let copy t =
  let u = like_named t in
  Hashtbl.iter (fun e r -> Hashtbl.replace u.dom e (new_elem r.birth)) t.dom;
  u.stage <- t.stage;
  iter_staged t (add_staged u);
  u

(* [filter keep t] is the substructure of [t] containing the facts
   satisfying [keep].  Constants survive; elements only appearing in
   dropped facts are dropped (unless constants). *)
let filter keep t =
  let u = like_named t in
  iter_staged t (fun f s -> if keep f then add_staged u f s);
  u

(* Color restriction D|G / D|R and daltonisation (Section IV.A). *)
let restrict_color c t = filter (fun f -> Fact.color f = Some c) t

let map_facts f t =
  let u = like_named t in
  iter_staged t (fun fact s -> add_staged u (f fact) s);
  u

let dalt t = map_facts Fact.dalt t
let paint c t = map_facts (Fact.paint c) t

(* [quotient f t] renames every element [e] to [f e], merging elements that
   share an image.  Constants must be fixed points of [f]. *)
let quotient f t =
  Hashtbl.iter
    (fun _ e ->
      if f e <> e then invalid_arg "Structure.quotient: constant not fixed")
    t.consts;
  let u = like t in
  iter_facts t (fun fact -> ignore (add_fact u (Fact.map_elements f fact)));
  u

(* [union_into ~into src] adds every fact of [src] to [into], identifying
   constants by name and renaming the remaining elements of [src], in
   ascending id order, to fresh elements of [into].  Returns the renaming
   used. *)
let union_into ~into src =
  let map = Hashtbl.create 64 in
  let rename e =
    match Hashtbl.find_opt map e with
    | Some e' -> e'
    | None ->
        let e' =
          match constant_name src e with
          | Some c -> constant into c
          | None -> fresh ?name:(Hashtbl.find_opt src.names e) into
        in
        Hashtbl.replace map e e';
        e'
  in
  iter_elems src (fun e -> ignore (rename e));
  iter_facts src (fun f -> ignore (add_fact into (Fact.map_elements rename f)));
  fun e -> Hashtbl.find_opt map e

(* Disjoint union of a list of structures; constants are shared by name,
   as required for Section IX's D_y / D_n constructions. *)
let disjoint_union parts =
  let u = create () in
  let maps = List.map (fun p -> union_into ~into:u p) parts in
  (u, maps)

let equal_sets a b =
  size a = size b && fold_facts a (fun f ok -> ok && mem b f) true

let pp ppf t =
  let facts = List.sort Fact.compare (facts t) in
  let elem ppf e = Fmt.string ppf (name t e) in
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut (Fact.pp ~elem ())) facts

let pp_stats ppf t =
  Fmt.pf ppf "%d elements, %d facts" (card t) (size t)
