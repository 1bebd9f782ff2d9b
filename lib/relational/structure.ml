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

   The hash is a proper avalanche mix of the three coordinates.  The old
   table hashed [Hashtbl.hash (Symbol.hash s, p, e)] — generic hashing of
   a tuple of already-hashed small ints, which folds the three values
   through a byte-serializing hash that loses most of their entropy and
   collides badly once pins number in the tens of thousands.  Here the
   coordinates are combined with distinct odd multipliers and finished
   with an xmx avalanche, so nearby (sym, pos, elem) triples spread over
   the whole table. *)
module Pin_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((s1, p1, e1) : t) (s2, p2, e2) = s1 = s2 && p1 = p2 && e1 = e2

  (* xxhash-style 32-bit primes and an xmx finalizer; OCaml native ints
     wrap silently, which is exactly what a mixer wants. *)
  let hash ((s, p, e) : t) =
    let h = (s * 0x9E3779B1) lxor (p * 0x85EBCA77) lxor (e * 0xC2B2AE3D) in
    let h = (h lxor (h lsr 33)) * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

let empty_ids = Intvec.create ~capacity:1 ()

type t = {
  mutable next : int;                        (* next fresh element id *)
  consts : (string, int) Hashtbl.t;          (* constant name -> element *)
  const_of : (int, string) Hashtbl.t;        (* element -> constant name *)
  names : (int, string) Hashtbl.t;           (* optional debug labels *)
  facts : int Fact.Tbl.t;                    (* fact -> stage added *)
  ids : int Fact.Tbl.t;                      (* live fact -> arena id *)
  arena : Fact_arena.t;                      (* interned flat fact store *)
  mutable by_sym : Intvec.t array;           (* sym id -> fact ids *)
  by_elem : (int, Fact.t list ref) Hashtbl.t;
  by_pin : Intvec.t Pin_tbl.t;               (* (sym id, pos, elem) -> ids *)
  dom : (int, int) Hashtbl.t;                (* element -> birth stage *)
  elem_refs : (int, int) Hashtbl.t;          (* element -> live facts using it *)
  dead : (int, unit) Hashtbl.t;              (* retracted arena ids *)
  mutable retracted : (int * Fact.t) list;   (* retraction journal, newest first *)
  mutable nretracted : int;
  mutable stage : int;                       (* current provenance stage *)
  mutable nfacts : int;                      (* live fact count *)
  dg : Digest128.t;                          (* incremental journal digest *)
  mutable dg_wm : int;                       (* journal ids fed so far *)
  mutable dg_valid : bool;                   (* false: refeed from id 0 *)
}

let create () =
  {
    next = 0;
    consts = Hashtbl.create 16;
    const_of = Hashtbl.create 16;
    names = Hashtbl.create 64;
    facts = Fact.Tbl.create 256;
    ids = Fact.Tbl.create 256;
    arena = Fact_arena.create ();
    by_sym = Array.make 8 empty_ids;
    by_elem = Hashtbl.create 256;
    by_pin = Pin_tbl.create 256;
    dom = Hashtbl.create 256;
    elem_refs = Hashtbl.create 256;
    dead = Hashtbl.create 16;
    retracted = [];
    nretracted = 0;
    stage = 0;
    nfacts = 0;
    dg = Digest128.create ();
    dg_wm = 0;
    dg_valid = true;
  }

let set_stage t s = t.stage <- s
let stage t = t.stage

let register_elem t e =
  if not (Hashtbl.mem t.dom e) then Hashtbl.replace t.dom e t.stage

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

let mem t f = Fact.Tbl.mem t.facts f

let add_fact t f =
  if Fact.Tbl.mem t.facts f then false
  else begin
    (* the arena assigns the dense id; its id order IS the journal.  A
       re-added fact (inserted after a retraction) gets a *new* id: the
       journal is append-only, so the resurrection lands in the current
       delta and semi-naive discovery sees it like any other new fact.
       The append comes first: an ["arena.grow"] fault raises from it,
       and must leave no trace of the fact behind. *)
    let id = Fact_arena.append t.arena f in
    Fact.Tbl.replace t.facts f t.stage;
    t.nfacts <- t.nfacts + 1;
    Fact.Tbl.replace t.ids f id;
    let sid = Fact_arena.sym t.arena id in
    if sid >= Array.length t.by_sym then begin
      let a = Array.make (2 * max (sid + 1) (Array.length t.by_sym)) empty_ids in
      Array.blit t.by_sym 0 a 0 (Array.length t.by_sym);
      t.by_sym <- a
    end;
    let svec =
      if t.by_sym.(sid) == empty_ids then begin
        let v = Intvec.create () in
        t.by_sym.(sid) <- v;
        v
      end
      else t.by_sym.(sid)
    in
    Intvec.push svec id;
    let seen = Hashtbl.create 4 in
    Array.iteri
      (fun i e ->
        register_elem t e;
        let key = (sid, i, e) in
        let b =
          match Pin_tbl.find_opt t.by_pin key with
          | Some b -> b
          | None ->
              let b = Intvec.create () in
              Pin_tbl.replace t.by_pin key b;
              b
        in
        Intvec.push b id;
        if not (Hashtbl.mem seen e) then begin
          Hashtbl.replace seen e ();
          Hashtbl.replace t.elem_refs e
            (1 + Option.value ~default:0 (Hashtbl.find_opt t.elem_refs e));
          let r =
            match Hashtbl.find_opt t.by_elem e with
            | Some r -> r
            | None ->
                let r = ref [] in
                Hashtbl.replace t.by_elem e r;
                r
          in
          r := f :: !r
        end)
      (Fact.args f);
    true
  end

(* Retract a live fact: physical, order-preserving removal from every
   index the homomorphism engine reads.  The arena keeps the dead entry —
   the journal is append-only and fact ids are never reused — but the id
   leaves its [by_sym] and [by_pin] buckets (a sorted shift, so bucket
   order, [lower_bound] tails and newest-first enumeration are exactly
   what a structure that never held the fact would present) and the fact
   leaves [facts]/[by_elem].  The retraction is recorded in its own
   journal, newest first.

   Elements are reference-counted by live facts: a non-constant element
   whose count reaches zero and whose birth stage is past the base stage
   (a chase-created null) leaves the domain — re-adding a fact over it
   later re-registers it.  Base-stage elements stay: they belong to the
   instance, facts or not. *)
let retract_fact t f =
  match Fact.Tbl.find_opt t.ids f with
  | None -> false
  | Some id ->
      Fact.Tbl.remove t.facts f;
      Fact.Tbl.remove t.ids f;
      t.nfacts <- t.nfacts - 1;
      (* A retraction below the digest watermark falsifies the fed prefix;
         the next digest refeeds the whole journal (still streamed, no
         intermediate string).  At or above the watermark the entry was
         never fed — skipping dead ids at feed time suffices. *)
      if id < t.dg_wm then t.dg_valid <- false;
      Hashtbl.replace t.dead id ();
      t.retracted <- (id, f) :: t.retracted;
      t.nretracted <- t.nretracted + 1;
      let sid = Fact_arena.sym t.arena id in
      ignore (Intvec.remove_sorted t.by_sym.(sid) id);
      let seen = Hashtbl.create 4 in
      Array.iteri
        (fun i e ->
          (match Pin_tbl.find_opt t.by_pin (sid, i, e) with
          | Some b -> ignore (Intvec.remove_sorted b id)
          | None -> ());
          if not (Hashtbl.mem seen e) then begin
            Hashtbl.replace seen e ();
            (match Hashtbl.find_opt t.by_elem e with
            | Some r -> r := List.filter (fun g -> not (Fact.equal g f)) !r
            | None -> ());
            let refs =
              Option.value ~default:1 (Hashtbl.find_opt t.elem_refs e) - 1
            in
            if refs <= 0 then begin
              Hashtbl.remove t.elem_refs e;
              if
                (not (Hashtbl.mem t.const_of e))
                && Option.value ~default:0 (Hashtbl.find_opt t.dom e) > 0
              then begin
                Hashtbl.remove t.dom e;
                Hashtbl.remove t.by_elem e
              end
            end
            else Hashtbl.replace t.elem_refs e refs
          end)
        (Fact.args f);
      true

let live_id t id = not (Hashtbl.mem t.dead id)
let retraction_count t = t.nretracted

(* The retraction journal, oldest first: (arena id, fact) pairs. *)
let retractions t = List.rev t.retracted

let add t sym args = ignore (add_fact t (Fact.make sym args))
let add2 t sym a b = ignore (add_fact t (Fact.app2 sym a b))

let fact_stage t f = Fact.Tbl.find_opt t.facts f
let fact_id t f = Fact.Tbl.find_opt t.ids f
let elem_stage t e = Hashtbl.find_opt t.dom e

let card t = Hashtbl.length t.dom
let size t = t.nfacts

let iter_facts t f = Fact.Tbl.iter (fun fact _ -> f fact) t.facts
let fold_facts t f acc = Fact.Tbl.fold (fun fact _ acc -> f fact acc) t.facts acc
let facts t = fold_facts t (fun f acc -> f :: acc) []

let iter_elems t f = Hashtbl.iter (fun e _ -> f e) t.dom
let elems t = Hashtbl.fold (fun e _ acc -> e :: acc) t.dom []

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
let id_arg t id pos = Fact_arena.arg t.arena id pos

(* Number of interned symbol ids: every [id_sym] is below this, so it
   sizes dense sym-id-indexed tables (the chase's per-stage delta index). *)
let n_sym_ids t = Fact_arena.n_syms t.arena

let ids_with_sym t sid =
  if sid < 0 || sid >= Array.length t.by_sym then empty_ids else t.by_sym.(sid)

let ids_with_pin t sid pos e =
  match Pin_tbl.find_opt t.by_pin (sid, pos, e) with
  | Some b -> b
  | None -> empty_ids

let pin_count_id t sid pos e = Intvec.length (ids_with_pin t sid pos e)

(* The pin index as it stands, buckets a retraction emptied included:
   what an audit holds against its recomputed truth. *)
let pin_buckets t = Pin_tbl.length t.by_pin

let fold_pin_buckets t f acc =
  Pin_tbl.fold
    (fun (sid, pos, e) ids acc -> f (Fact_arena.sym_obj t.arena sid) pos e ids acc)
    t.by_pin acc

(* {2 The boxed list view, derived from the id view} *)

(* Newest-first, the order the cons-built buckets used to present. *)
let facts_of_ids t ids =
  Intvec.fold_left (fun acc id -> id_fact t id :: acc) [] ids

let facts_with_sym t sym = facts_of_ids t (ids_with_sym t (sym_id t sym))

let facts_with_elem t e =
  match Hashtbl.find_opt t.by_elem e with Some r -> !r | None -> []

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
      go (id - 1) (if Hashtbl.mem t.dead id then acc else id_fact t id :: acc)
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
    if not (Hashtbl.mem t.dead id) then feed_fact t.dg (id_fact t id)
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

(* Deep copy: the copy allocates elements with the same identifiers and
   shares nothing mutable with the original. *)
let copy t =
  let u = create () in
  u.next <- t.next;
  Hashtbl.iter (fun c e -> Hashtbl.replace u.consts c e) t.consts;
  Hashtbl.iter (fun e c -> Hashtbl.replace u.const_of e c) t.const_of;
  Hashtbl.iter (fun e n -> Hashtbl.replace u.names e n) t.names;
  Hashtbl.iter (fun e s -> Hashtbl.replace u.dom e s) t.dom;
  u.stage <- t.stage;
  Fact.Tbl.iter
    (fun f s ->
      let saved = u.stage in
      u.stage <- s;
      ignore (add_fact u f);
      u.stage <- saved)
    t.facts;
  u.stage <- t.stage;
  u

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
      Hashtbl.replace u.dom e 0)
    t.consts;
  u

(* [filter keep t] is the substructure of [t] containing the facts
   satisfying [keep].  Constants survive; elements only appearing in
   dropped facts are dropped (unless constants). *)
let filter keep t =
  let u = create () in
  u.next <- t.next;
  Hashtbl.iter
    (fun c e ->
      Hashtbl.replace u.consts c e;
      Hashtbl.replace u.const_of e c;
      Hashtbl.replace u.dom e 0)
    t.consts;
  Hashtbl.iter (fun e n -> Hashtbl.replace u.names e n) t.names;
  Fact.Tbl.iter
    (fun f s ->
      if keep f then begin
        let saved = u.stage in
        u.stage <- s;
        ignore (add_fact u f);
        u.stage <- saved
      end)
    t.facts;
  u

(* Color restriction D|G / D|R and daltonisation (Section IV.A). *)
let restrict_color c t = filter (fun f -> Fact.color f = Some c) t

let map_facts f t =
  let u = create () in
  u.next <- t.next;
  Hashtbl.iter
    (fun cst e ->
      Hashtbl.replace u.consts cst e;
      Hashtbl.replace u.const_of e cst;
      Hashtbl.replace u.dom e 0)
    t.consts;
  Hashtbl.iter (fun e n -> Hashtbl.replace u.names e n) t.names;
  Fact.Tbl.iter
    (fun fact s ->
      let saved = u.stage in
      u.stage <- s;
      ignore (add_fact u (f fact));
      u.stage <- saved)
    t.facts;
  u

let dalt t = map_facts Fact.dalt t
let paint c t = map_facts (Fact.paint c) t

(* [quotient f t] renames every element [e] to [f e], merging elements that
   share an image.  Constants must be fixed points of [f]. *)
let quotient f t =
  let u = create () in
  u.next <- t.next;
  Hashtbl.iter
    (fun cst e ->
      if f e <> e then invalid_arg "Structure.quotient: constant not fixed";
      Hashtbl.replace u.consts cst e;
      Hashtbl.replace u.const_of e cst;
      Hashtbl.replace u.dom e 0)
    t.consts;
  Fact.Tbl.iter (fun fact _ -> ignore (add_fact u (Fact.map_elements f fact))) t.facts;
  u

(* [union_into ~into src] adds every fact of [src] to [into], identifying
   constants by name and renaming the remaining elements of [src] to fresh
   elements of [into].  Returns the renaming used. *)
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
