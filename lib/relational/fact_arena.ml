(* The interned fact arena: the flat representation of a structure's
   fact set, and its only copy.

   Predicate symbols are interned to dense ids on first use; each added
   fact gets the next dense fact id and its arguments are appended to one
   growable [int array].  A fact is then three integers away: its symbol
   id, its offset into the argument store, and the arguments themselves —
   no boxed [Fact.t], no [Symbol.t] comparison, no hashing on the join
   inner loop.  A boxed [Fact.t] is built from these only when a caller
   asks for one.

   The live facts are also keyed by content: [index] is an
   open-addressing table of fact ids (linear probing, [-1] free), hashed
   on the symbol id and the arguments read off the store, so membership
   needs neither a boxed key nor a second copy of the fact.  Retracted
   ids stay in the store — the journal is append-only — but leave the
   index. *)

let c_facts = Obs.Metrics.counter "arena.facts"

type t = {
  sym_ids : int Symbol.Tbl.t;        (* symbol -> dense id *)
  mutable sym_objs : Symbol.t array; (* dense id -> symbol *)
  mutable n_syms : int;
  offsets : Intvec.t;                (* fact id -> offset into [data] *)
  sym_of : Intvec.t;                 (* fact id -> symbol id *)
  data : Intvec.t;                   (* flat argument store *)
  mutable n_facts : int;
  mutable cap : int;                 (* ids before the next growth *)
  mutable index : int array;         (* live fact ids by content, [-1] free *)
  mutable n_live : int;
}

let create () =
  {
    sym_ids = Symbol.Tbl.create 32;
    sym_objs = [||];
    n_syms = 0;
    offsets = Intvec.create ~capacity:64 ();
    sym_of = Intvec.create ~capacity:64 ();
    data = Intvec.create ~capacity:128 ();
    n_facts = 0;
    cap = 64;
    index = Array.make 16 (-1);
    n_live = 0;
  }

let n_syms t = t.n_syms
let n_facts t = t.n_facts
let n_live t = t.n_live

(* The dense id of [sym], allocated on first use. *)
let intern t sym =
  match Symbol.Tbl.find t.sym_ids sym with
  | i -> i
  | exception Not_found ->
      let i = t.n_syms in
      if i >= Array.length t.sym_objs then begin
        let a = Array.make (max 8 (2 * i)) sym in
        Array.blit t.sym_objs 0 a 0 i;
        t.sym_objs <- a
      end;
      t.sym_objs.(i) <- sym;
      Symbol.Tbl.add t.sym_ids sym i;
      t.n_syms <- i + 1;
      i

(* The dense id of [sym] if it has been interned, [-1] otherwise.  A
   symbol without an id has no facts, so a [-1] pool is empty. *)
let find_sym t sym =
  match Symbol.Tbl.find t.sym_ids sym with i -> i | exception Not_found -> -1

let sym_obj t i = t.sym_objs.(i)
let sym t id = Intvec.unsafe_get t.sym_of id

(* Argument [pos] of fact [id], read straight off the flat store. *)
let arg t id pos = Intvec.unsafe_get t.data (Intvec.unsafe_get t.offsets id + pos)

let arity t id = Symbol.arity t.sym_objs.(sym t id)

(* The boxed fact with id [id], built from the store. *)
let fact t id =
  let off = Intvec.unsafe_get t.offsets id in
  Fact.make (sym_obj t (sym t id))
    (Array.init (arity t id) (fun p -> Intvec.unsafe_get t.data (off + p)))

(* {2 The content index} *)

(* FNV-style fold of the symbol id and the arguments, xmx-finished; the
   store-side and the array-side hash agree by construction. *)
let mix h a = (h * 0x100000001B3) lxor a

let finish h =
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let hash_id t id =
  let off = Intvec.unsafe_get t.offsets id in
  let h = ref (sym t id) in
  for p = 0 to arity t id - 1 do
    h := mix !h (Intvec.unsafe_get t.data (off + p))
  done;
  finish !h

let hash_args sid arity args =
  let h = ref sid in
  for p = 0 to arity - 1 do
    h := mix !h args.(p)
  done;
  finish !h

(* Top-level loops: a local closure would allocate per lookup. *)
let rec same_args t off arity args p =
  p >= arity
  || (Intvec.unsafe_get t.data (off + p) = args.(p) && same_args t off arity args (p + 1))

let rec probe t sid arity args s =
  let id = Array.unsafe_get t.index s in
  if id < 0 then -1
  else if sym t id = sid && same_args t (Intvec.unsafe_get t.offsets id) arity args 0
  then id
  else probe t sid arity args ((s + 1) land (Array.length t.index - 1))

(* The live id of [sid(args)], or [-1]: the symbol's arity many leading
   entries of [args] are the arguments (a caller may reuse one longer
   scratch array).  Allocates nothing. *)
let find t sid args =
  let arity = Symbol.arity t.sym_objs.(sid) in
  probe t sid arity args (hash_args sid arity args land (Array.length t.index - 1))

let find_fact t f =
  let sid = find_sym t (Fact.sym f) in
  if sid < 0 then -1 else find t sid (Fact.args f)

let place index id h =
  let mask = Array.length index - 1 in
  let rec probe s =
    if Array.unsafe_get index s < 0 then index.(s) <- id else probe ((s + 1) land mask)
  in
  probe (h land mask)

let index_id t id =
  if (t.n_live + 1) * 4 > Array.length t.index * 3 then begin
    let old = t.index in
    t.index <- Array.make (2 * Array.length old) (-1);
    Array.iter (fun id -> if id >= 0 then place t.index id (hash_id t id)) old
  end;
  place t.index id (hash_id t id);
  t.n_live <- t.n_live + 1

(* Take live id [id] out of the index, shifting the run after it back
   (no tombstones: a structure that retracts probes as if the fact had
   never been there). *)
let unindex t id =
  let index = t.index in
  let mask = Array.length index - 1 in
  let rec slot s = if index.(s) = id then s else slot ((s + 1) land mask) in
  let hole = ref (slot (hash_id t id land mask)) in
  let s = ref ((!hole + 1) land mask) in
  while index.(!s) >= 0 do
    let home = hash_id t index.(!s) land mask in
    if (!s - home) land mask >= (!s - !hole) land mask then begin
      index.(!hole) <- index.(!s);
      hole := !s
    end;
    s := (!s + 1) land mask
  done;
  index.(!hole) <- -1;
  t.n_live <- t.n_live - 1

(* Append the fresh fact [sid(args)], index it, and return its dense
   id.  The ["arena.grow"] failpoint fires at each doubling of the id
   capacity, before any state is touched. *)
let append t sid args =
  let id = t.n_facts in
  if id >= t.cap then begin
    (* the arena-exhaustion failpoint: growth "fails" before any state
       is touched, surfacing as a [Faulted] chase outcome *)
    Resilience.Failpoint.hit "arena.grow";
    t.cap <- 2 * t.cap
  end;
  Intvec.push t.sym_of sid;
  Intvec.push t.offsets (Intvec.length t.data);
  Array.iter (fun e -> Intvec.push t.data e) args;
  t.n_facts <- id + 1;
  index_id t id;
  if !Obs.metrics_on then Obs.Metrics.incr c_facts;
  id

(* Per-worker staging buffers for parallel firing.

   A worker cannot append to the arena (ids, journal order and the
   indexes are all sequential state), so the parallel fire phase instead
   *stages* each head atom it would add into a private flat buffer:
   [trigger; atom; arity; args...] records appended to one [Intvec].
   Arguments are either resolved elements ([>= 0]) or the fire-plan's
   negative placeholder codes for not-yet-allocated fresh elements and
   constants — allocation order is a sequential resource, so placeholders
   are resolved only at the canonical merge.

   Workers own disjoint contiguous trigger ranges, and each buffer stages
   its range in ascending trigger order, so concatenating the buffers in
   worker order replays the exact canonical firing sequence; the merge
   then re-checks each trigger and materializes or drops its staged
   atoms.  No arena state is shared with the workers, which is the whole
   bit-identity argument: only the sequential merge allocates. *)
module Staging = struct
  type s = { buf : Intvec.t }

  let create () = { buf = Intvec.create ~capacity:256 () }

  let stage s ~trigger ~atom args =
    Intvec.push s.buf trigger;
    Intvec.push s.buf atom;
    Intvec.push s.buf (Array.length args);
    Array.iter (fun v -> Intvec.push s.buf v) args

  (* [iter s f] decodes the records in staging order; the args array is
     fresh per record and safe to keep. *)
  let iter s f =
    let n = Intvec.length s.buf in
    let k = ref 0 in
    while !k < n do
      let trigger = Intvec.unsafe_get s.buf !k in
      let atom = Intvec.unsafe_get s.buf (!k + 1) in
      let arity = Intvec.unsafe_get s.buf (!k + 2) in
      let args = Array.init arity (fun p -> Intvec.unsafe_get s.buf (!k + 3 + p)) in
      k := !k + 3 + arity;
      f ~trigger ~atom args
    done
end
