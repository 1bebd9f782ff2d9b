(* The interned fact arena: the flat hot-path representation of a
   structure's fact set.

   Predicate symbols are interned to dense ids on first use; each added
   fact gets the next dense fact id and its arguments are appended to one
   growable [int array].  A fact is then three integers away: its symbol
   id, its offset into the argument store, and the arguments themselves —
   no boxed [Fact.t] traversal, no [Symbol.t] comparison, no hashing on
   the join inner loop.

   The boxed [Fact.t] is still kept per id (the public [Structure] API
   speaks [Fact.t], and the delta journal is the id range itself), but
   the homomorphism evaluator never touches it. *)

let c_facts = Obs.Metrics.counter "arena.facts"

type t = {
  sym_ids : int Symbol.Tbl.t;        (* symbol -> dense id *)
  mutable sym_objs : Symbol.t array; (* dense id -> symbol *)
  mutable n_syms : int;
  offsets : Intvec.t;                (* fact id -> offset into [data] *)
  sym_of : Intvec.t;                 (* fact id -> symbol id *)
  data : Intvec.t;                   (* flat argument store *)
  mutable fact_objs : Fact.t array;  (* fact id -> boxed fact *)
  mutable n_facts : int;
}

(* Filler for uninitialized [fact_objs] slots; never observable. *)
let dummy_fact = Fact.make (Symbol.make "\000arena" 0) [||]

let create () =
  {
    sym_ids = Symbol.Tbl.create 32;
    sym_objs = Array.make 8 (Fact.sym dummy_fact);
    n_syms = 0;
    offsets = Intvec.create ~capacity:64 ();
    sym_of = Intvec.create ~capacity:64 ();
    data = Intvec.create ~capacity:256 ();
    fact_objs = Array.make 64 dummy_fact;
    n_facts = 0;
  }

let n_syms t = t.n_syms
let n_facts t = t.n_facts

(* The dense id of [sym], allocated on first use. *)
let intern t sym =
  match Symbol.Tbl.find t.sym_ids sym with
  | i -> i
  | exception Not_found ->
      let i = t.n_syms in
      if i >= Array.length t.sym_objs then begin
        let a = Array.make (2 * Array.length t.sym_objs) sym in
        Array.blit t.sym_objs 0 a 0 t.n_syms;
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

(* Append fresh [f], its symbol interned as [sid]; return its dense id. *)
let append t f sid =
  let id = t.n_facts in
  if id >= Array.length t.fact_objs then begin
    (* the arena-exhaustion failpoint: growth "fails" before any state
       is touched, surfacing as a [Faulted] chase outcome *)
    Resilience.Failpoint.hit "arena.grow";
    let a = Array.make (2 * Array.length t.fact_objs) dummy_fact in
    Array.blit t.fact_objs 0 a 0 t.n_facts;
    t.fact_objs <- a
  end;
  t.fact_objs.(id) <- f;
  Intvec.push t.sym_of sid;
  Intvec.push t.offsets (Intvec.length t.data);
  Array.iter (fun e -> Intvec.push t.data e) (Fact.args f);
  t.n_facts <- id + 1;
  if !Obs.metrics_on then Obs.Metrics.incr c_facts;
  id

let fact t id = t.fact_objs.(id)
let sym t id = Intvec.unsafe_get t.sym_of id

(* Argument [pos] of fact [id], read straight off the flat store. *)
let arg t id pos = Intvec.unsafe_get t.data (Intvec.unsafe_get t.offsets id + pos)

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
