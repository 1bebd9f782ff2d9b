(* Open-addressing tables keyed by ints: one flat [int array], linear
   probing, backward-shift deletion.

   An entry is [stride] consecutive ints — its key, then [stride - 1]
   value fields — so a table holds no per-entry block at all: the pin
   index and the element table of a structure cost a few words per key
   instead of a hash cell, a record and a vector each.  A free slot holds
   [empty] in its key field; every other int is a valid key.  Entries are
   addressed by their base offset into the array, which stays valid
   until the next insertion or removal.

   Deletion shifts the following run back instead of leaving
   tombstones, so a table that shrinks by retraction probes as if the
   removed keys had never been inserted — and nothing in it depends on
   physical identity, so it survives a Marshal round trip. *)

let empty = min_int

type t = {
  stride : int;
  mutable data : int array;
  mutable mask : int;  (* slot count - 1, a power of two minus one *)
  mutable count : int;
}

let hash k =
  let h = (k lxor (k lsr 33)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let alloc stride slots =
  let data = Array.make (slots * stride) 0 in
  for s = 0 to slots - 1 do
    data.(s * stride) <- empty
  done;
  data

let create ~stride n =
  let slots = ref 8 in
  while !slots * 3 < n * 4 do
    slots := 2 * !slots
  done;
  { stride; data = alloc stride !slots; mask = !slots - 1; count = 0 }

let length t = t.count

(* Top-level probe loops: a local closure would allocate per lookup. *)
let rec probe_key t k s =
  let b = s * t.stride in
  let k' = Array.unsafe_get t.data b in
  if k' = k then b else if k' = empty then -1 else probe_key t k ((s + 1) land t.mask)

let rec probe_free t s =
  let b = s * t.stride in
  if t.data.(b) = empty then b else probe_free t ((s + 1) land t.mask)

(* The base offset of [k]'s entry, or [-1]. *)
let find t k = if k = empty then -1 else probe_key t k (hash k land t.mask)

let rec insert t k =
  if (t.count + 1) * 4 > (t.mask + 1) * 3 then begin
    let old = t.data and st = t.stride in
    let slots = 2 * (t.mask + 1) in
    t.data <- alloc st slots;
    t.mask <- slots - 1;
    t.count <- 0;
    for s = 0 to (Array.length old / st) - 1 do
      let b = s * st in
      if old.(b) <> empty then begin
        let b' = insert t old.(b) in
        Array.blit old (b + 1) t.data (b' + 1) (st - 1)
      end
    done
  end;
  let b = probe_free t (hash k land t.mask) in
  t.data.(b) <- k;
  t.count <- t.count + 1;
  b

(* [add t k] — the base offset of a new entry for [k], which must be
   absent, its value fields holding [-1]. *)
let add t k =
  if k = empty then invalid_arg "Int_table.add: reserved key";
  let b = insert t k in
  Array.fill t.data (b + 1) (t.stride - 1) (-1);
  b

let get t b f = Array.unsafe_get t.data (b + f)
let set t b f v = t.data.(b + f) <- v

(* Empty the entry at [b], then walk the run after it and move back
   every entry whose home slot the hole now cuts it off from. *)
let remove t b =
  let st = t.stride and mask = t.mask in
  let hole = ref (b / st) and s = ref ((b / st + 1) land mask) in
  while t.data.(!s * st) <> empty do
    let home = hash t.data.(!s * st) land mask in
    (* does the run from [home] to [!s] pass over the hole? *)
    if (!s - home) land mask >= (!s - !hole) land mask then begin
      Array.blit t.data (!s * st) t.data (!hole * st) st;
      hole := !s
    end;
    s := (!s + 1) land mask
  done;
  t.data.(!hole * st) <- empty;
  t.count <- t.count - 1

(* [iter t f] calls [f] on every entry's base offset, in slot order. *)
let iter t f =
  let st = t.stride in
  for s = 0 to t.mask do
    if t.data.(s * st) <> empty then f (s * st)
  done
