(* Growable vectors of unboxed ints: the backbone of the fact arena and
   of every index bucket on the homomorphism hot path.

   A bucket used to be a [Fact.t list ref] — one boxed cons cell and one
   pointer chase per entry.  An [Intvec.t] stores the same information as
   a contiguous [int array] slice: appends are amortized O(1), scans are
   cache-linear, and the length is a field read.

   Entries are appended in insertion order, so a bucket of fact ids is
   automatically sorted ascending — the property the parallel merge and
   the delta journal rely on. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 4) () =
  { data = Array.make (max capacity 1) 0; len = 0 }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Intvec.get";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Intvec.set";
  Array.unsafe_set t.data i x

(* Unchecked read for the join inner loop; caller guarantees [i < len]. *)
let unsafe_get t i = Array.unsafe_get t.data i

let ensure t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure t (t.len + 1);
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let iter f t =
  for i = 0 to t.len - 1 do
    f (Array.unsafe_get t.data i)
  done

(* First index whose entry is >= [x], assuming the entries are sorted
   ascending — which bucket vectors are, since fact ids are appended in
   allocation order.  Returns [length t] when every entry is below [x].
   This is how the delta-restricted scans (apply-time head re-checks,
   chunked parallel discovery) find the tail of new facts in O(log n). *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.data mid < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Remove one occurrence of [x] from a sorted vector, preserving the
   ascending order of the survivors: binary search, then shift the tail
   left by one.  Returns [false] when [x] is absent.  This is the
   retraction path of the index buckets — removal keeps every invariant
   the hot paths rely on ([lower_bound] tails, newest-first enumeration),
   it only makes the retracted id invisible. *)
let remove_sorted t x =
  let i = lower_bound t x in
  if i < t.len && Array.unsafe_get t.data i = x then begin
    Array.blit t.data (i + 1) t.data i (t.len - i - 1);
    t.len <- t.len - 1;
    true
  end
  else false

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get t i :: acc) in
  go (t.len - 1) []
