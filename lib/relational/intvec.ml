(* Growable vectors of unboxed ints: the fact arena's columns, the
   stage column of a structure, and the chase's per-stage delta index.

   An [Intvec.t] stores a contiguous [int array] slice: appends are
   amortized O(1), scans are cache-linear, and the length is a field
   read.  A vector of fact ids appended in allocation order is sorted
   ascending, which [lower_bound] relies on. *)

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

(* Remove and return the last entry. *)
let pop t =
  if t.len = 0 then invalid_arg "Intvec.pop";
  t.len <- t.len - 1;
  Array.unsafe_get t.data t.len

(* First index whose entry is >= [x], assuming the entries are sorted
   ascending.  Returns [length t] when every entry is below [x]: how a
   parallel discovery chunk finds its start in a delta bucket. *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.data mid < x then lo := mid + 1 else hi := mid
  done;
  !lo
