(* Ascending fact-id buckets, each one immediate int.

   Most buckets of a chased structure hold one fact: in a spider chase
   almost every (symbol, position, element) pin has a single fact.  So
   a bucket is an int that a table entry or array slot holds directly:

   - [-1] is the empty bucket;
   - [id >= 0] is the one-fact bucket [{id}], stored in place;
   - [-2 - m] is the larger bucket held by [pool] slot [m], an
     [int array] with its length at index 0 and the ids after it.

   Ids are appended in ascending order (the journal order), so a bucket
   is sorted, its length is O(1) and [lower_bound] binary-searches it.
   A pool slot freed when its bucket shrinks to one fact is reused by
   the next bucket that grows past one. *)

type pool = {
  mutable arrs : int array array;
  mutable n : int;  (* slots handed out so far *)
  free : Intvec.t;  (* released slots *)
}

let empty = -1

let create_pool () = { arrs = [||]; n = 0; free = Intvec.create () }

let length p b =
  if b >= 0 then 1
  else if b = empty then 0
  else Array.unsafe_get (Array.unsafe_get p.arrs (-2 - b)) 0

(* Entry [k] ([0 <= k < length]) of a non-empty bucket. *)
let get p b k = if b >= 0 then b else (Array.unsafe_get p.arrs (-2 - b)).(k + 1)

(* A pool slot holding [a], [b]. *)
let pair p a b =
  let m =
    if Intvec.length p.free > 0 then Intvec.pop p.free
    else begin
      if p.n = Array.length p.arrs then begin
        let arrs = Array.make (max 8 (2 * p.n)) [||] in
        Array.blit p.arrs 0 arrs 0 p.n;
        p.arrs <- arrs
      end;
      p.n <- p.n + 1;
      p.n - 1
    end
  in
  p.arrs.(m) <- [| 2; a; b; 0 |];
  -2 - m

(* [push p b id] appends [id] and returns the bucket, which the caller
   stores back: it changes when the bucket had at most one fact. *)
let push p b id =
  if b = empty then id
  else if b >= 0 then pair p b id
  else begin
    let m = -2 - b in
    let a = p.arrs.(m) in
    let n = a.(0) in
    let a =
      if n + 1 < Array.length a then a
      else begin
        let a' = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 a' 0 (n + 1);
        p.arrs.(m) <- a';
        a'
      end
    in
    a.(n + 1) <- id;
    a.(0) <- n + 1;
    b
  end

(* First index whose entry is [>= x]; [length] when every entry is
   below [x]. *)
let lower_bound p b x =
  if b >= 0 then if b < x then 1 else 0
  else if b = empty then 0
  else begin
    let a = p.arrs.(-2 - b) in
    let lo = ref 0 and hi = ref a.(0) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if a.(mid + 1) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* [remove p b id] drops one occurrence of [id], keeping the survivors
   in order, and returns the bucket; it is unchanged when [id] is absent.
   A bucket left with one fact goes back in place and frees its slot. *)
let remove p b id =
  if b >= 0 then if b = id then empty else b
  else if b = empty then b
  else begin
    let m = -2 - b in
    let a = p.arrs.(m) in
    let n = a.(0) in
    let i = lower_bound p b id in
    if i >= n || a.(i + 1) <> id then b
    else if n = 2 then begin
      p.arrs.(m) <- [||];
      Intvec.push p.free m;
      a.(2 - i)
    end
    else begin
      Array.blit a (i + 2) a (i + 1) (n - i - 1);
      a.(0) <- n - 1;
      b
    end
  end

let fold_left p f acc b =
  let acc = ref acc in
  for k = 0 to length p b - 1 do
    acc := f !acc (get p b k)
  done;
  !acc
