(* Homomorphism search (Section II.A).

   The engine matches a conjunction of atoms (the pattern) against a
   structure, extending an optional initial binding.  This single engine
   powers conjunctive-query evaluation, TGD trigger detection, containment
   tests and core computation.

   The search is plain backtracking over a connectivity-greedy atom order;
   candidate facts for an atom with at least one bound argument are drawn
   from the structure's per-element index, otherwise from the per-symbol
   index.

   Two evaluators share that strategy.  The interpreted one below works on
   boxed [Fact.t] lists and persistent [Var_map] bindings and re-derives
   the atom order on every call; [Plan] compiles a body once into an
   array-of-slots program over the structure's dense-id arena and is the
   default ([iter_all ~compiled:true]).  Both enumerate the exact same
   bindings in the exact same order and tick the same counters — the
   interpreted path is the executable specification the property tests
   hold [Plan] against. *)

type binding = int Term.Var_map.t

let c_candidates = Obs.Metrics.counter "hom.candidates_scanned"
let c_unify = Obs.Metrics.counter "hom.unify_attempts"
let c_backtracks = Obs.Metrics.counter "hom.backtracks"

(* --- Slot tables, compiled atoms and the greedy ordering ------------ *)

(* A slot table: variable names interned to dense slots.  One table can
   be shared by the plans of a delta family, so a full match is the same
   [int array] no matter which pivot produced it — that array is the
   semi-naive deduplication key and the parallel-merge sort key. *)
type vars = {
  tbl : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n : int;
}

let vars_create () = { tbl = Hashtbl.create 16; names = Array.make 8 ""; n = 0 }

let slot_of vars x =
  match Hashtbl.find_opt vars.tbl x with
  | Some i -> i
  | None ->
      let i = vars.n in
      if i >= Array.length vars.names then begin
        let a = Array.make (2 * Array.length vars.names) "" in
        Array.blit vars.names 0 a 0 vars.n;
        vars.names <- a
      end;
      vars.names.(i) <- x;
      Hashtbl.replace vars.tbl x i;
      vars.n <- i + 1;
      i

(* One compiled atom: per position, either a variable slot or a constant
   name (resolved to an element once per evaluation). *)
type patom = {
  psym : Symbol.t;
  arity : int;
  slot_of_pos : int array; (* position -> slot, or -1 at constants *)
  cst_of_pos : string array; (* position -> constant name, "" at vars *)
}

let compile_atom vars atom =
  let args = Array.of_list (Atom.args atom) in
  let n = Array.length args in
  let slots = Array.make n (-1) in
  let csts = Array.make n "" in
  Array.iteri
    (fun i t ->
      match t with
      | Term.Var x -> slots.(i) <- slot_of vars x
      | Term.Cst c -> csts.(i) <- c)
    args;
  { psym = Atom.sym atom; arity = n; slot_of_pos = slots; cst_of_pos = csts }

(* A body as the ordering sees it, all ints: per atom its distinct slots
   and its number of constant positions; per slot the atoms containing
   it, as one flat table (slot [s]'s atoms are [occ_atoms.(k)] for
   [occ_start.(s) <= k < occ_start.(s + 1)]).  Built once per body and
   read by every ordering of a family. *)
type shape = {
  aslots : int array array;
  csts : int array;
  occ_start : int array;
  occ_atoms : int array;
}

let shape_of (patoms : patom array) nslots =
  let n = Array.length patoms in
  let aslots = Array.make n [||] and csts = Array.make n 0 in
  let occ_start = Array.make (nslots + 1) 0 in
  Array.iteri
    (fun i pa ->
      let out = Array.make pa.arity 0 and k = ref 0 in
      Array.iter
        (fun s ->
          if s < 0 then csts.(i) <- csts.(i) + 1
          else begin
            let q = ref 0 in
            while !q < !k && out.(!q) <> s do
              incr q
            done;
            if !q = !k then begin
              out.(!k) <- s;
              incr k;
              occ_start.(s + 1) <- occ_start.(s + 1) + 1
            end
          end)
        pa.slot_of_pos;
      aslots.(i) <- (if !k = pa.arity then out else Array.sub out 0 !k))
    patoms;
  for s = 1 to nslots do
    occ_start.(s) <- occ_start.(s) + occ_start.(s - 1)
  done;
  let next = Array.sub occ_start 0 nslots in
  let occ_atoms = Array.make occ_start.(nslots) 0 in
  Array.iteri
    (fun i sl ->
      Array.iter
        (fun s ->
          occ_atoms.(next.(s)) <- i;
          next.(s) <- next.(s) + 1)
        sl)
    aslots;
  { aslots; csts; occ_start; occ_atoms }

(* The connectivity-greedy atom order: atoms that share a variable with
   an earlier one come first when possible, ties broken towards atoms
   with constants, which are the most selective.  Each step picks the
   first (lowest-index) unplaced atom of maximal score
   4·(distinct bound slots) + (constant positions), then binds its
   slots.  [bound] seeds the slots considered already bound (the delta
   pivot's in semi-naive mode); the atom at index [skip] is left out
   (the pivot itself, or none when [skip < 0]).  Returns atom indices.

   All the work is on ints.  A tournament tree over the atoms keeps the
   next pick at its root: each node holds the first-index maximum of
   its leaves, a placed atom's leaf holds -1.  Binding a slot bumps the
   scores of the atoms containing it, found through the shape's
   occurrence table, and each bump or placement re-plays one leaf-to-root
   path.  One ordering of n atoms thus costs O((n + i)·log n) steps for
   i (slot, atom) incidences — no sets, strings or list surgery.
   Selection is by index, so a repeated atom — even a physically shared
   one — keeps each of its occurrences. *)
let greedy_order sh ~bound ~skip =
  let n = Array.length sh.csts in
  let is_bound = Array.make (Array.length sh.occ_start - 1) false in
  Array.iter (fun s -> is_bound.(s) <- true) bound;
  let score = Array.make n 0 in
  for i = 0 to n - 1 do
    let sl = sh.aslots.(i) in
    let sc = ref sh.csts.(i) in
    for t = 0 to Array.length sl - 1 do
      if is_bound.(sl.(t)) then sc := !sc + 4
    done;
    score.(i) <- !sc
  done;
  let size = ref 1 in
  while !size < n do
    size := 2 * !size
  done;
  let size = !size in
  let tree = Array.make (2 * size) (-1) in
  for i = 0 to n - 1 do
    if i <> skip then tree.(size + i) <- i
  done;
  (* [a] covers the lower indices, so it wins ties *)
  let winner a b =
    if b < 0 || (a >= 0 && score.(a) >= score.(b)) then a else b
  in
  for k = size - 1 downto 1 do
    tree.(k) <- winner tree.(2 * k) tree.((2 * k) + 1)
  done;
  let replay i =
    let k = ref ((size + i) / 2) in
    while !k >= 1 do
      tree.(!k) <- winner tree.(2 * !k) tree.((2 * !k) + 1);
      k := !k / 2
    done
  in
  let order = Array.make (if skip >= 0 then n - 1 else n) 0 in
  for k = 0 to Array.length order - 1 do
    let b = tree.(1) in
    order.(k) <- b;
    tree.(size + b) <- -1;
    replay b;
    Array.iter
      (fun s ->
        if not is_bound.(s) then begin
          is_bound.(s) <- true;
          for o = sh.occ_start.(s) to sh.occ_start.(s + 1) - 1 do
            let a = sh.occ_atoms.(o) in
            if tree.(size + a) >= 0 then begin
              score.(a) <- score.(a) + 4;
              replay a
            end
          done
        end)
      sh.aslots.(b)
  done;
  order

(* The slots of the [bound] variables that [vars] has interned. *)
let bound_slots vars bound =
  Term.Var_set.fold
    (fun x acc ->
      match Hashtbl.find_opt vars.tbl x with Some s -> s :: acc | None -> acc)
    bound []
  |> Array.of_list

let order_atoms ?(bound = Term.Var_set.empty) atoms =
  match atoms with
  | [] | [ _ ] -> atoms
  | _ ->
      let vars = vars_create () in
      let arr = Array.of_list atoms in
      let patoms = Array.map (compile_atom vars) arr in
      let order =
        greedy_order (shape_of patoms vars.n) ~bound:(bound_slots vars bound)
          ~skip:(-1)
      in
      Array.fold_right (fun i acc -> arr.(i) :: acc) order []

(* Try to extend [binding] so that [atom] maps onto [fact]. *)
let unify atom fact binding =
  let args = Array.of_list (Atom.args atom) in
  let fargs = Fact.args fact in
  let n = Array.length args in
  if n <> Array.length fargs then None
  else
    let rec go i binding =
      if i >= n then Some binding
      else
        match args.(i) with
        | Term.Cst _ ->
            (* constants were resolved before candidate enumeration *)
            go (i + 1) binding
        | Term.Var x -> (
            match Term.Var_map.find_opt x binding with
            | Some e -> if e = fargs.(i) then go (i + 1) binding else None
            | None -> go (i + 1) (Term.Var_map.add x fargs.(i) binding))
    in
    go 0 binding

(* Resolve the constant arguments of [atom] against [target]; [None] if the
   target lacks one of the constants. *)
let resolved_constants target atom =
  let rec go i acc = function
    | [] -> Some (List.rev acc)
    | Term.Cst c :: rest -> (
        match Structure.constant_opt target c with
        | None -> None
        | Some e -> go (i + 1) ((i, e) :: acc) rest)
    | Term.Var _ :: rest -> go (i + 1) acc rest
  in
  go 0 [] (Atom.args atom)

let candidates target atom binding =
  match resolved_constants target atom with
  | None -> []
  | Some pinned -> (
      (* Pick one pinned position — a constant or a bound variable — and use
         the element index; fall back to the symbol index. *)
      let bound_positions =
        List.mapi
          (fun i t ->
            match t with
            | Term.Var x -> (
                match Term.Var_map.find_opt x binding with
                | Some e -> Some (i, e)
                | None -> None)
            | Term.Cst _ -> None)
          (Atom.args atom)
        |> List.filter_map Fun.id
      in
      let pins = pinned @ bound_positions in
      let sym = Atom.sym atom in
      let count (i, e) = Structure.pin_count target sym i e in
      match pins with
      | [] -> (
          match Structure.facts_with_sym target sym with
          | [] -> []
          | pool ->
              if !Obs.metrics_on then
                Obs.Metrics.add c_candidates (List.length pool);
              pool)
      | [ (i, e) ] ->
          (* A single pin needs no residual filter: its bucket is exact. *)
          let n = count (i, e) in
          if n = 0 then []
          else begin
            if !Obs.metrics_on then Obs.Metrics.add c_candidates n;
            Structure.facts_with_pin target sym i e
          end
      | first :: rest ->
          (* Use the most selective pin — the smallest (sym, pos, elem)
             bucket — then filter by the remaining pins. *)
          let best, best_n =
            List.fold_left
              (fun (bp, bn) p ->
                let n = count p in
                if n < bn then (p, n) else (bp, bn))
              (first, count first) rest
          in
          if best_n = 0 then []
          else
            let bi, be = best in
            let pool = Structure.facts_with_pin target sym bi be in
            if !Obs.metrics_on then Obs.Metrics.add c_candidates best_n;
            List.filter
              (fun f -> List.for_all (fun (i, e) -> Fact.arg f i = e) pins)
              pool)

(* The interpreted evaluator: the executable specification.  [Plan] below
   must stay bit-identical to this, bindings, order and counters included. *)
let iter_all_interp ~init ?delta target atoms f =
  let rec go sink atoms binding =
    match atoms with
    | [] -> sink binding
    | atom :: rest ->
        let cands = candidates target atom binding in
        List.iter
          (fun fact ->
            match unify atom fact binding with
            | Some binding' ->
                if !Obs.metrics_on then Obs.Metrics.incr c_unify;
                go sink rest binding'
            | None ->
                if !Obs.metrics_on then begin
                  Obs.Metrics.incr c_unify;
                  Obs.Metrics.incr c_backtracks
                end)
          cands
  in
  match delta with
  | None -> go f (order_atoms atoms) init
  | Some delta_facts ->
      (* Index the delta by symbol once. *)
      let by_sym = Symbol.Tbl.create 16 in
      List.iter
        (fun fact ->
          let s = Fact.sym fact in
          match Symbol.Tbl.find_opt by_sym s with
          | Some r -> r := fact :: !r
          | None -> Symbol.Tbl.replace by_sym s (ref [ fact ]))
        delta_facts;
      (* The same homomorphism can be reached through several pivots;
         deduplicate on the full binding. *)
      let seen = Hashtbl.create 64 in
      let emit binding =
        let key = Term.Var_map.bindings binding in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          f binding
        end
      in
      List.iteri
        (fun j pivot ->
          match Symbol.Tbl.find_opt by_sym (Atom.sym pivot) with
          | None -> ()
          | Some dfacts -> (
              match resolved_constants target pivot with
              | None -> ()
              | Some pinned ->
                  let rest =
                    order_atoms ~bound:(Atom.vars pivot)
                      (List.filteri (fun k _ -> k <> j) atoms)
                  in
                  List.iter
                    (fun fact ->
                      if
                        List.for_all
                          (fun (i, e) -> Fact.arg fact i = e)
                          pinned
                      then
                        match unify pivot fact init with
                        | Some binding ->
                            if !Obs.metrics_on then Obs.Metrics.incr c_unify;
                            go emit rest binding
                        | None ->
                            if !Obs.metrics_on then begin
                              Obs.Metrics.incr c_unify;
                              Obs.Metrics.incr c_backtracks
                            end)
                    (List.rev !dfacts)))
        atoms

(* --- Compiled join plans -------------------------------------------- *)

module Plan = struct
  let c_compilations = Obs.Metrics.counter "plan.compilations"

  (* A plan: the body's slot table and its atoms in evaluation order —
     the connectivity-greedy order, frozen at compile time.  [pos] maps
     each atom to its entry in the evaluation scratch: the identity for
     a plan of its own, the atom's body position in a family's rest-plan,
     so every plan of a family reads one scratch resolved once. *)
  type t = { vars : vars; atoms : patom array; pos : int array }

  (* [patoms] in body order; pivot [j]'s atom is [patoms.(j)] and its
     rest-plan is [rests.(j)]. *)
  type family = { fvars : vars; patoms : patom array; rests : t array }

  (* Renumber the slots of [vars] — and, in place, of the [patoms]
     interned against it — into first-appearance order along [seq] (atom
     indices covering every atom), the numbering that interning the atoms
     in that order would have produced.  The names are permuted and the
     table's values rewritten without rehashing a name. *)
  let renumber vars (patoms : patom array) seq =
    let remap = Array.make vars.n (-1) in
    let next = ref 0 in
    Array.iter
      (fun i ->
        Array.iter
          (fun s ->
            if s >= 0 && remap.(s) < 0 then begin
              remap.(s) <- !next;
              incr next
            end)
          patoms.(i).slot_of_pos)
      seq;
    Array.iter
      (fun pa ->
        Array.iteri
          (fun p s -> if s >= 0 then pa.slot_of_pos.(p) <- remap.(s))
          pa.slot_of_pos)
      patoms;
    let names = Array.sub vars.names 0 vars.n in
    Array.iteri (fun s x -> vars.names.(remap.(s)) <- x) names;
    Hashtbl.filter_map_inplace (fun _ s -> Some remap.(s)) vars.tbl

  (* One plan over [atoms], ticking [plan.compilations]. *)
  let plan_of vars atoms pos =
    if !Obs.metrics_on then Obs.Metrics.incr c_compilations;
    { vars; atoms; pos }

  (* The connectivity-greedy order is applied here, once.  Slots are
     numbered by first appearance in evaluation order. *)
  let compile ?(bound = Term.Var_set.empty) atoms =
    let vars = vars_create () in
    let patoms = Array.of_list (List.map (compile_atom vars) atoms) in
    let patoms =
      if Array.length patoms > 1 then begin
        let order =
          greedy_order (shape_of patoms vars.n)
            ~bound:(bound_slots vars bound) ~skip:(-1)
        in
        renumber vars patoms order;
        Array.map (fun i -> patoms.(i)) order
      end
      else patoms
    in
    plan_of vars patoms (Array.init (Array.length patoms) Fun.id)

  (* One plan per pivot position, all sharing one slot table and one
     compiled atom per body position: a pivot plan's [atoms] point at the
     family's patoms, and its [pos] are their body positions.  Each
     rest-plan is ordered with the pivot's slots seeded as bound, exactly
     as the interpreted delta decomposition does.  Slots are numbered by
     first appearance along pivot 0 then its rest-plan. *)
  let compile_family atoms =
    let vars = vars_create () in
    let patoms = Array.of_list (List.map (compile_atom vars) atoms) in
    let n = Array.length patoms in
    let orders =
      if n > 2 then begin
        let sh = shape_of patoms vars.n in
        let orders =
          Array.init n (fun j -> greedy_order sh ~bound:sh.aslots.(j) ~skip:j)
        in
        renumber vars patoms (Array.append [| 0 |] orders.(0));
        orders
      end
      else
        (* a rest of at most one atom: the slots are already numbered
           along pivot 0 then its rest *)
        Array.init n (fun j ->
            Array.init (n - 1) (fun k -> if k < j then k else k + 1))
    in
    let rests =
      Array.map
        (fun order -> plan_of vars (Array.map (Array.get patoms) order) order)
        orders
    in
    { fvars = vars; patoms; rests }

  let nslots plan = plan.vars.n
  let slot plan x = Hashtbl.find_opt plan.vars.tbl x
  let family_nslots fam = fam.fvars.n
  let family_slot fam x = Hashtbl.find_opt fam.fvars.tbl x
  let family_layout fam =
    Array.map
      (fun plan ->
        Array.mapi
          (fun i k -> if plan.atoms.(i) == fam.patoms.(k) then k else -1)
          plan.pos)
      fam.rests

  (* Per-atom evaluation scratch: the chosen pins and the slots bound by
     the current candidate (for backtracking, since slots are mutated in
     place). *)
  type frame = {
    pin_pos : int array;
    pin_elem : int array;
    pin_pool : Structure.bucket array;
    undo : int array;
  }

  (* The scratch of one evaluation, one entry per atom ([pos] indexes
     it): per atom its symbol id, per position its constant's element
     ([-1] at variables), whether a constant is missing, and its frame.
     The frames of an evaluation must not alias, so every entry point
     builds its own. *)
  type scratch = {
    sids : int array;
    csts : int array array;
    dead : bool array;
    frames : frame array;
  }

  let scratch_of (atoms : patom array) sids =
    {
      sids;
      csts = Array.map (fun pa -> Array.make pa.arity (-1)) atoms;
      dead = Array.make (Array.length atoms) false;
      frames =
        Array.map
          (fun pa ->
            let a = pa.arity in
            {
              pin_pos = Array.make a 0;
              pin_elem = Array.make a 0;
              pin_pool = Array.make a Structure.empty_bucket;
              undo = Array.make a 0;
            })
          atoms;
    }

  (* Resolve the constants of [atoms] against [target] into [sc]. *)
  let resolve_csts (atoms : patom array) target sc =
    Array.iteri
      (fun i pa ->
        sc.dead.(i) <- false;
        let ce = sc.csts.(i) in
        Array.iteri
          (fun p c ->
            if c = "" then ce.(p) <- -1
            else
              match Structure.constant_opt target c with
              | Some e -> ce.(p) <- e
              | None ->
                  ce.(p) <- -1;
                  sc.dead.(i) <- true)
          pa.cst_of_pos)
      atoms

  let resolve_into (atoms : patom array) target sc =
    Array.iteri (fun i pa -> sc.sids.(i) <- Structure.sym_id target pa.psym) atoms;
    resolve_csts atoms target sc

  (* A plan's own scratch, resolved against [target]. *)
  let resolve plan target =
    let sc = scratch_of plan.atoms (Array.make (Array.length plan.atoms) (-1)) in
    resolve_into plan.atoms target sc;
    sc

  (* One evaluation's fixed context: the recursion below closes over
     nothing, so a step allocates nothing. *)
  type env = {
    sc : scratch;
    plan : t;
    target : Structure.t;
    skip : int;
    slots : int array;
    emit : int array -> unit;
  }

  let rec go env i =
    (* cooperative cancellation: a read-only scan may abort here (one
       disarmed ref read, the [Obs.metrics_on] overhead discipline) *)
    Resilience.Governor.Cancel.poll ();
    let plan = env.plan in
    if i >= Array.length plan.atoms then env.emit env.slots
    else if i = env.skip then go env (i + 1)
    else
      let k = plan.pos.(i) in
      let sc = env.sc in
      if sc.dead.(k) then () (* an unresolved constant: no candidates *)
      else begin
        let pa = plan.atoms.(i) in
        let fr = sc.frames.(k) in
        let ce = sc.csts.(k) in
        let slots = env.slots and target = env.target in
        (* Collect the pins — constants first, then bound variables, each
           in position order: the interpreted [pinned @ bound_positions]. *)
        let np = ref 0 in
        for p = 0 to pa.arity - 1 do
          if ce.(p) >= 0 then begin
            fr.pin_pos.(!np) <- p;
            fr.pin_elem.(!np) <- ce.(p);
            incr np
          end
        done;
        for p = 0 to pa.arity - 1 do
          let s = pa.slot_of_pos.(p) in
          if s >= 0 && slots.(s) >= 0 then begin
            fr.pin_pos.(!np) <- p;
            fr.pin_elem.(!np) <- slots.(s);
            incr np
          end
        done;
        let n_pins = !np in
        let sid = sc.sids.(k) in
        if n_pins = 0 then begin
          if sid >= 0 then begin
            let pool = Structure.ids_with_sym target sid in
            let len = Structure.bucket_length target pool in
            if len > 0 then begin
              if !Obs.metrics_on then Obs.Metrics.add c_candidates len;
              for j = len - 1 downto 0 do
                try_candidate env i pa fr 0 (-1) (Structure.bucket_get target pool j)
              done
            end
          end
        end
        else begin
          (* First strict minimum over the pins, like the interpreted
             fold.  Fetching the buckets (their length is O(1)) instead
             of asking for counts saves the second lookup on the
             winner — half the pin-table traffic at the common single-pin
             joins. *)
          let best = ref 0 in
          let best_n = ref max_int in
          for p = 0 to n_pins - 1 do
            let pool =
              Structure.ids_with_pin target sid fr.pin_pos.(p) fr.pin_elem.(p)
            in
            fr.pin_pool.(p) <- pool;
            let c = Structure.bucket_length target pool in
            if c < !best_n then begin
              best := p;
              best_n := c
            end
          done;
          if !best_n > 0 then begin
            let pool = fr.pin_pool.(!best) in
            if !Obs.metrics_on then Obs.Metrics.add c_candidates !best_n;
            for j = !best_n - 1 downto 0 do
              try_candidate env i pa fr n_pins !best (Structure.bucket_get target pool j)
            done
          end
        end
      end

  (* Candidate [id] for atom [i]: the residual pins ([pin_skip] is the
     one the bucket choice already enforces), then bind or check every
     variable position, recurse, and undo the bindings. *)
  and try_candidate env i pa fr n_pins pin_skip id =
    let target = env.target and slots = env.slots in
    let ok = ref true in
    let p = ref 0 in
    while !ok && !p < n_pins do
      if
        !p <> pin_skip
        && Structure.id_arg target id fr.pin_pos.(!p) <> fr.pin_elem.(!p)
      then ok := false;
      incr p
    done;
    if !ok then begin
      if !Obs.metrics_on then Obs.Metrics.incr c_unify;
      let nb = ref 0 in
      let fail = ref false in
      let q = ref 0 in
      while (not !fail) && !q < pa.arity do
        let s = pa.slot_of_pos.(!q) in
        if s >= 0 then begin
          let fa = Structure.id_arg target id !q in
          let v = slots.(s) in
          if v < 0 then begin
            slots.(s) <- fa;
            fr.undo.(!nb) <- s;
            incr nb
          end
          else if v <> fa then fail := true
        end;
        incr q
      done;
      if !fail then begin
        if !Obs.metrics_on then Obs.Metrics.incr c_backtracks
      end
      else go env (i + 1);
      for b = 0 to !nb - 1 do
        slots.(fr.undo.(b)) <- -1
      done
    end

  (* The core evaluator.  [slots] is the shared mutable binding array
     (slot -> element, -1 unbound).  The atom at plan index [skip] is
     left out entirely (the delta pivot of {!exists_since}).

     Counter and enumeration-order parity with the interpreted path: pools
     are scanned newest-first (the cons order of the former list
     buckets); [c_candidates] ticks per bucket entry before
     the residual pin filter, [c_unify] once per candidate surviving it,
     and [c_backtracks] when the bind/check pass fails. *)
  let eval_core sc plan target ~skip slots emit =
    go { sc; plan; target; skip; slots; emit } 0

  let eval plan target slots emit =
    eval_core (resolve plan target) plan target ~skip:(-1) slots emit

  let seed_slots nslots init =
    let slots = Array.make (max nslots 1) (-1) in
    List.iter (fun (s, e) -> slots.(s) <- e) init;
    slots

  let iter_slots ?(init = []) plan target emit =
    eval plan target (seed_slots (nslots plan) init) emit

  let binding_of vars ~init slots =
    let b = ref init in
    for s = 0 to vars.n - 1 do
      let v = slots.(s) in
      if v >= 0 then b := Term.Var_map.add vars.names.(s) v !b
    done;
    !b

  let binding_of_slots ?(init = Term.Var_map.empty) plan slots =
    binding_of plan.vars ~init slots

  let init_slots_of_binding tbl init =
    Term.Var_map.fold
      (fun x e acc ->
        match Hashtbl.find_opt tbl x with
        | Some s -> (s, e) :: acc
        | None -> acc)
      init []

  let iter ?(init = Term.Var_map.empty) plan target f =
    let seed = init_slots_of_binding plan.vars.tbl init in
    iter_slots ~init:seed plan target (fun slots ->
        f (binding_of plan.vars ~init slots))

  (* Early exit via a locally-caught [Exit], as in [find] below. *)
  let exists_slots ?init plan target =
    let found = ref false in
    (try
       iter_slots ?init plan target (fun _ ->
           found := true;
           raise Exit)
     with Exit -> ());
    !found

  (* A plan with its own resolution arrays, frames and slot array, for
     repeated probes: [retarget] re-resolves in place, so a probe
     allocates no scratch and a scan pays one resolve pass. *)
  type prepared = {
    pplan : t;
    mutable ptarget : Structure.t option;
    psc : scratch;
    pslots : int array;
  }

  let prepare plan =
    {
      pplan = plan;
      ptarget = None;
      psc = scratch_of plan.atoms (Array.make (Array.length plan.atoms) (-1));
      pslots = Array.make (max (nslots plan) 1) (-1);
    }

  let retarget p target =
    resolve_into p.pplan.atoms target p.psc;
    p.ptarget <- Some target

  (* An early exit leaves slots bound, so every evaluation starts by
     clearing them. *)
  let eval_prepared ~init p emit =
    match p.ptarget with
    | None -> invalid_arg "Hom.Plan: prepared plan has no target"
    | Some target ->
        for s = 0 to Array.length p.pslots - 1 do
          p.pslots.(s) <- -1
        done;
        List.iter (fun (s, e) -> p.pslots.(s) <- e) init;
        eval_core p.psc p.pplan target ~skip:(-1) p.pslots emit

  let iter_prepared p emit = eval_prepared ~init:[] p emit

  let exists_prepared ?(init = []) p =
    let found = ref false in
    (try
       eval_prepared ~init p (fun _ ->
           found := true;
           raise Exit)
     with Exit -> ());
    !found

  (* The apply-time re-check, one resolve pass.  Valid ONLY under the
     caller's invariant that no match lies wholly inside the [< min_id]
     prefix — the chase's condition (b) re-check has it: the trigger
     survived discovery against exactly that structure, and witnesses
     are monotone.  Under the invariant a match exists iff a match using
     a fact >= [min_id] exists, so both sides of the dispatch below are
     exact and only wall-clock moves:

     - every atom's best-bucket new tail is empty: no match — the
       overwhelmingly common case, a few binary searches;
     - the summed tails are small ([<= cutoff]): each atom in turn plays
       the delta pivot over its new tail (measured just before, and
       ascending by fact id, so it starts at a binary-searched lower
       bound), the other atoms run through the backtracking core against
       the full structure;
     - otherwise: the plain pin-driven backtracking search, which beats
       tail scanning once half a stage's firings sit in every tail. *)
  let exists_since ~min_id ~cutoff ?(init = []) plan target =
    let n = Array.length plan.atoms in
    if n = 0 then false
    else begin
      let sc = resolve plan target in
      let alive = ref true in
      for i = 0 to n - 1 do
        if sc.dead.(i) || sc.sids.(i) < 0 then alive := false
      done;
      !alive
      && begin
           let slots = seed_slots (nslots plan) init in
           let bpool = Array.make n Structure.empty_bucket in
           let blb = Array.make n 0 in
           let total = ref 0 in
           for j = 0 to n - 1 do
             let pa = plan.atoms.(j) in
             let sid = sc.sids.(j) in
             let ce = sc.csts.(j) in
             let pool = Structure.ids_with_sym target sid in
             let lb = Structure.bucket_lower_bound target pool min_id in
             let best_pool = ref pool in
             let best_lb = ref lb in
             let best_n = ref (Structure.bucket_length target pool - lb) in
             for p = 0 to pa.arity - 1 do
               let e =
                 if ce.(p) >= 0 then ce.(p)
                 else
                   let s = pa.slot_of_pos.(p) in
                   if s >= 0 && slots.(s) >= 0 then slots.(s) else -1
               in
               if e >= 0 then begin
                 let b = Structure.ids_with_pin target sid p e in
                 let blb' = Structure.bucket_lower_bound target b min_id in
                 let tail = Structure.bucket_length target b - blb' in
                 if tail < !best_n then begin
                   best_pool := b;
                   best_lb := blb';
                   best_n := tail
                 end
               end
             done;
             bpool.(j) <- !best_pool;
             blb.(j) <- !best_lb;
             total := !total + !best_n
           done;
           if !total = 0 then false
           else if !total > cutoff then begin
             (* full seeded search, exact under the caller's invariant *)
             let found = ref false in
             (try
                eval_core sc plan target ~skip:(-1) slots (fun _ ->
                    found := true;
                    raise Exit)
              with Exit -> ());
             !found
           end
           else begin
             let found = ref false in
             (try
                for j = 0 to n - 1 do
                  let pa = plan.atoms.(j) in
                  let ce = sc.csts.(j) in
                  let pool = bpool.(j) in
                  let len = Structure.bucket_length target pool in
                  if len > blb.(j) && !Obs.metrics_on then
                    Obs.Metrics.add c_candidates (len - blb.(j));
                  (* the pivot's own frame: [eval_core] skips it *)
                  let undo = sc.frames.(j).undo in
                  for k = blb.(j) to len - 1 do
                    Resilience.Governor.Cancel.poll ();
                    let id = Structure.bucket_get target pool k in
                    let ok = ref true in
                    for p = 0 to pa.arity - 1 do
                      if !ok then begin
                        let e =
                          if ce.(p) >= 0 then ce.(p)
                          else
                            let s = pa.slot_of_pos.(p) in
                            if s >= 0 && slots.(s) >= 0 then slots.(s) else -1
                        in
                        if e >= 0 && Structure.id_arg target id p <> e then
                          ok := false
                      end
                    done;
                    if !ok then begin
                      if !Obs.metrics_on then Obs.Metrics.incr c_unify;
                      let nb = ref 0 in
                      let fail = ref false in
                      for q = 0 to pa.arity - 1 do
                        if not !fail then begin
                          let s = pa.slot_of_pos.(q) in
                          if s >= 0 then begin
                            let fa = Structure.id_arg target id q in
                            let v = slots.(s) in
                            if v < 0 then begin
                              slots.(s) <- fa;
                              undo.(!nb) <- s;
                              incr nb
                            end
                            else if v <> fa then fail := true
                          end
                        end
                      done;
                      if not !fail then
                        eval_core sc plan target ~skip:j slots (fun _ ->
                            found := true;
                            raise Exit);
                      for b = 0 to !nb - 1 do
                        slots.(undo.(b)) <- -1
                      done
                    end
                  done
                done
              with Exit -> ());
             !found
           end
         end
    end

  (* A stage delta as a dense per-symbol index: interned symbol id ->
     ascending fact ids.  Built once per stage by the chase and shared by
     every dependency's family evaluation — no boxed [Fact.t list] delta
     and no per-family [Symbol.Tbl] rebuild on the parallel hot path. *)
  type delta_index = Intvec.t array

  let no_ids = Intvec.create ~capacity:1 ()

  (* Bucket the fact ids that [feed] pushes, in ascending order, by
     symbol. *)
  let index_ids target feed : delta_index =
    let idx = Array.make (max (Structure.n_sym_ids target) 1) no_ids in
    feed (fun id ->
        let sid = Structure.id_sym target id in
        if idx.(sid) == no_ids then idx.(sid) <- Intvec.create ();
        Intvec.push idx.(sid) id);
    idx

  let delta_index_of target ~lo ~hi =
    index_ids target (fun push ->
        for id = lo to hi - 1 do
          if Structure.live_id target id then push id
        done)

  (* Semi-naive family evaluation over a dense {!delta_index}: for each
     pivot in turn, match it against the delta facts of its symbol
     (ascending id = delta order), then run the pivot's rest-plan over the
     full structure.  [lo]/[hi) further restrict the pivot ids to a
     sub-range — the work-stealing chunks of the parallel collector; the
     default is the whole index.

     The structure is frozen during a scan, so the family's atoms are
     resolved — symbols, constants, frames — once per call, by body
     position, and every rest-plan reads that one scratch through its
     [pos].  A pivot's own frame is free while its rest runs and holds
     the pivot's undo list.  Nothing is resolved past the symbols until
     some pivot has delta facts.  The scratch is the call's own: the
     parallel collector runs one family from several domains at once.

     Each full match is emitted once, by the first pivot whose atom it
     maps to a delta fact.  One pivot never emits a match twice (every
     atom's candidate is its image), so a match found at pivot [j] is
     dropped iff an earlier pivot's atom maps into that pivot's bucket:
     one fact lookup per earlier pivot, and no table of the matches.  A
     call restricted to [lo, hi) emits the matches whose first delta
     fact lies in the range, so disjoint ranges partition the matches. *)
  let iter_family_ids ?(init = []) ?(lo = 0) ?(hi = max_int) fam target
      (dix : delta_index) emit =
    let patoms = fam.patoms in
    let sids = Array.map (fun pa -> Structure.sym_id target pa.psym) patoms in
    let buckets =
      Array.map
        (fun sid -> if sid >= 0 && sid < Array.length dix then dix.(sid) else no_ids)
        sids
    in
    if Array.exists (fun b -> Intvec.length b > 0) buckets then begin
      let sc = scratch_of patoms sids in
      resolve_csts patoms target sc;
      let slots = seed_slots (family_nslots fam) init in
      (* the fact an earlier pivot's atom maps to, built in [key] *)
      let key = Array.make (Array.fold_left (fun m pa -> max m pa.arity) 0 patoms) 0 in
      let in_delta i =
        let bucket = buckets.(i) in
        let len = Intvec.length bucket in
        len > 0
        && (not sc.dead.(i))
        && begin
             let pivot = patoms.(i) in
             let ce = sc.csts.(i) in
             for p = 0 to pivot.arity - 1 do
               let s = pivot.slot_of_pos.(p) in
               key.(p) <- (if s >= 0 then slots.(s) else ce.(p))
             done;
             let id = Structure.find_id target sids.(i) key in
             id >= 0
             && id >= Intvec.unsafe_get bucket 0
             && id <= Intvec.unsafe_get bucket (len - 1)
           end
      in
      let rec repeat j i = i < j && (in_delta i || repeat j (i + 1)) in
      Array.iteri
        (fun j pivot ->
          let bucket = buckets.(j) in
          let len = Intvec.length bucket in
          if len > 0 && not sc.dead.(j) then begin
            let ce = sc.csts.(j) in
            let rest_plan = fam.rests.(j) in
            let emit' slots = if not (repeat j 0) then emit slots in
            let undo = sc.frames.(j).undo in
            let k = ref (if lo <= 0 then 0 else Intvec.lower_bound bucket lo) in
            let continue = ref true in
            while !continue && !k < len do
              let id = Intvec.unsafe_get bucket !k in
              if id >= hi then continue := false
              else begin
                Resilience.Governor.Cancel.poll ();
                (* constant filter, unmetered like the interpreted
                   pivot's [pinned] check *)
                let ok = ref true in
                for p = 0 to pivot.arity - 1 do
                  if ce.(p) >= 0 && Structure.id_arg target id p <> ce.(p)
                  then ok := false
                done;
                if !ok then begin
                  if !Obs.metrics_on then Obs.Metrics.incr c_unify;
                  let nb = ref 0 in
                  let fail = ref false in
                  let q = ref 0 in
                  while (not !fail) && !q < pivot.arity do
                    let s = pivot.slot_of_pos.(!q) in
                    if s >= 0 then begin
                      let fa = Structure.id_arg target id !q in
                      let v = slots.(s) in
                      if v < 0 then begin
                        slots.(s) <- fa;
                        undo.(!nb) <- s;
                        incr nb
                      end
                      else if v <> fa then fail := true
                    end;
                    incr q
                  done;
                  if !fail then begin
                    if !Obs.metrics_on then Obs.Metrics.incr c_backtracks
                  end
                  else eval_core sc rest_plan target ~skip:(-1) slots emit';
                  for b = 0 to !nb - 1 do
                    slots.(undo.(b)) <- -1
                  done
                end
              end;
              incr k
            done
          end)
        patoms
    end
end

(* Enumerate every homomorphism from [atoms] into [target] extending
   [init]; [f] is called on each complete binding.  Raise [Exit] from [f]
   to stop the enumeration.  [compiled:false] selects the interpreted
   reference evaluator.

   [~delta] switches to the semi-naive mode: only the homomorphisms whose
   image uses at least one fact of [delta] are produced (each exactly
   once).  For each atom in turn, that atom is pinned to a delta fact and
   the remaining atoms are matched against the full structure — the
   standard delta-rule decomposition of semi-naive Datalog evaluation.
   [delta] must be facts of [target] in journal order, as
   [Structure.delta_since] returns them. *)
let iter_all ?(compiled = true) ?(init = Term.Var_map.empty) ?delta target
    atoms f =
  if not compiled then iter_all_interp ~init ?delta target atoms f
  else
    match delta with
    | None -> Plan.iter ~init (Plan.compile atoms) target f
    | Some delta_facts ->
        (* the delta's fact ids, ascending: its journal order, the order
           the interpreted path scans it in *)
        let ids =
          List.filter_map (Structure.fact_id target) delta_facts
          |> List.sort_uniq Int.compare
        in
        let fam = Plan.compile_family atoms in
        Plan.iter_family_ids
          ~init:(Plan.init_slots_of_binding fam.Plan.fvars.tbl init)
          fam target
          (Plan.index_ids target (fun push -> List.iter push ids))
          (fun slots -> f (Plan.binding_of fam.Plan.fvars ~init slots))

(* Early exit via a [ref] and a locally-caught [Exit]: the exception never
   crosses the module boundary, so a caller callback's own exceptions
   (including [Exit], per the [iter_all] contract) can't be misread as a
   match. *)
let find ?compiled ?(init = Term.Var_map.empty) target atoms =
  let result = ref None in
  (try
     iter_all ?compiled ~init target atoms (fun b ->
         result := Some b;
         raise Exit)
   with Exit -> ());
  !result

let exists ?compiled ?init target atoms =
  Option.is_some (find ?compiled ?init target atoms)

(* Count homomorphisms (used by tests and benches; beware of blowup). *)
let count ?compiled ?init target atoms =
  let n = ref 0 in
  iter_all ?compiled ?init target atoms (fun _ -> incr n);
  !n

(* --- Structure-to-structure homomorphisms --------------------------- *)

(* View a structure as a conjunction of atoms: element [e] becomes variable
   ["e<e>"] unless it interprets a constant, in which case it stays that
   constant (homomorphisms fix constants, Section II.A). *)
let var_of_elem e = Printf.sprintf "h%d" e

let atoms_of_structure src =
  let term_of e =
    match Structure.constant_name src e with
    | Some c -> Term.Cst c
    | None -> Term.Var (var_of_elem e)
  in
  Structure.fold_facts src
    (fun f acc ->
      Atom.make (Fact.sym f) (List.map term_of (Fact.elements f)) :: acc)
    []

(* Find a homomorphism [src -> target]; the result maps each element of
   [src] to an element of [target].  Isolated (fact-less) non-constant
   elements of [src] are sent to an arbitrary element of [target] when one
   exists. *)
let between ?(init = []) src target =
  let init_binding =
    List.fold_left
      (fun acc (e, e') -> Term.Var_map.add (var_of_elem e) e' acc)
      Term.Var_map.empty init
  in
  match find ~init:init_binding target (atoms_of_structure src) with
  | None -> None
  | Some binding ->
      let default =
        match Structure.elems target with e :: _ -> Some e | [] -> None
      in
      let table = Hashtbl.create 64 in
      Structure.iter_elems src (fun e ->
          let image =
            match Structure.constant_name src e with
            | Some c -> Structure.constant_opt target c
            | None -> (
                match Term.Var_map.find_opt (var_of_elem e) binding with
                | Some e' -> Some e'
                | None -> default)
          in
          match image with
          | Some e' -> Hashtbl.replace table e e'
          | None -> ());
      Some (fun e -> Hashtbl.find_opt table e)

let exists_between ?init src target = Option.is_some (between ?init src target)
