(* Seeded failpoint harness.  A spec like

     "par.shard=0.25,par.fire=0.25,checkpoint.write=0.1,arena.grow"

   arms the named sites with the given firing probabilities (a bare name
   means probability 1).  Sites in the tree today: "par.shard" (a
   parallel trigger-discovery task), "par.fire" (a staged parallel
   firing pass), "arena.grow" (arena growth), "checkpoint.write" (the
   checkpoint writer, killed mid-write).  Decisions are drawn from a private splitmix64
   stream, so a (seed, spec) pair replays the exact same fault schedule —
   the property the differential fault campaign (Oracle.Fault) and the
   @resilience-smoke alias rely on.

   The disabled fast path is a single ref read ([hit] on [None] state),
   matching the [Obs.metrics_on] overhead discipline.  Decisions are
   always drawn on the domain that calls [fire]; [ladder] draws the par
   engines' per-task decisions *before* spawning workers so the stream
   is never raced from several domains. *)

exception Injected of string

(* splitmix64, same constants as Oracle.Gen (resilience sits below
   oracle in the library stack, so the few lines are duplicated rather
   than depended upon). *)
let sm_gamma = 0x9E3779B97F4A7C15L
let sm_mul1 = 0xBF58476D1CE4E5B9L
let sm_mul2 = 0x94D049BB133111EBL

let sm_next state =
  state := Int64.add !state sm_gamma;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) sm_mul1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) sm_mul2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A uniform draw in [0, 1): the top 53 bits over 2^53. *)
let sm_float state =
  let bits = Int64.shift_right_logical (sm_next state) 11 in
  Int64.to_float bits /. 9007199254740992.

type site = { prob : float; mutable hits : int; mutable injected : int }

type cfg = {
  rng : int64 ref;
  sites : (string, site) Hashtbl.t;
  spec : string;
  seed : int;
}

let state : cfg option ref = ref None

let parse_spec spec =
  let entries =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.map
    (fun entry ->
      match String.index_opt entry '=' with
      | None -> Ok (entry, 1.0)
      | Some i -> (
          let name = String.trim (String.sub entry 0 i) in
          let p = String.trim (String.sub entry (i + 1) (String.length entry - i - 1)) in
          match float_of_string_opt p with
          | Some prob when prob >= 0.0 && prob <= 1.0 && name <> "" ->
              Ok (name, prob)
          | _ -> Error entry))
    entries
  |> List.fold_left
       (fun acc r ->
         match (acc, r) with
         | Error e, _ -> Error e
         | Ok _, Error entry ->
             Error (Printf.sprintf "bad failpoint entry %S (want name=prob, 0<=prob<=1)" entry)
         | Ok l, Ok kv -> Ok (kv :: l))
       (Ok [])
  |> Result.map List.rev

let configure ?(seed = 0) spec =
  match parse_spec spec with
  | Error _ as e -> e
  | Ok [] ->
      state := None;
      Ok ()
  | Ok entries ->
      let sites = Hashtbl.create 8 in
      List.iter
        (fun (name, prob) ->
          Hashtbl.replace sites name { prob; hits = 0; injected = 0 })
        entries;
      state := Some { rng = ref (Int64.of_int seed); sites; spec; seed };
      Ok ()

let configure_exn ?seed spec =
  match configure ?seed spec with
  | Ok () -> ()
  | Error m -> invalid_arg ("Failpoint.configure: " ^ m)

let clear () = state := None
let active () = !state <> None

(* Should the site fault right now?  Counts the hit either way; draws
   from the stream only for armed sites so unarmed probes don't perturb
   the schedule of armed ones. *)
let fire name =
  match !state with
  | None -> false
  | Some cfg -> (
      match Hashtbl.find_opt cfg.sites name with
      | None -> false
      | Some site ->
          site.hits <- site.hits + 1;
          let inject =
            site.prob >= 1.0 || (site.prob > 0.0 && sm_float cfg.rng < site.prob)
          in
          if inject then site.injected <- site.injected + 1;
          inject)

(* [fire] that raises instead of returning true. *)
let hit name = if fire name then raise (Injected name)

type summary = { name : string; prob : float; hits : int; injected : int }

let summary () =
  match !state with
  | None -> []
  | Some cfg ->
      Hashtbl.fold
        (fun name (s : site) acc ->
          { name; prob = s.prob; hits = s.hits; injected = s.injected } :: acc)
        cfg.sites []
      |> List.sort (fun a b -> String.compare a.name b.name)

let injected_total () =
  List.fold_left (fun n s -> n + s.injected) 0 (summary ())

let c_retries = Obs.Metrics.counter "resilience.par_retries"
let c_degraded = Obs.Metrics.counter "resilience.par_degraded"

(* The par engines' fault ladder.  Each attempt draws one decision per
   task on the calling domain before [run] spawns anyone, and hands [run]
   the guard its tasks call first.  Every rung computes the same result,
   so a faulted run stays bit-identical to an un-faulted one. *)
let ladder ~site n run ~degrade =
  let attempt () =
    if not (active ()) then run ignore
    else
      let faults = Array.init n (fun _ -> fire site) in
      run (fun t -> if faults.(t) then raise (Injected site))
  in
  match attempt () with
  | v -> v
  | exception Injected s when s = site -> (
      if !Obs.metrics_on then Obs.Metrics.incr c_retries;
      match attempt () with
      | v -> v
      | exception Injected s when s = site ->
          if !Obs.metrics_on then Obs.Metrics.incr c_degraded;
          degrade ())

let pp_summary ppf s =
  Fmt.pf ppf "%s p=%g hits=%d injected=%d" s.name s.prob s.hits s.injected
