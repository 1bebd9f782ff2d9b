(* Single-tape Turing machines over a right-infinite tape.

   This is the "textbook" computation model behind Lemma 21: the halting
   problem for these machines is undecidable, and [Tm_compiler] translates
   any of them into a rainworm machine that creeps forever iff the TM runs
   forever.  A machine halts when δ is undefined at the current (state,
   symbol) pair; moving left at cell 0 is a crash (our compiled machines
   treat it as a halt as well). *)

type dir = Left | Right

type t = {
  name : string;
  blank : string;
  start : string;
  transitions : ((string * string) * (string * string * dir)) list;
      (* ((state, read), (state', write, move)) *)
}

let make ~name ~blank ~start transitions =
  let lhss = List.map fst transitions in
  let rec distinct = function
    | [] -> true
    | l :: rest -> (not (List.mem l rest)) && distinct rest
  in
  if not (distinct lhss) then
    invalid_arg "Turing.make: nondeterministic transition table";
  { name; blank; start; transitions }

let delta t q a = List.assoc_opt (q, a) t.transitions

let states t =
  List.concat_map (fun ((q, _), (q', _, _)) -> [ q; q' ]) t.transitions
  |> List.cons t.start
  |> List.sort_uniq String.compare

let alphabet t =
  List.concat_map (fun ((_, a), (_, a', _)) -> [ a; a' ]) t.transitions
  |> List.cons t.blank
  |> List.sort_uniq String.compare

module Int_map = Map.Make (Int)

type config = { tape : string Int_map.t; head : int; state : string }

let initial_config t = { tape = Int_map.empty; head = 0; state = t.start }

let read t c = Option.value (Int_map.find_opt c.head c.tape) ~default:t.blank

type halt_reason = No_transition | Fell_off_left

type outcome =
  | Halted of halt_reason * config
  | Running of config

let step t c =
  match delta t c.state (read t c) with
  | None -> Error No_transition
  | Some (q', a', move) ->
      let tape = Int_map.add c.head a' c.tape in
      let head = match move with Left -> c.head - 1 | Right -> c.head + 1 in
      if head < 0 then Error Fell_off_left
      else Ok { tape; head; state = q' }

let run ?(max_steps = 10_000) t =
  let rec go n c =
    if n >= max_steps then (n, Running c)
    else
      match step t c with
      | Error reason -> (n, Halted (reason, c))
      | Ok c' -> go (n + 1) c'
  in
  go 0 (initial_config t)

let halts ?max_steps t =
  match run ?max_steps t with
  | _, Halted _ -> true
  | _, Running _ -> false

(* The tape contents as a list over cells 0..max written/visited cell. *)
let tape_list t c =
  let hi =
    Int_map.fold (fun i _ acc -> max i acc) c.tape c.head
  in
  List.init (hi + 1) (fun i ->
      Option.value (Int_map.find_opt i c.tape) ~default:t.blank)
