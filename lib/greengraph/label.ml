(* Labels of green-graph edges: S̄ = S ∪ {∅} (Section VI).  A label [Some
   i] stands for the spider I^{i}; [None] for the full green spider I.

   The labels 1 and 2 form the 1-2 pattern (they may appear in rules — the
   grid rules of Section VII produce them); 3 and 4 are reserved for the
   red-spider bootstrap of Precompile and must never occur in a rule set,
   which [check_user] enforces. *)

type t = int option

let empty : t = None
let l i : t = Some i

let reserved = [ 3; 4 ]

let check_user = function
  | Some i when List.mem i reserved ->
      invalid_arg (Printf.sprintf "green-graph label %d is reserved" i)
  | _ -> ()

let compare : t -> t -> int = Stdlib.compare
let equal (a : t) (b : t) = a = b

(* The ideal spider a label denotes (the bijection A2 ≃ S̄). *)
let to_ideal (t : t) = Spider.Ideal.make ?upper:t Relational.Symbol.Green

let of_ideal s =
  if
    Spider.Ideal.is_green s && Spider.Ideal.lower s = None
  then Some (Spider.Ideal.upper s : t)
  else None

let to_string = function None -> "∅" | Some i -> string_of_int i
let pp ppf l = Fmt.string ppf (to_string l)

(* The edge relation of a label over the Level-2 signature: H_o for ∅,
   H_i for i. *)
let symbol = function
  | None -> Relational.Symbol.make "H_o" 2
  | Some i -> Relational.Symbol.make (Printf.sprintf "H_%d" i) 2

let of_symbol sym : t option =
  let name = Relational.Symbol.name sym in
  if name = "H_o" then Some None
  else if String.length name > 2 && String.sub name 0 2 = "H_" then
    int_of_string_opt (String.sub name 2 (String.length name - 2))
    |> Option.map (fun i -> Some i)
  else None
