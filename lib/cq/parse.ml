(* A small concrete syntax for conjunctive queries, Datalog style:

     q(x, y) :- E(x, z), E(z, y)       a binary query
     :- E(x, x)                         a boolean query
     q(x) :- Visited(x, 'paris')        'quoted' arguments are constants

   Identifiers are [A-Za-z0-9_]+; plain arguments are variables.  The head
   name is ignored by [query] (views are named externally) but checked for
   well-formedness. *)

type token =
  | Ident of string
  | Quoted of string
  | Lpar
  | Rpar
  | Comma
  | Turnstile

exception Syntax_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Syntax_error s)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_'

let tokenize s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '(' -> go (i + 1) (Lpar :: acc)
      | ')' -> go (i + 1) (Rpar :: acc)
      | ',' -> go (i + 1) (Comma :: acc)
      | ':' ->
          if i + 1 < n && s.[i + 1] = '-' then go (i + 2) (Turnstile :: acc)
          else fail "expected ':-' at offset %d" i
      | '\'' ->
          let j = ref (i + 1) in
          while !j < n && s.[!j] <> '\'' do
            incr j
          done;
          if !j >= n then fail "unterminated quote at offset %d" i
          else go (!j + 1) (Quoted (String.sub s (i + 1) (!j - i - 1)) :: acc)
      | c when is_ident_char c ->
          let j = ref i in
          while !j < n && is_ident_char s.[!j] do
            incr j
          done;
          go !j (Ident (String.sub s i (!j - i)) :: acc)
      | c -> fail "unexpected character %c at offset %d" c i
  in
  go 0 []

(* atom := ident ( term, ... ) *)
let parse_atom tokens =
  match tokens with
  | Ident name :: Lpar :: rest ->
      let rec args acc = function
        | Ident x :: Comma :: rest -> args (Relational.Term.var x :: acc) rest
        | Quoted c :: Comma :: rest -> args (Relational.Term.cst c :: acc) rest
        | Ident x :: Rpar :: rest ->
            (List.rev (Relational.Term.var x :: acc), rest)
        | Quoted c :: Rpar :: rest ->
            (List.rev (Relational.Term.cst c :: acc), rest)
        | _ -> fail "malformed argument list of %s" name
      in
      let terms, rest = args [] rest in
      let sym = Relational.Symbol.make name (List.length terms) in
      (Relational.Atom.make sym terms, rest)
  | Ident name :: _ -> fail "expected '(' after %s" name
  | _ -> fail "expected an atom"

let parse_atoms tokens =
  let rec go acc tokens =
    let atom, rest = parse_atom tokens in
    match rest with
    | Comma :: rest -> go (atom :: acc) rest
    | [] -> List.rev (atom :: acc)
    | _ -> fail "expected ',' or end of input after an atom"
  in
  go [] tokens

(* A full rule: [name, free vars, body].  The head's arguments must be
   distinct variables occurring in the body. *)
let parse_rule s =
  match tokenize s with
  | Turnstile :: rest -> ("q", Query.boolean (parse_atoms rest))
  | tokens -> (
      let head, rest = parse_atom tokens in
      match rest with
      | Turnstile :: rest ->
          let free =
            List.map
              (function
                | Relational.Term.Var x -> x
                | Relational.Term.Cst _ ->
                    fail "constants cannot appear in a rule head")
              (Relational.Atom.args head)
          in
          let name = Relational.Symbol.name (Relational.Atom.sym head) in
          (name, Query.make ~free (parse_atoms rest))
      | _ -> fail "expected ':-' after the head")

(* Parse a query, named or boolean. *)
let query s =
  try Ok (snd (parse_rule s)) with
  | Syntax_error m -> Error m
  | Invalid_argument m -> Error m

let named_query s =
  try Ok (parse_rule s) with
  | Syntax_error m -> Error m
  | Invalid_argument m -> Error m

(* Parse several rules, one per line; '%' starts a comment. *)
let program s =
  let lines = String.split_on_char '\n' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line = String.trim line in
        if line = "" || (String.length line > 0 && line.[0] = '%') then
          go acc rest
        else (
          match named_query line with
          | Ok named -> go (named :: acc) rest
          | Error m -> Error (Printf.sprintf "%s (in %S)" m line))
  in
  go [] lines
