(** A Datalog-style concrete syntax for conjunctive queries:

    {v
    q(x, y) :- E(x, z), E(z, y)      a binary query
    :- E(x, x)                        a boolean query
    q(x) :- Visited(x, 'paris')       'quoted' arguments are constants
    v} *)

exception Syntax_error of string

(** Parse one rule; the head name is dropped. *)
val query : string -> (Query.t, string) result

(** Parse one rule, keeping the head name (["q"] for boolean rules). *)
val named_query : string -> (string * Query.t, string) result

(** Parse one rule per line; blank lines and ['%'] comments are skipped. *)
val program : string -> ((string * Query.t) list, string) result
