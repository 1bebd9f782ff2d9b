(** Spider queries f^I_J and the binary queries of F₂ (Section V.B).

    f^I_J omits the calves of the legs in I ∪ J and frees their knees
    ("they do the magic of ♣"); a binary query glues two spider queries at
    their antennas (&, tails free) or tails (/, antennas free). *)

open Relational

(** A spider query f^I_J, I and J singleton-or-empty. *)
type f

val f : ?upper:int -> ?lower:int -> unit -> f
val upper : f -> int option
val lower : f -> int option
val pp_f : Format.formatter -> f -> unit

(** The body atoms of f^I_J, variables prefixed. *)
val body : Ctx.t -> prefix:string -> f -> Atom.t list

(** The standalone CQ: free variables are tail, antenna and magic knees. *)
val to_cq : Ctx.t -> ?prefix:string -> f -> Cq.Query.t

(** {1 Binary queries} *)

type conn = Amp | Slash

type binary = { left : f; right : f; conn : conn }

(** [amp f f'] is f & f' (antennas identified and quantified). *)
val amp : f -> f -> binary

(** [slash f f'] is f / f' (tails identified and quantified). *)
val slash : f -> f -> binary

val pp_binary : Format.formatter -> binary -> unit

(** The CQ of a binary query (free: the two anchors plus magic knees). *)
val binary_to_cq : Ctx.t -> binary -> Cq.Query.t

(** Its two green-red TGDs (Definition 3). *)
val binary_to_tgds : Ctx.t -> binary -> Tgd.Dep.t list

(** T_Q of a set of binary queries. *)
val tgds_of_binaries : Ctx.t -> binary list -> Tgd.Dep.t list

(** Name and compile a set of binary queries — the Q of a CQfDP
    instance — and its T_Q, each CQ built once. *)
val compile_binaries :
  Ctx.t -> binary list -> (string * Cq.Query.t) list * Tgd.Dep.t list
