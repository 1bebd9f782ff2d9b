(** Edge-labelled directed multigraphs as typed views over a structure.

    Swarms (Level 1) and green graphs (Level 2) are structures over
    binary signatures (Section VI): the edge H(ℓ, x, y) is the fact
    sym(ℓ)(x, y).  A view keeps that structure and a label ↔ symbol map
    and nothing else: its adjacency lists are the structure's pin
    buckets, its edge journal is the fact journal, a graph audit is the
    structure's, and bridging a graph to the generic TGD machinery
    copies nothing. *)

module type LABEL = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit

  (** The binary relation symbol of a label's edges. *)
  val symbol : t -> Symbol.t

  (** The inverse of [symbol]: [None] on a symbol no label has. *)
  val of_symbol : Symbol.t -> t option
end

module Make (Label : LABEL) : sig
  type edge = { label : Label.t; src : int; dst : int }
  type t

  module Label_tbl : Hashtbl.S with type key = Label.t

  (** [LABEL.symbol]. *)
  val symbol_of : Label.t -> Symbol.t

  val create : unit -> t

  (** [of_structure st] views [st] as a graph, sharing it: edits through
      either show in both.  Every fact of [st] must be an edge fact.
      @raise Invalid_argument on a fact whose symbol no label has. *)
  val of_structure : Structure.t -> t

  (** The structure the view reads (not a copy). *)
  val structure : t -> Structure.t

  (** {1 Vertices} *)

  val fresh : ?name:string -> t -> int

  (** Register an externally chosen vertex id, keeping [fresh] clear of
      it. *)
  val register : t -> int -> unit

  val name : t -> int -> string
  val set_name : t -> int -> string -> unit

  (** Every registered vertex id is below it: a bound for packed keys
      over vertex ids. *)
  val next_vertex : t -> int

  (** Registered vertices, ascending. *)
  val vertices : t -> int list

  val order : t -> int

  (** {1 Edges} *)

  (** [add_edge t label src dst] registers both endpoints and adds the
      edge; [false] if it was present. *)
  val add_edge : t -> Label.t -> int -> int -> bool

  (** [false] if the edge was absent.  Endpoints stay registered. *)
  val remove_edge : t -> Label.t -> int -> int -> bool

  val mem_edge : t -> edge -> bool
  val size : t -> int

  (** Every edge in (label, src, dst) order, an order that no journal or
      table can move. *)
  val edges : t -> edge list

  val iter_edges : t -> (edge -> unit) -> unit

  (** The adjacency lists are newest first. *)
  val with_label : t -> Label.t -> edge list

  val out_edges : t -> int -> edge list
  val in_edges : t -> int -> edge list

  (** [out_edges_with t v label]: the edges [label(v, _)], one pin
      bucket. *)
  val out_edges_with : t -> int -> Label.t -> edge list

  val in_edges_with : t -> int -> Label.t -> edge list

  (** {1 Delta journal} — the structure's, read as edges *)

  val watermark : t -> int

  (** The live edges added since [watermark t] returned [wm], oldest
      first. *)
  val delta_since : t -> int -> edge list

  (** {1 Whole graphs} *)

  (** A view of a {!Structure.copy}. *)
  val copy : t -> t

  (** Equal edge sets (same vertex ids). *)
  val equal : t -> t -> bool

  (** Rename every vertex through [f], merging those that share an image
      ({!Structure.quotient}). *)
  val map_vertices : (int -> int) -> t -> t

  (** Graphviz export; [edge_color] may map a label to a DOT color. *)
  val pp_dot :
    ?edge_color:(Label.t -> string) -> Format.formatter -> t -> unit
end
