(** Finite relational structures (Section II.A).

    Elements are integers allocated by the structure; constants of the
    signature are interpreted as dedicated elements shared by name.  The
    structure is mutable — the chase extends it in place — and carries
    provenance: every fact and element remembers the chase stage at which
    it appeared (Section IX's late fragments [chase^L] are carved out of
    this provenance). *)

type t

(** A fresh empty structure. *)
val create : unit -> t

(** {1 Provenance stages} *)

(** Set the current stage; facts and elements added afterwards are stamped
    with it.  The chase sets stage [i] while computing [chase_i]. *)
val set_stage : t -> int -> unit

(** The stage at which a fact was added, if present. *)
val fact_stage : t -> Fact.t -> int option

(** The dense (journal) id of a live fact, if present.  A fact retracted
    and re-added carries the id of its latest insertion. *)
val fact_id : t -> Fact.t -> int option

(** The stage at which an element was created, if present. *)
val elem_stage : t -> int -> int option

(** {1 Elements and constants} *)

(** Allocate a fresh element, with an optional debug name. *)
val fresh : ?name:string -> t -> int

(** Import an externally-allocated element id, keeping [fresh] clear of
    it (graph views register their edge endpoints this way). *)
val reserve : t -> int -> unit

(** The id [fresh] allocates next.  Every element allocated by [fresh]
    or imported by [reserve] is below it; [add_fact] alone does not move
    it. *)
val elem_bound : t -> int

(** The interpretation of constant [c], allocated on first use. *)
val constant : t -> string -> int

val constant_opt : t -> string -> int option

(** The constant interpreted by this element, if any. *)
val constant_name : t -> int -> string option

val is_constant : t -> int -> bool

(** A printable name for the element ([e<id>] by default). *)
val name : t -> int -> string

val set_name : t -> int -> string -> unit

(** All constant names of the structure. *)
val constants : t -> string list

(** {1 Facts} *)

val mem : t -> Fact.t -> bool

(** [add_fact t f] adds [f]; returns [false] if it was already present.
    The pin index packs each (symbol id, position, element) into one int,
    so elements must lie below 2{^32}, interned symbol ids below 2{^22}
    and arities at most 2{^8}.
    @raise Invalid_argument on a fact outside that range, before
    anything is indexed. *)
val add_fact : t -> Fact.t -> bool

(** [add t sym args] adds [sym(args)], ignoring duplication. *)
val add : t -> Symbol.t -> int array -> unit

(** Binary convenience. *)
val add2 : t -> Symbol.t -> int -> int -> unit

(** [retract_fact t f] removes a live fact: its id leaves every index
    bucket (a sorted in-place shift, so bucket order and [lower_bound]
    tails stay exact) and the fact leaves the live set, while the
    append-only journal keeps the dead entry so old watermarks stay
    valid.  The retraction is recorded in the retraction journal.
    Non-constant elements born after the base stage whose last live fact
    disappears leave the domain.  Returns [false] if [f] was not
    present.  Re-adding [f] later assigns a fresh journal id, so the
    resurrection lands in the current delta. *)
val retract_fact : t -> Fact.t -> bool

(** [live_id t id] — is journal entry [id] ([< nfacts]) still live? *)
val live_id : t -> int -> bool

(** The retraction journal, oldest first: (journal id, fact) pairs. *)
val retractions : t -> (int * Fact.t) list

(** Length of the retraction journal. *)
val retraction_count : t -> int

(** Number of elements. *)
val card : t -> int

(** Number of facts. *)
val size : t -> int

(** Live facts in journal order ([facts] lists them newest first). *)
val iter_facts : t -> (Fact.t -> unit) -> unit
val fold_facts : t -> (Fact.t -> 'a -> 'a) -> 'a -> 'a
val facts : t -> Fact.t list

(** Registered elements in ascending id order. *)
val iter_elems : t -> (int -> unit) -> unit
val elems : t -> int list

(** All facts with the given (exact, color included) symbol. *)
val facts_with_sym : t -> Symbol.t -> Fact.t list

(** All facts mentioning the element. *)
val facts_with_elem : t -> int -> Fact.t list

(** [facts_with_pin t sym pos e] — the facts [sym(…)] whose argument at
    [pos] is [e]: the unit of selectivity for the homomorphism engine. *)
val facts_with_pin : t -> Symbol.t -> int -> int -> Fact.t list

(** Bucket size of [facts_with_pin], in O(1). *)
val pin_count : t -> Symbol.t -> int -> int -> int

(** {1 The dense-id hot path}

    Facts carry dense ids (their insertion index) and symbols are
    interned to dense ids per structure; arguments live in a flat int
    arena.  The compiled join plans of {!Hom.Plan} work exclusively on
    this view.  Returned buckets are the live index vectors — treat them
    as read-only. *)

(** The dense-id bound: every (live or dead) id is in
    [0 .. nfacts - 1].  Equals {!size} until the first retraction;
    afterwards it is the journal length, which only grows. *)
val nfacts : t -> int

(** The interned id of [sym], or [-1] if no fact uses it. *)
val sym_id : t -> Symbol.t -> int

(** The boxed fact with dense id [id]. *)
val id_fact : t -> int -> Fact.t

(** The interned symbol id of fact [id]. *)
val id_sym : t -> int -> int

(** The symbol interned as [sid] ([0 <= sid < n_sym_ids t]). *)
val sym_of_id : t -> int -> Symbol.t

(** Number of interned symbol ids — every {!id_sym} is below this; sizes
    dense sym-id-indexed tables. *)
val n_sym_ids : t -> int

(** [id_arg t id pos] — argument [pos] of fact [id], off the flat arena. *)
val id_arg : t -> int -> int -> int

(** All fact ids with interned symbol [sid], insertion order ([-1] and
    unknown ids give the shared empty vector). *)
val ids_with_sym : t -> int -> Intvec.t

(** [ids_with_pin t sid pos e] — fact ids of the [(sid, pos, e)] pin
    bucket, insertion order; the empty vector for an unpackable pin. *)
val ids_with_pin : t -> int -> int -> int -> Intvec.t

(** Bucket size of [ids_with_pin], in O(1). *)
val pin_count_id : t -> int -> int -> int -> int

(** The ids of the live facts mentioning element [e], each once, in
    insertion order: the id view of {!facts_with_elem}. *)
val ids_with_elem : t -> int -> Intvec.t

(** The number of buckets the pin index holds, including the buckets a
    retraction emptied, which stay in the index; O(1). *)
val pin_buckets : t -> int

(** [fold_pin_buckets t f acc] folds [f sym pos e ids] over every
    bucket the pin index holds, emptied ones included, in no particular
    order.  Read-only, like {!pin_buckets}: together they let an audit
    find buckets no live fact accounts for. *)
val fold_pin_buckets :
  t -> (Symbol.t -> int -> int -> Intvec.t -> 'a -> 'a) -> 'a -> 'a

(** [delta_ids t wm] — the delta since watermark [wm] as the id interval
    [\[wm, nfacts)], ready for sharding. *)
val delta_ids : t -> int -> int * int

(** {1 Delta journal}

    Every added fact is journalled in insertion order; a watermark marks a
    point in that journal.  The semi-naive chase matches each stage's TGD
    bodies only against the facts added since the previous stage. *)

(** The current journal position: the journal length (equals {!size}
    until the first retraction).  Watermarks taken before an edit stay
    valid across retractions — the journal is append-only. *)
val watermark : t -> int

(** [delta_since t wm] — the live facts journalled since [watermark t]
    returned [wm], oldest first.  Retracted entries are skipped. *)
val delta_since : t -> int -> Fact.t list

(** The symbols with at least one fact. *)
val symbols : t -> Symbol.t list

(** The canonical 128-bit digest of the structure's build history: the
    live facts in journal order (symbols by content, elements by id) plus
    the element count.  History-sensitive — a retract-then-re-add leaves
    a different journal than never touching the fact, which is what the
    engine bit-identity witness observes.  Incremental: each call feeds
    only the journal suffix since the previous call, O(delta) amortized;
    a retraction below the fed watermark triggers a streamed full refeed.
    Copies ({!copy}, {!filter}, …) rebuild their own journal in their own
    order and digest accordingly. *)
val digest_hex : t -> string

(** {1 Whole-structure operations} *)

(** Deep copy sharing nothing mutable; live facts re-added in order. *)
val copy : t -> t

(** [like t] is an empty structure sharing [t]'s constants (same element
    ids) and allocator position. *)
val like : t -> t

(** [filter keep t] is the substructure of facts satisfying [keep];
    constants survive, provenance is preserved. *)
val filter : (Fact.t -> bool) -> t -> t

(** [restrict_color c t] is D↾G or D↾R (Section IV.A). *)
val restrict_color : Symbol.color -> t -> t

(** Daltonisation: erase all colors (Section IV.A). *)
val dalt : t -> t

(** Paint every fact. *)
val paint : Symbol.color -> t -> t

(** [quotient f t] renames every element through [f], merging elements
    that share an image.
    @raise Invalid_argument if a constant is not a fixed point of [f]. *)
val quotient : (int -> int) -> t -> t

(** Disjoint union of structures; constants are shared by name (the
    Section IX constructions rely on this).  Each part's other elements
    become fresh elements, part by part in ascending id order.  Also
    returns the per-part renamings. *)
val disjoint_union : t list -> t * (int -> int option) list

(** Equality as fact sets (same element identities). *)
val equal_sets : t -> t -> bool

val pp : Format.formatter -> t -> unit
val pp_stats : Format.formatter -> t -> unit
