(* Edge-labelled directed multigraphs with edge deduplication and endpoint
   indices.  Swarms (edges labelled by ideal spiders) and green graphs
   (edges labelled by S̄) are both instances. *)

module type LABEL = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (Label : LABEL) = struct
  type edge = { label : Label.t; src : int; dst : int }

  let edge_compare (a : edge) (b : edge) =
    let c = Label.compare a.label b.label in
    if c <> 0 then c
    else
      let c = Int.compare a.src b.src in
      if c <> 0 then c else Int.compare a.dst b.dst

  module Edge_set = Set.Make (struct
    type t = edge
    let compare = edge_compare
  end)

  module Label_key = struct
    type t = Label.t
    let equal a b = Label.compare a b = 0
    let hash = Hashtbl.hash
  end

  module Label_tbl = Hashtbl.Make (Label_key)

  module Edge_tbl = Hashtbl.Make (struct
    type t = edge

    let equal a b = edge_compare a b = 0
    let hash (e : edge) = Hashtbl.hash (Hashtbl.hash e.label, e.src, e.dst)
  end)

  (* (vertex, label) adjacency buckets — the graph analog of the
     relational (symbol, position, element) pin index: joins that fix one
     endpoint and a label read their candidates off directly instead of
     filtering every edge at a possibly high-degree vertex. *)
  module Vlab_tbl = Hashtbl.Make (struct
    type t = int * Label.t

    let equal (v1, l1) (v2, l2) = v1 = v2 && Label.compare l1 l2 = 0
    let hash (v, l) = Hashtbl.hash (v, Hashtbl.hash l)
  end)

  (* Journal cells carry a liveness bit: a removed edge's entry becomes a
     tombstone so old watermarks keep their positions, and a re-added
     edge gets a fresh cell — the resurrection lands in the current
     delta, mirroring the relational fact arena. *)
  type jcell = { je : edge; mutable jlive : bool }

  type t = {
    mutable next : int;
    mutable edges : Edge_set.t;
    by_src : (int, edge list ref) Hashtbl.t;
    by_dst : (int, edge list ref) Hashtbl.t;
    by_label : edge list ref Label_tbl.t;
    by_src_lab : edge list ref Vlab_tbl.t;
    by_dst_lab : edge list ref Vlab_tbl.t;
    names : (int, string) Hashtbl.t;
    mutable vertices : (int, unit) Hashtbl.t;
    mutable journal : jcell array; (* delta journal, oldest first *)
    mutable journal_len : int;
    jpos : int Edge_tbl.t; (* live edge -> its journal cell *)
    dg : Relational.Digest128.t; (* incremental journal digest *)
    mutable dg_wm : int; (* journal cells fed so far *)
    mutable dg_valid : bool; (* false: refeed from cell 0 *)
  }

  let create () =
    {
      next = 0;
      edges = Edge_set.empty;
      by_src = Hashtbl.create 64;
      by_dst = Hashtbl.create 64;
      by_label = Label_tbl.create 32;
      by_src_lab = Vlab_tbl.create 64;
      by_dst_lab = Vlab_tbl.create 64;
      names = Hashtbl.create 16;
      vertices = Hashtbl.create 64;
      journal = [||];
      journal_len = 0;
      jpos = Edge_tbl.create 64;
      dg = Relational.Digest128.create ();
      dg_wm = 0;
      dg_valid = true;
    }

  let journal_push t e =
    let n = Array.length t.journal in
    if t.journal_len >= n then begin
      let grown =
        Array.make (max 16 (2 * n)) { je = e; jlive = false }
      in
      Array.blit t.journal 0 grown 0 t.journal_len;
      t.journal <- grown
    end;
    t.journal.(t.journal_len) <- { je = e; jlive = true };
    Edge_tbl.replace t.jpos e t.journal_len;
    t.journal_len <- t.journal_len + 1

  let register t v =
    if not (Hashtbl.mem t.vertices v) then Hashtbl.replace t.vertices v ();
    if v >= t.next then t.next <- v + 1

  let fresh ?name t =
    let v = t.next in
    t.next <- v + 1;
    Hashtbl.replace t.vertices v ();
    (match name with Some n -> Hashtbl.replace t.names v n | None -> ());
    v

  let name t v =
    match Hashtbl.find_opt t.names v with
    | Some n -> n
    | None -> string_of_int v

  let set_name t v n = Hashtbl.replace t.names v n

  let mem_edge t e = Edge_set.mem e t.edges

  let add_edge t label src dst =
    let e = { label; src; dst } in
    if Edge_set.mem e t.edges then false
    else begin
      t.edges <- Edge_set.add e t.edges;
      register t src;
      register t dst;
      let push tbl k =
        let r =
          match Hashtbl.find_opt tbl k with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.replace tbl k r;
              r
        in
        r := e :: !r
      in
      push t.by_src src;
      push t.by_dst dst;
      let r =
        match Label_tbl.find_opt t.by_label label with
        | Some r -> r
        | None ->
            let r = ref [] in
            Label_tbl.replace t.by_label label r;
            r
      in
      r := e :: !r;
      let push_vlab tbl k =
        let r =
          match Vlab_tbl.find_opt tbl k with
          | Some r -> r
          | None ->
              let r = ref [] in
              Vlab_tbl.replace tbl k r;
              r
        in
        r := e :: !r
      in
      push_vlab t.by_src_lab (src, label);
      push_vlab t.by_dst_lab (dst, label);
      journal_push t e;
      true
    end

  (* Remove a live edge from the edge set and every index bucket; its
     journal cell becomes a tombstone, so watermarks taken before the
     removal stay valid.  Returns [false] if the edge was not present.
     Endpoints stay registered. *)
  let remove_edge t label src dst =
    let e = { label; src; dst } in
    if not (Edge_set.mem e t.edges) then false
    else begin
      t.edges <- Edge_set.remove e t.edges;
      let drop tbl k =
        match Hashtbl.find_opt tbl k with
        | Some r -> r := List.filter (fun e' -> edge_compare e e' <> 0) !r
        | None -> ()
      in
      drop t.by_src src;
      drop t.by_dst dst;
      (match Label_tbl.find_opt t.by_label label with
      | Some r -> r := List.filter (fun e' -> edge_compare e e' <> 0) !r
      | None -> ());
      let drop_vlab tbl k =
        match Vlab_tbl.find_opt tbl k with
        | Some r -> r := List.filter (fun e' -> edge_compare e e' <> 0) !r
        | None -> ()
      in
      drop_vlab t.by_src_lab (src, label);
      drop_vlab t.by_dst_lab (dst, label);
      (match Edge_tbl.find_opt t.jpos e with
      | Some i ->
          t.journal.(i).jlive <- false;
          Edge_tbl.remove t.jpos e;
          (* Tombstoning below the digest watermark falsifies the fed
             prefix; the next digest refeeds the journal (streamed). *)
          if i < t.dg_wm then t.dg_valid <- false
      | None -> ());
      true
    end

  (* Every registered vertex id is [< next_vertex t] ([register] bumps
     [next] past any id it sees), so [next_vertex] bounds vertex ids for
     packed-integer keys over vertex pairs. *)
  let next_vertex t = t.next

  (* Delta journal: every added edge in insertion order; a watermark marks
     a position so semi-naive rule engines can match against only the
     edges added since the previous stage.  Tombstoned (removed) entries
     are skipped. *)
  let watermark t = t.journal_len

  let delta_since t wm =
    let acc = ref [] in
    for i = t.journal_len - 1 downto max wm 0 do
      let c = t.journal.(i) in
      if c.jlive then acc := c.je :: !acc
    done;
    !acc

  (* Canonical 128-bit digest of the graph's build history: live journal
     cells in order (label rendered through [Label.pp], endpoints by
     vertex id) plus the vertex count.  Mirrors
     {!Relational.Structure.digest_hex}: lazy incremental feed from a
     watermark, streamed full refeed after a tombstone below it, no
     O(journal) intermediate string.  Copies rebuild their own journal in
     set order and digest accordingly. *)
  let digest_hex t =
    if not t.dg_valid then begin
      Relational.Digest128.reset t.dg;
      t.dg_wm <- 0;
      t.dg_valid <- true
    end;
    for i = t.dg_wm to t.journal_len - 1 do
      let c = t.journal.(i) in
      if c.jlive then begin
        Relational.Digest128.feed_string t.dg
          (Format.asprintf "%a" Label.pp c.je.label);
        Relational.Digest128.feed_int t.dg c.je.src;
        Relational.Digest128.feed_int t.dg c.je.dst
      end
    done;
    t.dg_wm <- t.journal_len;
    Relational.Digest128.hex ~salt:[ Hashtbl.length t.vertices ] t.dg

  let edges t = Edge_set.elements t.edges
  let size t = Edge_set.cardinal t.edges
  let order t = Hashtbl.length t.vertices
  let vertices t = Hashtbl.fold (fun v () acc -> v :: acc) t.vertices []

  let out_edges t v =
    match Hashtbl.find_opt t.by_src v with Some r -> !r | None -> []

  let in_edges t v =
    match Hashtbl.find_opt t.by_dst v with Some r -> !r | None -> []

  let out_edges_with t v lab =
    match Vlab_tbl.find_opt t.by_src_lab (v, lab) with
    | Some r -> !r
    | None -> []

  let in_edges_with t v lab =
    match Vlab_tbl.find_opt t.by_dst_lab (v, lab) with
    | Some r -> !r
    | None -> []

  let exists_edge t p = Edge_set.exists p t.edges
  let find_edges t p = List.filter p (edges t)

  let with_label t label =
    match Label_tbl.find_opt t.by_label label with Some r -> !r | None -> []

  let iter_edges t f = Edge_set.iter f t.edges

  (* Read-only views of the label and (vertex, label) indices as they
     stand, including the buckets a removal emptied, which stay in the
     index: their bucket counts in O(1), and folds over their buckets in
     no particular order.  They let an audit find buckets no live edge
     accounts for. *)
  let bucket_counts t =
    (Label_tbl.length t.by_label, Vlab_tbl.length t.by_src_lab,
     Vlab_tbl.length t.by_dst_lab)

  let fold_label_buckets t f acc =
    Label_tbl.fold (fun lab r acc -> f lab !r acc) t.by_label acc

  let fold_out_pins t f acc =
    Vlab_tbl.fold (fun (v, lab) r acc -> f v lab !r acc) t.by_src_lab acc

  let fold_in_pins t f acc =
    Vlab_tbl.fold (fun (v, lab) r acc -> f v lab !r acc) t.by_dst_lab acc

  let copy t =
    let u = create () in
    u.next <- t.next;
    Hashtbl.iter (fun v () -> Hashtbl.replace u.vertices v ()) t.vertices;
    Hashtbl.iter (fun v n -> Hashtbl.replace u.names v n) t.names;
    iter_edges t (fun e -> ignore (add_edge u e.label e.src e.dst));
    u

  let equal a b = Edge_set.equal a.edges b.edges

  (* Quotient: rename every vertex through [f], merging those that share
     an image (used to fold chase prefixes into finite-model candidates). *)
  let map_vertices f t =
    let u = create () in
    Hashtbl.iter (fun v () -> register u (f v)) t.vertices;
    Hashtbl.iter
      (fun v n -> if f v = v then Hashtbl.replace u.names v n)
      t.names;
    iter_edges t (fun e -> ignore (add_edge u e.label (f e.src) (f e.dst)));
    u

  let pp ppf t =
    let pp_edge ppf e =
      Fmt.pf ppf "%a(%s→%s)" Label.pp e.label (name t e.src) (name t e.dst)
    in
    Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_edge) (edges t)

  (* Graphviz export, for inspecting chases and grids visually.
     [edge_color] may map a label to a DOT color name. *)
  let pp_dot ?(edge_color = fun _ -> "black") ppf t =
    Fmt.pf ppf "digraph g {@.";
    List.iter
      (fun v -> Fmt.pf ppf "  n%d [label=\"%s\"];@." v (name t v))
      (List.sort compare (vertices t));
    iter_edges t (fun e ->
        Fmt.pf ppf "  n%d -> n%d [label=\"%a\", color=%s];@." e.src e.dst
          Label.pp e.label (edge_color e.label));
    Fmt.pf ppf "}@."
end
