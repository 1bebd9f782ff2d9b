(* Labelled digraphs as typed views over a structure (graph_view.mli):
   the edge H(ℓ, x, y) is the binary fact sym(ℓ)(x, y). *)

module type LABEL = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
  val symbol : t -> Symbol.t
  val of_symbol : Symbol.t -> t option
end

module Make (Label : LABEL) = struct
  type edge = { label : Label.t; src : int; dst : int }

  module Label_tbl = Hashtbl.Make (struct
    type t = Label.t

    let equal a b = a == b || Label.compare a b = 0
    let hash = Hashtbl.hash
  end)

  (* A label's symbol, and its interned id in this view's structure once
     a fact has interned it ([-1] until then).  Interned ids are per
     structure, so every view (a copy included) keeps its own map. *)
  type sym_entry = { sym : Symbol.t; mutable sid : int }

  type t = {
    st : Structure.t;
    syms : sym_entry Label_tbl.t;  (* label -> symbol *)
    mutable labels : Label.t option array;  (* symbol id -> label, once decoded *)
    mutable sorted : int array;  (* every symbol id, in label order *)
  }

  let symbol_of = Label.symbol
  let structure t = t.st

  let entry t lab =
    match Label_tbl.find t.syms lab with
    | e -> e
    | exception Not_found ->
        let e = { sym = Label.symbol lab; sid = -1 } in
        Label_tbl.add t.syms lab e;
        e

  let sid_of t lab =
    let e = entry t lab in
    if e.sid < 0 then e.sid <- Structure.sym_id t.st e.sym;
    e.sid

  let label_of_sid t sid =
    if sid >= Array.length t.labels then begin
      let grown = Array.make (max 8 (2 * (sid + 1))) None in
      Array.blit t.labels 0 grown 0 (Array.length t.labels);
      t.labels <- grown
    end;
    match t.labels.(sid) with
    | Some lab -> lab
    | None -> (
        let sym = Structure.sym_of_id t.st sid in
        match Label.of_symbol sym with
        | Some lab ->
            t.labels.(sid) <- Some lab;
            lab
        | None ->
            invalid_arg
              (Format.asprintf "Graph_view: %a is no edge label's symbol"
                 Symbol.pp sym))

  let of_structure st =
    let t = { st; syms = Label_tbl.create 16; labels = [||]; sorted = [||] } in
    for sid = 0 to Structure.n_sym_ids st - 1 do
      ignore (label_of_sid t sid)
    done;
    t

  let create () = of_structure (Structure.create ())

  let edge_of_id t id =
    {
      label = label_of_sid t (Structure.id_sym t.st id);
      src = Structure.id_arg t.st id 0;
      dst = Structure.id_arg t.st id 1;
    }

  (* Bucket ids as edges, newest first. *)
  let edges_of_ids t ids =
    Intvec.fold_left (fun acc id -> edge_of_id t id :: acc) [] ids

  let fresh ?name t = Structure.fresh ?name t.st
  let register t v = Structure.reserve t.st v
  let name t v = Structure.name t.st v
  let set_name t v n = Structure.set_name t.st v n

  let edge_fact t lab src dst = Fact.app2 (entry t lab).sym src dst
  let mem_edge t e = Structure.mem t.st (edge_fact t e.label e.src e.dst)

  let add_edge t label src dst =
    register t src;
    register t dst;
    Structure.add_fact t.st (edge_fact t label src dst)

  let remove_edge t label src dst =
    Structure.retract_fact t.st (edge_fact t label src dst)

  let next_vertex t = Structure.elem_bound t.st

  let watermark t = Structure.watermark t.st

  let delta_since t wm =
    let acc = ref [] in
    for id = Structure.watermark t.st - 1 downto max wm 0 do
      if Structure.live_id t.st id then acc := edge_of_id t id :: !acc
    done;
    !acc

  (* (label, src, dst) order, not journal order: the swarm chase fires
     in it, so its fresh vertex ids depend on it.  Symbol ids are sorted
     by label once per new symbol, each label's edges by endpoints. *)
  let edges t =
    let n = Structure.n_sym_ids t.st in
    if Array.length t.sorted <> n then begin
      t.sorted <- Array.init n Fun.id;
      Array.stable_sort
        (fun a b -> Label.compare (label_of_sid t a) (label_of_sid t b))
        t.sorted
    end;
    let by_ends a b =
      let c = Int.compare a.src b.src in
      if c <> 0 then c else Int.compare a.dst b.dst
    in
    Array.fold_right
      (fun sid acc ->
        List.sort by_ends (edges_of_ids t (Structure.ids_with_sym t.st sid)) @ acc)
      t.sorted []

  let iter_edges t f = List.iter f (edges t)
  let size t = Structure.size t.st
  let order t = Structure.card t.st
  let vertices t = Structure.elems t.st

  let with_label t lab =
    Intvec.fold_left
      (fun acc id ->
        let src = Structure.id_arg t.st id 0 and dst = Structure.id_arg t.st id 1 in
        { label = lab; src; dst } :: acc)
      [] (Structure.ids_with_sym t.st (sid_of t lab))

  let incident t pos v =
    Intvec.fold_left
      (fun acc id ->
        if Structure.id_arg t.st id pos = v then edge_of_id t id :: acc else acc)
      [] (Structure.ids_with_elem t.st v)

  let out_edges t v = incident t 0 v
  let in_edges t v = incident t 1 v

  let out_edges_with t v lab =
    edges_of_ids t (Structure.ids_with_pin t.st (sid_of t lab) 0 v)

  let in_edges_with t v lab =
    edges_of_ids t (Structure.ids_with_pin t.st (sid_of t lab) 1 v)

  let copy t = of_structure (Structure.copy t.st)
  let equal a b = Structure.equal_sets a.st b.st

  let map_vertices f t = of_structure (Structure.quotient f t.st)

  let pp_dot ?(edge_color = fun _ -> "black") ppf t =
    Fmt.pf ppf "digraph g {@.";
    List.iter
      (fun v -> Fmt.pf ppf "  n%d [label=\"%s\"];@." v (name t v))
      (vertices t);
    iter_edges t (fun e ->
        Fmt.pf ppf "  n%d -> n%d [label=\"%a\", color=%s];@." e.src e.dst
          Label.pp e.label (edge_color e.label));
    Fmt.pf ppf "}@."
end
