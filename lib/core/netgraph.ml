module Graph = Rsin_flow.Graph
module Network = Rsin_topology.Network

(* The one place in the repository where an MRSIN snapshot is scanned
   into a flow graph. Transformation 1, Transformation 2, the
   heterogeneous LP view and the online engine's persistent graph are
   all parameterizations of this compiler; none of them look at
   Network.link_src / Box_in themselves. *)

type t = {
  net : Network.t;
  graph : Graph.t;
  source : Graph.node;
  sink : Graph.node;
  bypass : Graph.node option;
  procs : int array;                   (* processor -> graph node or -1 *)
  ress : int array;                    (* resource  -> graph node or -1 *)
  boxes : int array;                   (* box       -> graph node *)
  sp : int array;                      (* processor -> s->p arc or -1 *)
  rt : int array;                      (* resource  -> r->t arc or -1 *)
  proc_of_node_ : int array;           (* graph node -> processor or -1 *)
  res_of_node_ : int array;            (* graph node -> resource or -1 *)
  link_of_arc_ : (int, int) Hashtbl.t; (* link arc -> network link *)
  arc_of_link_ : (int, int) Hashtbl.t; (* network link -> link arc *)
  link_arcs : (int * int) array;       (* (arc, link), in link-scan order *)
  mutable csr_ : Rsin_flow.Csr.t option; (* lazy flat emission of [graph] *)
}

(* Shared free-link scan: one arc per link whose endpoints both survive
   in the graph. [keep] decides per-link inclusion (snapshot mode keeps
   free links only; full mode keeps every link, encoding occupancy as
   capacity 0). *)
let scan_links net graph ~procs ~ress ~boxes ~cap_of =
  let link_of_arc = Hashtbl.create 64 in
  let arc_of_link = Hashtbl.create 64 in
  let arcs = ref [] in
  for l = 0 to Network.n_links net - 1 do
    match cap_of l with
    | None -> ()
    | Some cap ->
      let node_of = function
        | Network.Proc p -> if procs.(p) >= 0 then Some procs.(p) else None
        | Network.Res r -> if ress.(r) >= 0 then Some ress.(r) else None
        | Network.Box_in (b, _) | Network.Box_out (b, _) -> Some boxes.(b)
      in
      (match
         (node_of (Network.link_src net l), node_of (Network.link_dst net l))
       with
      | Some u, Some v ->
        let a = Graph.add_arc graph ~src:u ~dst:v ~cap in
        Hashtbl.replace link_of_arc a l;
        Hashtbl.replace arc_of_link l a;
        arcs := (a, l) :: !arcs
      | _ -> ())
  done;
  (link_of_arc, arc_of_link, Array.of_list (List.rev !arcs))

let reverse_tables graph ~procs ~ress =
  let n = Graph.node_count graph in
  let proc_of = Array.make n (-1) and res_of = Array.make n (-1) in
  Array.iteri (fun p v -> if v >= 0 then proc_of.(v) <- p) procs;
  Array.iteri (fun r v -> if v >= 0 then res_of.(v) <- r) ress;
  (proc_of, res_of)

let check_unique what xs =
  let sorted = List.sort compare xs in
  let rec dup = function
    | a :: (b :: _ as tl) -> a = b || dup tl
    | _ -> false
  in
  if dup sorted then invalid_arg ("Netgraph.compile: duplicate " ^ what)

let compile ?bypass_cost net ~requests ~free =
  let np = Network.n_procs net and nr = Network.n_res net in
  check_unique "processor" (List.map fst requests);
  check_unique "resource" (List.map fst free);
  List.iter
    (fun (p, _) ->
      if p < 0 || p >= np then invalid_arg "Netgraph.compile: bad processor")
    requests;
  List.iter
    (fun (r, _) ->
      if r < 0 || r >= nr then invalid_arg "Netgraph.compile: bad resource")
    free;
  let g = Graph.create () in
  let source = Graph.add_node g and sink = Graph.add_node g in
  let bypass =
    match bypass_cost with Some _ -> Some (Graph.add_node g) | None -> None
  in
  let procs = Array.make np (-1) and ress = Array.make nr (-1) in
  let boxes = Array.init (Network.n_boxes net) (fun _ -> Graph.add_node g) in
  List.iter (fun (p, _) -> procs.(p) <- Graph.add_node g) requests;
  List.iter (fun (r, _) -> ress.(r) <- Graph.add_node g) free;
  let sp = Array.make np (-1) and rt = Array.make nr (-1) in
  (* S arcs (step T2/T3), with the per-request bypass escape when the
     compilation carries costs (Transformation 2's L rule). *)
  List.iter
    (fun (p, cost) ->
      sp.(p) <- Graph.add_arc g ~cost ~src:source ~dst:procs.(p) ~cap:1;
      match (bypass, bypass_cost) with
      | Some u, Some c ->
        ignore (Graph.add_arc g ~cost:c ~src:procs.(p) ~dst:u ~cap:1)
      | _ -> ())
    requests;
  (match (bypass, bypass_cost) with
  | Some u, Some c ->
    ignore (Graph.add_arc g ~cost:c ~src:u ~dst:sink ~cap:(List.length requests))
  | _ -> ());
  (* T arcs. *)
  List.iter
    (fun (r, cost) -> rt.(r) <- Graph.add_arc g ~cost ~src:ress.(r) ~dst:sink ~cap:1)
    free;
  (* B arcs: one per free link whose endpoints survive (step T4 drops
     occupied links, idle processors and busy resources). *)
  let link_of_arc_, arc_of_link_, link_arcs =
    scan_links net g ~procs ~ress ~boxes ~cap_of:(fun l ->
        match Network.link_state net l with
        | Network.Free when Network.usable net l -> Some 1
        | Network.Free | Network.Occupied _ -> None)
  in
  let proc_of_node_, res_of_node_ = reverse_tables g ~procs ~ress in
  { net; graph = g; source; sink; bypass; procs; ress; boxes; sp; rt;
    proc_of_node_; res_of_node_; link_of_arc_; arc_of_link_; link_arcs;
    csr_ = None }

let compile_full net =
  let np = Network.n_procs net and nr = Network.n_res net in
  let g = Graph.create () in
  let source = Graph.add_node g and sink = Graph.add_node g in
  let boxes = Array.init (Network.n_boxes net) (fun _ -> Graph.add_node g) in
  let procs = Array.init np (fun _ -> Graph.add_node g) in
  let ress = Array.init nr (fun _ -> Graph.add_node g) in
  let sp = Array.map (fun p -> Graph.add_arc g ~src:source ~dst:p ~cap:0) procs in
  let rt = Array.map (fun r -> Graph.add_arc g ~src:r ~dst:sink ~cap:0) ress in
  let link_of_arc_, arc_of_link_, link_arcs =
    scan_links net g ~procs ~ress ~boxes ~cap_of:(fun l ->
        match Network.link_state net l with
        | Network.Free when Network.usable net l -> Some 1
        | Network.Free | Network.Occupied _ -> Some 0)
  in
  let proc_of_node_, res_of_node_ = reverse_tables g ~procs ~ress in
  { net; graph = g; source; sink; bypass = None; procs; ress; boxes; sp; rt;
    proc_of_node_; res_of_node_; link_of_arc_; arc_of_link_; link_arcs;
    csr_ = None }

(* --- accessors ---------------------------------------------------------- *)

let graph t = t.graph

(* CSR emission: both compilers add every node and arc before the result
   escapes, so the structure is final by the time anyone can ask — the
   snapshot is taken once and then owns all scheduling state (the mirror
   Graph goes stale; Incremental routes every state access through the
   snapshot, and uses the Graph only structurally). Arc
   indices are shared between the two representations, so sp/rt/link_arcs
   address either one. *)
let csr t =
  match t.csr_ with
  | Some c -> c
  | None ->
    let c = Rsin_flow.Csr.of_graph t.graph in
    t.csr_ <- Some c;
    c

let source t = t.source
let sink t = t.sink
let bypass t = t.bypass
let network t = t.net

let proc_node t p =
  if p < 0 || p >= Array.length t.procs then invalid_arg "Netgraph.proc_node";
  if t.procs.(p) >= 0 then Some t.procs.(p) else None

let res_node t r =
  if r < 0 || r >= Array.length t.ress then invalid_arg "Netgraph.res_node";
  if t.ress.(r) >= 0 then Some t.ress.(r) else None

let box_node t b =
  if b < 0 || b >= Array.length t.boxes then invalid_arg "Netgraph.box_node";
  t.boxes.(b)

let proc_of_node t v =
  if v < 0 || v >= Array.length t.proc_of_node_ then
    invalid_arg "Netgraph.proc_of_node";
  if t.proc_of_node_.(v) >= 0 then Some t.proc_of_node_.(v) else None

let res_of_node t v =
  if v < 0 || v >= Array.length t.res_of_node_ then
    invalid_arg "Netgraph.res_of_node";
  if t.res_of_node_.(v) >= 0 then Some t.res_of_node_.(v) else None

let sp_arc t p =
  if p < 0 || p >= Array.length t.sp then invalid_arg "Netgraph.sp_arc";
  if t.sp.(p) >= 0 then Some t.sp.(p) else None

let rt_arc t r =
  if r < 0 || r >= Array.length t.rt then invalid_arg "Netgraph.rt_arc";
  if t.rt.(r) >= 0 then Some t.rt.(r) else None

let link_of_arc t a = Hashtbl.find_opt t.link_of_arc_ a
let arc_of_link t l = Hashtbl.find_opt t.arc_of_link_ l
let link_arcs t = t.link_arcs
let size t = (Graph.node_count t.graph, Graph.arc_count t.graph)

(* --- flow -> circuits / mapping extraction ------------------------------ *)

type extraction = {
  mapping : (int * int) list;
  circuits : (int * int list) list;
  bypassed : int list;
  allocation_cost : int;
}

let extract t =
  let g = t.graph in
  let paths = Rsin_flow.Decompose.unit_paths g ~source:t.source ~sink:t.sink in
  let mapping = ref [] and circuits = ref [] and bypassed = ref [] in
  let alloc_cost = ref 0 in
  List.iter
    (fun nodes ->
      match nodes with
      | _s :: p :: rest
        when (match t.bypass with Some u -> List.mem u rest | None -> false) ->
        bypassed := t.proc_of_node_.(p) :: !bypassed
      | _s :: (p :: _ as rest) ->
        let rec last2 = function
          | [ r; _t ] -> r
          | _ :: tl -> last2 tl
          | [] -> failwith "Netgraph.extract: short path"
        in
        let r = last2 rest in
        mapping := (t.proc_of_node_.(p), t.res_of_node_.(r)) :: !mapping;
        let arcs = Rsin_flow.Decompose.path_arcs g nodes in
        List.iter (fun a -> alloc_cost := !alloc_cost + Graph.cost g a) arcs;
        let links =
          List.filter_map (fun a -> Hashtbl.find_opt t.link_of_arc_ a) arcs
        in
        circuits := (t.proc_of_node_.(p), links) :: !circuits
      | _ -> failwith "Netgraph.extract: short path")
    paths;
  { mapping = List.rev !mapping;
    circuits = List.rev !circuits;
    bypassed = List.rev !bypassed;
    allocation_cost = !alloc_cost }

(* After a max flow, translate the saturated min-cut arcs back to
   network terms: contended links, or endpoint arcs whose own unit
   capacity binds. *)
let cut_members t cut =
  List.filter_map
    (fun a ->
      match Hashtbl.find_opt t.link_of_arc_ a with
      | Some l -> Some (`Link l)
      | None ->
        let s = Graph.src t.graph a and d = Graph.dst t.graph a in
        if s = t.source then
          Option.map (fun p -> `Proc p) (proc_of_node t d)
        else Option.map (fun r -> `Res r) (res_of_node t s))
    cut
