module Graph = Rsin_flow.Graph
module Csr = Rsin_flow.Csr
module Dinic = Rsin_flow.Dinic
module Mincost = Rsin_flow.Mincost
module Obs = Rsin_obs.Obs
module Netgraph = Rsin_core.Netgraph
module Network = Rsin_topology.Network

(* A persistent flow network over the *whole* topology, compiled once by
   Netgraph.compile_full. Scheduling state is expressed purely through
   capacities (and, under the Mincost discipline, costs):

     s->p arc   cap 1 iff processor p has a pending request;
                cost -y_p (its priority) under Mincost, 0 under Maxflow
     r->t arc   cap 1 iff resource r is free
     link arc   cap 1 always; a link carried by an established circuit
                is saturated *and frozen* (residual capacity removed),
                so augmenting paths route around live circuits exactly
                as Transformation 1 step T4 excludes occupied links.

   Circuits that survive from earlier cycles therefore constitute a
   feasible flow of the current network, and a scheduling cycle is one
   warm augment call on the residual graph — never a rebuild:
   Dinic.augment under Maxflow, Mincost.augment under Mincost. The
   residual graph reachable from s is isomorphic to the from-scratch
   transformation graph of the same snapshot (frozen arcs contribute no
   residual capacity in either direction; switched-off arcs carry
   cap 0). Under Maxflow that makes warm cycles allocate exactly as many
   requests as from-scratch Transformation 1; under Mincost the
   min-cost augment maximizes allocation first and then
   total served priority — the same optimum Transformation 2's bypass
   costs select, because every extraction freezes the new flow, so each
   cycle starts from zero unfrozen flow. The differential tests pin both
   equivalences cycle by cycle. *)

type discipline = Maxflow | Mincost

(* Which representation holds the scheduling state. [Adjacency] is the
   original mutable Graph; [Csr] routes every state access (capacity,
   cost, flow, freeze/thaw) through the flat Netgraph.csr snapshot and
   solves with the zero-allocation Csr.dinic / Csr.mincost cores, so a
   warm cycle performs no minor-heap allocation inside the solver. The
   Graph is still used *structurally* (adjacency iteration during
   extraction) — the two representations share arc indices and the
   topology never changes after compile_full, only capacities do. *)
type backend = Adjacency | Csr

type circuit = {
  proc : int;
  res : int;
  links : int list;
  arcs : Graph.arc list;  (* s->p, link arcs..., r->t — all frozen *)
}

type t = {
  ng : Netgraph.t;
  discipline : discipline;
  csr : Csr.t option;                  (* Some iff backend = Csr *)
  frozen : bool array;                 (* per forward arc index a/2 *)
  mutable dirty : bool;
  mutable pending_ops : int;           (* capacity updates since last solve *)
  mutable total_work : int;            (* cumulative: updates + arcs scanned *)
}

let create ?(discipline = Maxflow) ?(backend = Adjacency) net =
  let ng = Netgraph.compile_full net in
  let csr = match backend with Adjacency -> None | Csr -> Some (Netgraph.csr ng) in
  { ng; discipline; csr;
    frozen = Array.make (Graph.arc_count (Netgraph.graph ng)) false;
    dirty = false; pending_ops = 0; total_work = 0 }

let backend t = match t.csr with None -> Adjacency | Some _ -> Csr

(* State dispatch: every capacity/cost/flow read or write goes through
   exactly one of the two representations. *)
let b_original_capacity t a =
  match t.csr with
  | None -> Graph.original_capacity (Netgraph.graph t.ng) a
  | Some c -> Csr.original_capacity c a

let b_flow t a =
  match t.csr with
  | None -> Graph.flow (Netgraph.graph t.ng) a
  | Some c -> Csr.flow c a

let b_cost t a =
  match t.csr with
  | None -> Graph.cost (Netgraph.graph t.ng) a
  | Some c -> Csr.cost c a

let b_set_capacity t a cap =
  match t.csr with
  | None -> Graph.set_capacity (Netgraph.graph t.ng) a cap
  | Some c -> Csr.set_capacity c a cap

let b_set_cost t a cost =
  match t.csr with
  | None -> Graph.set_cost (Netgraph.graph t.ng) a cost
  | Some c -> Csr.set_cost c a cost

let b_set_flow t a f =
  match t.csr with
  | None -> Graph.set_flow (Netgraph.graph t.ng) a f
  | Some c -> Csr.set_flow c a f

let b_freeze t a =
  match t.csr with
  | None -> Graph.freeze (Netgraph.graph t.ng) a
  | Some c -> Csr.freeze c a

let b_thaw t a =
  match t.csr with
  | None -> Graph.thaw (Netgraph.graph t.ng) a
  | Some c -> Csr.thaw c a

let graph t = Netgraph.graph t.ng
let netgraph t = t.ng
let discipline t = t.discipline
let dirty t = t.dirty
let total_work t = t.total_work
let source t = Netgraph.source t.ng
let sink t = Netgraph.sink t.ng

let sp_arc t p =
  match Netgraph.sp_arc t.ng p with
  | Some a -> a
  | None -> invalid_arg "Incremental: bad processor"

let rt_arc t r =
  match Netgraph.rt_arc t.ng r with
  | Some a -> a
  | None -> invalid_arg "Incremental: bad resource"

let touch ?(enables = false) t =
  t.pending_ops <- t.pending_ops + 1;
  t.total_work <- t.total_work + 1;
  (* Only added capacity can create a new augmenting path; removing
     capacity from an arc with zero flow cannot make the proved-maximal
     flow non-maximal, and cost updates cannot change reachability, so
     both leave a clean state clean. *)
  if enables then t.dirty <- true

let set_switch t a on =
  let cap = if on then 1 else 0 in
  if b_original_capacity t a <> cap then begin
    b_set_capacity t a cap;
    touch t ~enables:on
  end

let set_requesting t ?(priority = 0) p on =
  if priority < 0 then invalid_arg "Incremental.set_requesting: priority";
  let a = sp_arc t p in
  (match t.discipline with
  | Maxflow -> ()
  | Mincost ->
    (* Serving a high-priority request is a cheap path: cost -y_p. *)
    let cost = if on then -priority else 0 in
    if b_cost t a <> cost then begin
      b_set_cost t a cost;
      touch t
    end);
  set_switch t a on

let set_resource_free t r on = set_switch t (rt_arc t r) on

let set_link_usable t l on =
  match Netgraph.arc_of_link t.ng l with
  | None -> invalid_arg "Incremental.set_link_usable: bad link"
  | Some a ->
    if t.frozen.(a / 2) then
      invalid_arg
        "Incremental.set_link_usable: link carries a committed circuit \
         (release it first)";
    set_switch t a on
let requesting t p = b_original_capacity t (sp_arc t p) = 1
let resource_free t r = b_original_capacity t (rt_arc t r) = 1

(* Decompose only the flow added by the last augmentation: walk from the
   source along unfrozen forward arcs with undecomposed flow. Frozen
   flow belongs to complete committed s-t paths, so the unfrozen flow is
   itself a conserved integral flow and the greedy walk cannot strand. *)
let extract_new t =
  let g = graph t in
  let sink = sink t in
  let remaining = Array.make (Graph.arc_count g) 0 in
  let total = ref 0 in
  Graph.iter_forward_arcs g (fun a ->
      if not t.frozen.(a / 2) then remaining.(a / 2) <- b_flow t a);
  let np = Network.n_procs (Netgraph.network t.ng) in
  for p = 0 to np - 1 do
    let a = sp_arc t p in
    total := !total + remaining.(a / 2)
  done;
  let next_arc v =
    Graph.fold_out g v ~init:None ~f:(fun acc a ->
        match acc with
        | Some _ -> acc
        | None ->
          if Graph.is_forward a && remaining.(a / 2) > 0 then Some a else None)
  in
  let n = Graph.node_count g in
  let rec walk v arcs steps =
    if v = sink then List.rev arcs
    else if steps > n then
      failwith "Incremental.extract_new: flow contains a cycle"
    else
      match next_arc v with
      | None -> failwith "Incremental.extract_new: stranded flow"
      | Some a ->
        remaining.(a / 2) <- remaining.(a / 2) - 1;
        walk (Graph.dst g a) (a :: arcs) (steps + 1)
  in
  List.init !total (fun _ ->
      let arcs = walk (source t) [] 0 in
      let proc =
        match arcs with
        | sp :: _ ->
          (match Netgraph.proc_of_node t.ng (Graph.dst g sp) with
          | Some p -> p
          | None -> failwith "Incremental.extract_new: no processor")
        | [] -> failwith "Incremental.extract_new: empty path"
      in
      let res =
        match List.rev arcs with
        | rt :: _ ->
          (match Netgraph.res_of_node t.ng (Graph.src g rt) with
          | Some r -> r
          | None -> failwith "Incremental.extract_new: no resource")
        | [] -> failwith "Incremental.extract_new: empty path"
      in
      let links =
        List.filter_map (fun a -> Netgraph.link_of_arc t.ng a) arcs
      in
      List.iter
        (fun a ->
          b_freeze t a;
          t.frozen.(a / 2) <- true)
        arcs;
      { proc; res; links; arcs })

type solve_result = {
  circuits : circuit list;
  work : int;       (* capacity updates since last solve + arcs scanned *)
  skipped : bool;   (* clean residual graph: nothing could have changed *)
}

let solve ?obs t =
  let updates = t.pending_ops in
  t.pending_ops <- 0;
  if not t.dirty then { circuits = []; work = updates; skipped = true }
  else begin
    let scanned =
      match (t.csr, t.discipline) with
      | None, Maxflow ->
        let _added, (st : Dinic.stats) =
          Dinic.augment ?obs (graph t) ~source:(source t) ~sink:(sink t)
        in
        st.arcs_scanned
      | None, Mincost ->
        let r =
          Mincost.augment ?obs (graph t) ~source:(source t) ~sink:(sink t)
        in
        r.stats.arcs_scanned
      | Some c, Maxflow ->
        let _added = Csr.dinic c ~source:(source t) ~sink:(sink t) in
        let s = Csr.last_stats c in
        Obs.count obs "flow.dinic_csr.runs" 1;
        Obs.count obs "flow.dinic_csr.phases" s.Csr.passes;
        Obs.count obs "flow.dinic_csr.augmentations" s.Csr.augmentations;
        Obs.count obs "flow.dinic_csr.arcs_scanned" s.Csr.arcs_scanned;
        s.Csr.arcs_scanned
      | Some c, Mincost ->
        let _added = Csr.mincost c ~source:(source t) ~sink:(sink t) in
        let s = Csr.last_stats c in
        Obs.count obs "flow.mincost_csr.runs" 1;
        Obs.count obs "flow.mincost_csr.phases" s.Csr.passes;
        Obs.count obs "flow.mincost_csr.augmentations" s.Csr.augmentations;
        Obs.count obs "flow.mincost_csr.arcs_scanned" s.Csr.arcs_scanned;
        s.Csr.arcs_scanned
    in
    t.dirty <- false;
    t.total_work <- t.total_work + scanned;
    let circuits = extract_new t in
    { circuits; work = updates + scanned; skipped = false }
  end

let release t (c : circuit) =
  List.iter
    (fun a ->
      if not t.frozen.(a / 2) then
        invalid_arg "Incremental.release: circuit not committed";
      t.frozen.(a / 2) <- false;
      b_thaw t a;
      b_set_flow t a 0;
      t.pending_ops <- t.pending_ops + 1;
      t.total_work <- t.total_work + 1)
    c.arcs;
  (* The request was served and the resource enters service: switch both
     endpoint arcs off until the engine re-enables them. *)
  b_set_capacity t (sp_arc t c.proc) 0;
  if t.discipline = Mincost then b_set_cost t (sp_arc t c.proc) 0;
  b_set_capacity t (rt_arc t c.res) 0;
  (* Freed links may unblock a request that was proved unroutable. *)
  t.dirty <- true

let pending_ops t = t.pending_ops

(* Checkpoint restore: re-freeze a circuit that was committed before the
   snapshot into a freshly compiled warm graph. Equivalent to the state
   solve+extract_new left behind — unit flow on every path arc, residual
   capacity removed — but driven from the serialized link list instead of
   a solver run. Deliberately does not touch [dirty]/[pending_ops]/
   [total_work]: the snapshot carries those verbatim and the caller
   reinstates them with {!restore_flags}, so the restored engine's
   skip/work trajectory matches the uninterrupted run exactly. *)
let restore_circuit t ~proc ~res ~links =
  let arc_of_link l =
    match Netgraph.arc_of_link t.ng l with
    | Some a -> a
    | None -> invalid_arg "Incremental.restore_circuit: bad link"
  in
  let arcs = (sp_arc t proc :: List.map arc_of_link links) @ [ rt_arc t res ] in
  List.iter
    (fun a ->
      if t.frozen.(a / 2) then
        invalid_arg "Incremental.restore_circuit: arc already frozen";
      b_set_capacity t a 1;
      b_set_flow t a 1;
      b_freeze t a;
      t.frozen.(a / 2) <- true)
    arcs;
  { proc; res; links; arcs }

let restore_flags t ~dirty ~pending_ops ~total_work =
  if pending_ops < 0 || total_work < 0 then
    invalid_arg "Incremental.restore_flags: negative counter";
  t.dirty <- dirty;
  t.pending_ops <- pending_ops;
  t.total_work <- total_work

let check t =
  match t.csr with
  | None -> Graph.check_conservation (graph t) ~source:(source t) ~sink:(sink t)
  | Some c -> Csr.check_conservation c ~source:(source t) ~sink:(sink t)
