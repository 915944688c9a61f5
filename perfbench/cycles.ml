(* Per-cycle records of a traced run, their replay into the benchmark's
   own Incremental.t and a lockstep Csr replica, and the from-scratch
   reference check.

   The engine's cycle_hook fires after the cycle's solve and before its
   circuits are committed, so the network it is handed shows the
   pre-commit state. From it we record what a cycle starts from: the
   requests with their priorities, the free resource ports, the
   processors holding a live circuit and the unusable links; and what
   the cycle decided: its mapping. Replaying those states in order into
   a fresh Incremental.t of the same discipline and backend must give
   the engine's mapping again, cycle by cycle; that is what lets the
   benchmark time Incremental's public calls from outside the engine. *)

module Network = Rsin_topology.Network
module Engine = Rsin_engine.Engine
module Incremental = Rsin_engine.Incremental
module Netgraph = Rsin_core.Netgraph
module Transform1 = Rsin_core.Transform1
module Transform2 = Rsin_core.Transform2
module Csr = Rsin_flow.Csr

type record = {
  time : int;
  requests : (int * int) list;  (* (processor, queue-head priority) *)
  free : int list;
  mapping : (int * int) list;
  live : int list;  (* processors holding a live circuit *)
  unusable : int list;
  snapshot : Network.t option;  (* sampled pre-commit copy *)
  work : int;
  hook_t0 : float;  (* when the hook was entered and left, ns *)
  mutable hook_t1 : float;
}

type recorder = {
  mutable records : record list;  (* newest first *)
  mutable seen : int;
  sample_every : int;
}

let recorder ~sample_every = { records = []; seen = 0; sample_every }

let live_procs net =
  List.filter_map
    (fun (_id, links) ->
      match links with
      | l :: _ -> (
        match Network.link_src net l with
        | Network.Proc p -> Some p
        | Network.Res _ | Network.Box_in _ | Network.Box_out _ -> None)
      | [] -> None)
    (Network.circuits net)

let unusable_links net =
  if Network.all_up net then []
  else
    List.filter
      (fun l -> not (Network.usable net l))
      (List.init (Network.n_links net) Fun.id)

(* The cycle_hook body. The lists of [info] are immutable and fresh per
   cycle, so they are kept as they are. *)
let record rc net (info : Engine.cycle_info) =
  let hook_t0 = Spans.now () in
  let snapshot =
    if rc.seen mod rc.sample_every = 0 then Some (Network.copy net) else None
  in
  let r =
    { time = info.time; requests = info.request_priorities; free = info.free;
      mapping = info.mapping; live = live_procs net;
      unusable = unusable_links net; snapshot;
      work = info.work; hook_t0; hook_t1 = 0. }
  in
  rc.records <- r :: rc.records;
  rc.seen <- rc.seen + 1;
  r.hook_t1 <- Spans.now ();
  r

let in_order rc = List.rev rc.records

(* --- Reference check (Theorems 1-3) -------------------------------------- *)

type reference = { mutable checked : int; mutable mismatches : int }

let new_reference () = { checked = 0; mismatches = 0 }

let priority_of requests p =
  match List.assoc_opt p requests with Some y -> y | None -> 0

(* Re-solves a sampled snapshot from scratch: Transformation 1 under
   Uniform, Transformation 2 under Priority. The counts must equal the
   engine's, and under Priority so must the total priority served. *)
let check_reference ref_ discipline r =
  match r.snapshot with
  | None -> ()
  | Some net ->
    ref_.checked <- ref_.checked + 1;
    let allocated = List.length r.mapping in
    let ok =
      match discipline with
      | Engine.Uniform ->
        let o =
          Transform1.schedule net ~requests:(List.map fst r.requests)
            ~free:r.free
        in
        o.Transform1.allocated = allocated
      | Engine.Priority ->
        let o =
          Transform2.schedule net ~requests:r.requests
            ~free:(List.map (fun res -> (res, 0)) r.free)
        in
        let served mapping =
          List.fold_left
            (fun acc (p, _) -> acc + priority_of r.requests p)
            0 mapping
        in
        o.Transform2.allocated = allocated
        && served o.Transform2.mapping = served r.mapping
    in
    if not ok then ref_.mismatches <- ref_.mismatches + 1

(* --- Replay --------------------------------------------------------------- *)

type replica = {
  inc : Incremental.t;
  csr : Csr.t;  (* lockstep copy of the solver state *)
  source : int;
  sink : int;
  mincost : bool;
  sp : int array;
  rt : int array;
  link_arc : int array;
  live : Incremental.circuit option array;  (* per processor *)
  req_on : bool array;
  req_prio : int array;
  res_on : bool array;
  res_held : bool array;
  link_off : bool array;
  link_held : bool array;
  mutable off_links : int list;
}

let the = function Some a -> a | None -> invalid_arg "Cycles: missing arc"

let replica ~discipline pristine =
  let d =
    match discipline with
    | Engine.Uniform -> Incremental.Maxflow
    | Engine.Priority -> Incremental.Mincost
  in
  let inc =
    Incremental.create ~discipline:d ~backend:Incremental.Csr
      (Network.copy pristine)
  in
  let ng = Netgraph.compile_full (Network.copy pristine) in
  let np = Network.n_procs pristine and nr = Network.n_res pristine in
  let nl = Network.n_links pristine in
  { inc; csr = Netgraph.csr ng; source = Netgraph.source ng;
    sink = Netgraph.sink ng; mincost = d = Incremental.Mincost;
    sp = Array.init np (fun p -> the (Netgraph.sp_arc ng p));
    rt = Array.init nr (fun r -> the (Netgraph.rt_arc ng r));
    link_arc = Array.init nl (fun l -> the (Netgraph.arc_of_link ng l));
    live = Array.make np None;
    req_on = Array.make np false;
    req_prio = Array.make np 0;
    res_on = Array.make nr false;
    res_held = Array.make nr false;
    link_off = Array.make nl false;
    link_held = Array.make nl false;
    off_links = [] }

(* Work of one replayed cycle, computed before anything is timed so the
   timed spans contain only calls into the program. *)
type ops = {
  release : Incremental.circuit list;
  links : (int * bool) list;
  reqs : (int * bool * int) list;
  ress : (int * bool) list;
}

let diff rp (r : record) =
  let np = Array.length rp.live and nr = Array.length rp.res_on in
  let alive = Array.make np false in
  List.iter (fun p -> alive.(p) <- true) r.live;
  let release = ref [] in
  for p = np - 1 downto 0 do
    match rp.live.(p) with
    | Some c when not alive.(p) -> release := c :: !release
    | Some _ | None -> ()
  done;
  let release = !release in
  (* Endpoint state as it will be once [release] is applied. *)
  let req_on = Array.copy rp.req_on and res_on = Array.copy rp.res_on in
  let res_held = Array.copy rp.res_held in
  List.iter
    (fun (c : Incremental.circuit) ->
      req_on.(c.proc) <- false;
      res_on.(c.res) <- false;
      res_held.(c.res) <- false)
    release;
  let links =
    if r.unusable = [] && rp.off_links = [] then []
    else begin
      let freed = Hashtbl.create 16 in
      List.iter
        (fun (c : Incremental.circuit) ->
          List.iter (fun l -> Hashtbl.replace freed l ()) c.links)
        release;
      let held l = rp.link_held.(l) && not (Hashtbl.mem freed l) in
      let want_off = Hashtbl.create 16 in
      List.iter (fun l -> Hashtbl.replace want_off l ()) r.unusable;
      List.filter_map
        (fun l ->
          if (not rp.link_off.(l)) && not (held l) then Some (l, false)
          else None)
        r.unusable
      @ List.filter_map
          (fun l -> if Hashtbl.mem want_off l then None else Some (l, true))
          rp.off_links
    end
  in
  let wanted = Array.make np (-1) in
  List.iter (fun (p, y) -> wanted.(p) <- y) r.requests;
  let reqs = ref [] in
  for p = np - 1 downto 0 do
    let y = wanted.(p) in
    if y >= 0 then begin
      if (not req_on.(p)) || (rp.mincost && rp.req_prio.(p) <> y) then
        reqs := (p, true, y) :: !reqs
    end
    else if req_on.(p) && not (alive.(p) && rp.live.(p) <> None) then
      reqs := (p, false, 0) :: !reqs
  done;
  let free = Array.make nr false in
  List.iter (fun res -> free.(res) <- true) r.free;
  let ress = ref [] in
  for res = nr - 1 downto 0 do
    if free.(res) && not res_on.(res) then ress := (res, true) :: !ress
    else if (not free.(res)) && res_on.(res) && not res_held.(res) then
      ress := (res, false) :: !ress
  done;
  { release; links; reqs = !reqs; ress = !ress }

(* Timings and counts accumulated over every replayed cycle. *)
type stats = {
  mutable cycles : int;
  mutable solves : int;
  mutable matched : int;
  mutable sync_ns : float;
  mutable solve_ns : float;
  mutable release_ns : float;
  mutable releases : int;
  mutable extract_ns : float;
  mutable inc_words : float;
  mutable csr_ns : float;
  mutable csr_words : float;
  mutable arcs : int;
  mutable augmentations : int;
  mutable passes : int;
  mutable flow_mismatches : int;
}

let new_stats () =
  { cycles = 0; solves = 0; matched = 0; sync_ns = 0.; solve_ns = 0.;
    release_ns = 0.; releases = 0; extract_ns = 0.; inc_words = 0.;
    csr_ns = 0.; csr_words = 0.; arcs = 0; augmentations = 0; passes = 0;
    flow_mismatches = 0 }

let apply_inc rp o =
  List.iter (fun (l, on) -> Incremental.set_link_usable rp.inc l on) o.links;
  List.iter
    (fun (p, on, y) -> Incremental.set_requesting rp.inc ~priority:y p on)
    o.reqs;
  List.iter
    (fun (res, on) -> Incremental.set_resource_free rp.inc res on)
    o.ress

(* The same state changes, written straight into the lockstep Csr.t the
   way Incremental writes them into its own. *)
let csr_switch c a on =
  let cap = if on then 1 else 0 in
  if Csr.original_capacity c a <> cap then Csr.set_capacity c a cap

let apply_csr rp o =
  List.iter
    (fun (c : Incremental.circuit) ->
      List.iter
        (fun a ->
          Csr.thaw rp.csr a;
          Csr.set_flow rp.csr a 0)
        c.arcs;
      Csr.set_capacity rp.csr rp.sp.(c.proc) 0;
      if rp.mincost then Csr.set_cost rp.csr rp.sp.(c.proc) 0;
      Csr.set_capacity rp.csr rp.rt.(c.res) 0)
    o.release;
  List.iter (fun (l, on) -> csr_switch rp.csr rp.link_arc.(l) on) o.links;
  List.iter
    (fun (p, on, y) ->
      let a = rp.sp.(p) in
      if rp.mincost then begin
        let cost = if on then -y else 0 in
        if Csr.cost rp.csr a <> cost then Csr.set_cost rp.csr a cost
      end;
      csr_switch rp.csr a on)
    o.reqs;
  List.iter (fun (res, on) -> csr_switch rp.csr rp.rt.(res) on) o.ress

(* Bookkeeping mirror of what [o] and the solve did to the replica. *)
let remember rp o (circuits : Incremental.circuit list) =
  List.iter
    (fun (c : Incremental.circuit) ->
      rp.live.(c.proc) <- None;
      rp.req_on.(c.proc) <- false;
      rp.res_on.(c.res) <- false;
      rp.res_held.(c.res) <- false;
      List.iter (fun l -> rp.link_held.(l) <- false) c.links)
    o.release;
  if o.links <> [] then begin
    List.iter (fun (l, on) -> rp.link_off.(l) <- not on) o.links;
    rp.off_links <-
      List.filter
        (fun l -> rp.link_off.(l))
        (List.sort_uniq compare (rp.off_links @ List.map fst o.links))
  end;
  List.iter
    (fun (p, on, y) ->
      rp.req_on.(p) <- on;
      rp.req_prio.(p) <- (if on then y else 0))
    o.reqs;
  List.iter (fun (res, on) -> rp.res_on.(res) <- on) o.ress;
  List.iter
    (fun (c : Incremental.circuit) ->
      rp.live.(c.proc) <- Some c;
      rp.res_held.(c.res) <- true;
      List.iter (fun l -> rp.link_held.(l) <- true) c.links)
    circuits

let sorted l = List.sort compare l

(* Replays one recorded cycle, recording its spans under a "replay"
   root, and counts it as matched when the replayed mapping equals the
   engine's. The
   two allocation probes follow E34's calibration: two back-to-back
   Gc.minor_words readings measure the probe's own cost, and nothing
   but the probed call runs between the second and third reading. *)
let replay_cycle spans st rp (r : record) =
  let slot = r.time in
  let root =
    Spans.add spans ~name:"replay.slot" ~slot ~parent:(-1) ~t0:(Spans.now ())
      ~t1:0.
  in
  let mark name t0 =
    let t1 = Spans.now () in
    ignore (Spans.add spans ~name ~slot ~parent:root ~t0 ~t1);
    t1 -. t0
  in
  let t = Spans.now () in
  let o = diff rp r in
  ignore (mark "bench.diff" t);
  let t = Spans.now () in
  List.iter (Incremental.release rp.inc) o.release;
  let rel_ns = mark "incremental.release" t in
  let t = Spans.now () in
  apply_inc rp o;
  let sync_ns = mark "incremental.sync" t in
  let t = Spans.now () in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let res = Incremental.solve rp.inc in
  let w2 = Gc.minor_words () in
  let solve_ns = mark "incremental.solve" t in
  let t = Spans.now () in
  apply_csr rp o;
  ignore (mark "csr.sync" t);
  st.cycles <- st.cycles + 1;
  st.sync_ns <- st.sync_ns +. sync_ns;
  if o.release <> [] then begin
    st.release_ns <- st.release_ns +. rel_ns;
    st.releases <- st.releases + List.length o.release
  end;
  if not res.Incremental.skipped then begin
    (* The lockstep solve: the same residual graph, solved by the same
       core, timed and probed for allocation on its own. *)
    let t = Spans.now () in
    let c0 = Gc.minor_words () in
    let c1 = Gc.minor_words () in
    let added =
      if rp.mincost then Csr.mincost rp.csr ~source:rp.source ~sink:rp.sink
      else Csr.dinic rp.csr ~source:rp.source ~sink:rp.sink
    in
    let c2 = Gc.minor_words () in
    let csr_ns = mark "csr.solve" t in
    let s = Csr.last_stats rp.csr in
    st.arcs <- st.arcs + s.Csr.arcs_scanned;
    st.augmentations <- st.augmentations + s.Csr.augmentations;
    st.passes <- st.passes + s.Csr.passes;
    let t = Spans.now () in
    let committed = Csr.commit_new rp.csr ~source:rp.source in
    ignore (mark "csr.commit" t);
    if added <> List.length res.Incremental.circuits || committed <> added then
      st.flow_mismatches <- st.flow_mismatches + 1;
    st.solves <- st.solves + 1;
    st.solve_ns <- st.solve_ns +. solve_ns;
    st.csr_ns <- st.csr_ns +. csr_ns;
    st.extract_ns <- st.extract_ns +. (solve_ns -. csr_ns);
    st.inc_words <- st.inc_words +. (w2 -. w1 -. (w1 -. w0));
    st.csr_words <- st.csr_words +. (c2 -. c1 -. (c1 -. c0))
  end;
  remember rp o res.Incremental.circuits;
  let t = Spans.now () in
  let mine =
    List.map
      (fun (c : Incremental.circuit) -> (c.proc, c.res))
      res.Incremental.circuits
  in
  let same = sorted mine = sorted r.mapping in
  ignore (mark "bench.check" t);
  if same then st.matched <- st.matched + 1;
  Spans.close spans root (Spans.now ())
