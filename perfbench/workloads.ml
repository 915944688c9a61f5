(* The benchmark's workloads.

   Every workload is a closed loop driven by one caller: the loop feeds
   one slot's events and advances (for Serve it keeps feeding, and Serve
   flushes when the slot changes), as fast as the program returns. There
   is no wall-clock pacing. Arrival rates are per processor per
   simulated slot; with the default geometric service of mean 4 a
   resource port serves about 0.2 tasks per slot at transmission 1 and
   about 0.17 at transmission 2.

   A trace is generated from the benchmark's --seed alone, so the same
   seed gives the same events, and the program under test only ever
   sees those generated events. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module Engine = Rsin_engine.Engine
module Policy = Rsin_guard.Policy
module Fault = Rsin_fault.Fault
module Prng = Rsin_util.Prng
module Shard = Rsin_engine.Shard

type target =
  | Single  (** one Engine.t: feed a slot, then Engine.advance *)
  | Sharded of int  (** Serve.t over this many domains *)

type t = {
  name : string;
  why : string;  (** the one-line reason the workload exists *)
  net : unit -> Network.t;
  config : Engine.Config.t;
  target : target;
  hot : (int * int) option;
      (** hot-spot window [lo, hi) in slots, where the trace has one *)
  generate : seed:int -> Network.t -> Workload.trace_event list;
}

(* --- steady-omega1024 ---------------------------------------------------- *)

let steady =
  {
    name = "steady-omega1024";
    why =
      "about one cycle per slot with ~150 requests on a 1024-port graph and \
       near-empty queues: Incremental's path extraction and the engine's \
       per-slot scans carry the time";
    net = (fun () -> Builders.omega 1024);
    config = Engine.Config.v ~solver:"dinic-csr" ();
    target = Single;
    hot = None;
    generate =
      (fun ~seed net ->
        Workload.synthesize (Prng.create seed) net ~slots:100
          ~arrival_prob:0.15);
  }

(* --- overload-prio-omega256 ---------------------------------------------- *)

(* Deadline-aware shedding needs a queue to reach its bound. With a
   deadline slack of 200 slots the queues of this trace stay far below
   the 64 of Policy.default, so admission control would never shed;
   a bound of 16 makes the shed path run next to expiry and cancel. *)
let overload_queue_bound = 16

let overload =
  {
    name = "overload-prio-omega256";
    why =
      "150% load under priorities: Csr.mincost dominates, and the engine's \
       expiry, cancel, shed and long-queue paths run";
    net = (fun () -> Builders.omega 256);
    config =
      Engine.Config.v ~discipline:Engine.Priority ~solver:"mincost-csr"
        ~guard:
          (Some
             (Policy.v ~queue_bound:overload_queue_bound
                ~shed_policy:Policy.Deadline_aware ()))
        ();
    target = Single;
    hot = None;
    generate =
      (fun ~seed net ->
        Workload.synthesize ~deadline_slack:200 ~cancel_prob:0.05
          ~priority_levels:4 (Prng.create seed) net ~slots:200
          ~arrival_prob:0.30);
  }

(* --- serve-hotspot-multi4 ------------------------------------------------ *)

(* The hot-spot generator. Uniform background traffic never borrows:
   a shard lends only when an arrival finds its home plane without a
   free resource port. So inside the window [hot_lo, hot_hi) plane 0's
   background arrivals are replaced by
   - a burst at [hot_lo]: one task on every plane-0 processor, each
     holding its resource for [hot_service] slots, which leaves the
     plane with no free port for about [hot_service] slots; and
   - a trickle of exactly [trickle] arrivals per slot on distinct
     plane-0 processors while the plane is saturated, each of which the
     router must try to borrow for.
   The trickle is a fixed count per slot rather than a Bernoulli draw,
   so the number of borrows, and with it the run time (each borrow
   probes every donor shard from scratch), barely varies with the
   seed. *)
let planes = 4
let plane_ports = 256
let hot_lo = 8
let hot_service = 10
let trickle = 6
let trickle_lo = hot_lo + 3  (* circuits of the burst hold links 2 slots *)
let trickle_hi = hot_lo + hot_service + 1
let hot_hi = hot_lo + hot_service + 4
let hotspot_slots = 32
let background_rate = 0.10  (* 60% of a port's capacity at transmission 2 *)

let hotspot_trace ~seed net =
  let streams = Prng.split_n (Prng.create seed) 3 in
  let background =
    Workload.synthesize streams.(0) net ~slots:hotspot_slots
      ~arrival_prob:background_rate
  in
  let in_window t = t >= hot_lo && t < hot_hi in
  let kept =
    List.filter
      (function
        | Workload.Arrive a -> not (in_window a.t && a.proc < plane_ports)
        | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> true)
      background
  in
  let next_id =
    ref
      (1
      + List.fold_left
          (fun acc ev -> max acc (Workload.event_id ev))
          0 background)
  in
  let arrive t proc =
    let id = !next_id in
    incr next_id;
    Workload.Arrive
      { t; id; proc; service = hot_service; deadline = None; priority = 0 }
  in
  let burst = List.init plane_ports (arrive hot_lo) in
  let trickles =
    List.concat_map
      (fun t ->
        Array.to_list
          (Array.map (arrive t)
             (Prng.sample_without_replacement streams.(1) trickle plane_ports)))
      (List.init (trickle_hi - trickle_lo) (fun i -> trickle_lo + i))
  in
  (* MTBF/MTTR churn on the donor planes' links: with transmission 2 a
     dying link often carries a live circuit, whose task becomes a fault
     victim. The hot plane is spared: a free port behind a dead link
     counts as free but can never be reached, and one such port keeps
     the plane from ever running out of free ports, so nothing would
     be borrowed. *)
  let shard = Result.get_ok (Shard.partition net) in
  let hot_shard = shard.Shard.shard_of_proc.(0) in
  let donor_links =
    List.concat
      (List.mapi
         (fun i (p : Shard.part) ->
           if i = hot_shard then [] else Array.to_list p.Shard.links)
         (Array.to_list shard.Shard.parts))
  in
  let faults =
    Workload.fault_events
      (Fault.inject ~links:donor_links streams.(2) net ~horizon:hotspot_slots
         ~mtbf:2000. ~mttr:20.)
  in
  (* The injector stops at the horizon; links still down there come back
     with it, so no task is stranded behind a link that never returns. *)
  let down = Hashtbl.create 16 in
  List.iter
    (function
      | Workload.Fault f -> Hashtbl.replace down f.element ()
      | Workload.Repair r -> Hashtbl.remove down r.element
      | Workload.Arrive _ | Workload.Cancel _ -> ())
    faults;
  let repairs =
    Hashtbl.fold
      (fun element () acc ->
        Workload.Repair { t = hotspot_slots; clock = None; element } :: acc)
      down []
  in
  Workload.sort_trace
    (kept @ burst @ trickles @ faults @ List.sort compare repairs)

let hotspot =
  {
    name = "serve-hotspot-multi4";
    why =
      "the only workload with parallel shard advance, the slot barrier, \
       routing, the borrow probe and Incremental's fault paths";
    net =
      (fun () -> Builders.multiplane ~planes (Builders.omega plane_ports));
    config = Engine.Config.v ~solver:"dinic-csr" ~transmission_time:2 ();
    target = Sharded 2;
    hot = Some (hot_lo, hot_hi);
    generate = hotspot_trace;
  }

let all = [ steady; overload; hotspot ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The trace as one array of events per slot, in trace order. *)
let by_slot trace =
  let last =
    List.fold_left (fun acc ev -> max acc (Workload.event_time ev)) 0 trace
  in
  let slots = Array.make (last + 1) [] in
  List.iter
    (fun ev ->
      let t = Workload.event_time ev in
      slots.(t) <- ev :: slots.(t))
    trace;
  Array.map (fun evs -> Array.of_list (List.rev evs)) slots
