(* The flat CSR flow core (Rsin_flow.Csr) vs the mutable-adjacency
   Graph: structural invariants of the emission (check_rev_pairing),
   state-accessor agreement under random mutation, and the differential
   guarantees of the registry solvers (dinic-csr/mincost-csr) and of the
   warm engine, which runs on Csr alone — identical max-flow value and
   total served priority on every topology family, including degraded
   (fault-masked) networks and hundreds of warm churn cycles. *)

module Graph = Rsin_flow.Graph
module Csr = Rsin_flow.Csr
module Solver = Rsin_flow.Solver
module Mincost = Rsin_flow.Mincost
module Edmonds_karp = Rsin_flow.Edmonds_karp
module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Netgraph = Rsin_core.Netgraph
module Scheduler = Rsin_core.Scheduler
module T1 = Rsin_core.Transform1
module T2 = Rsin_core.Transform2
module Workload = Rsin_sim.Workload
module Fault = Rsin_fault.Fault
module Incremental = Rsin_engine.Incremental
module Engine = Rsin_engine.Engine
module Prng = Rsin_util.Prng

let check = Alcotest.check

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)

let topologies =
  [ ("omega", fun () -> Builders.omega 8);
    ("butterfly", fun () -> Builders.butterfly 8);
    ("benes", fun () -> Builders.benes 8);
    ("clos", fun () -> Builders.clos ~m:3 ~n:2 ~r:4);
    ("crossbar", fun () -> Builders.crossbar ~n_procs:6 ~n_res:6);
    ("delta", fun () -> Builders.delta ~radix:2 ~stages:3);
    ("extra_stage", fun () -> Builders.extra_stage_omega 8 ~extra:1) ]

(* A random scenario over a partially occupied, partially *broken*
   network: preoccupied circuits exercise step T4's occupancy drops,
   random element downs exercise the health mask. *)
let scenario ?(faults = true) seed (name, build) =
  let rng = Prng.create (Hashtbl.hash (name, seed)) in
  let net = build () in
  ignore (Workload.preoccupy rng net ~circuits:(Prng.int rng 3));
  if faults then begin
    for l = 0 to Network.n_links net - 1 do
      if Prng.float rng 1.0 < 0.06 then Network.set_link_up net l false
    done;
    for b = 0 to Network.n_boxes net - 1 do
      if Prng.float rng 1.0 < 0.05 then Network.set_box_up net b false
    done;
    for r = 0 to Network.n_res net - 1 do
      if Prng.float rng 1.0 < 0.05 then Network.set_res_up net r false
    done
  end;
  let requests, free = Workload.snapshot rng net in
  let busy_p, busy_r = Workload.occupied_endpoints net in
  let requests = List.filter (fun p -> not (List.mem p busy_p)) requests in
  let free = List.filter (fun r -> not (List.mem r busy_r)) free in
  (rng, net, requests, free)

(* --- of_graph invariants and accessor agreement -------------------------- *)

(* A random residual network: arbitrary arcs, capacities, costs, and a
   random feasible flow pushed through Graph.push on both sides. *)
let random_graph rng =
  let g = Graph.create () in
  let n = 2 + Prng.int rng 9 in
  ignore (Graph.add_nodes g n);
  let arcs = 1 + Prng.int rng 25 in
  for _ = 1 to arcs do
    let s = Prng.int rng n in
    let d = (s + 1 + Prng.int rng (n - 1)) mod n in
    ignore
      (Graph.add_arc g ~cost:(Prng.int rng 7 - 3) ~src:s ~dst:d
         ~cap:(Prng.int rng 4))
  done;
  (* Random pushes on random sides leave a valid residual state. *)
  for _ = 1 to 2 * arcs do
    let a = Prng.int rng (2 * Graph.arc_count g) in
    let room = Graph.capacity g a in
    if room > 0 then Graph.push g a (1 + Prng.int rng room)
  done;
  g

let agree g c =
  let ok = ref true in
  let expect name a want got =
    if want <> got then begin
      ok := false;
      QCheck.Test.fail_reportf "arc %d: %s: graph %d, csr %d" a name want got
    end
  in
  Graph.iter_forward_arcs g (fun a ->
      expect "capacity" a (Graph.capacity g a) (Csr.capacity c a);
      expect "residual capacity" a
        (Graph.capacity g (a + 1))
        (Csr.capacity c (a + 1));
      expect "flow" a (Graph.flow g a) (Csr.flow c a);
      expect "cost" a (Graph.cost g a) (Csr.cost c a);
      expect "residual cost" a (Graph.cost g (a + 1)) (Csr.cost c (a + 1));
      expect "original" a
        (Graph.original_capacity g a)
        (Csr.original_capacity c a));
  for v = 0 to Graph.node_count g - 1 do
    expect "node out-flow" v (Graph.out_flow g v) (Csr.flow_value c ~source:v)
  done;
  expect "total cost" (-1) (Graph.total_cost g) (Csr.total_cost c);
  !ok

let test_of_graph_invariants =
  qtest "of_graph: rev pairing + accessor agreement on random graphs"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = random_graph rng in
      let c = Csr.of_graph g in
      (match Csr.check_rev_pairing c with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "rev pairing: %s" e);
      agree g c)

let test_mutation_agreement =
  qtest "random mirrored mutations keep Graph and Csr in agreement"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = random_graph rng in
      let c = Csr.of_graph g in
      let pairs = Graph.arc_count g in
      for _ = 1 to 60 do
        let a = 2 * Prng.int rng pairs in
        match Prng.int rng 5 with
        | 0 ->
          let cap = Graph.flow g a + Prng.int rng 3 in
          Graph.set_capacity g a cap;
          Csr.set_capacity c a cap
        | 1 ->
          let cost = Prng.int rng 9 - 4 in
          Graph.set_cost g a cost;
          Csr.set_cost c a cost
        | 2 ->
          let f = Prng.int rng (Graph.original_capacity g a + 1) in
          Graph.set_flow g a f;
          Csr.set_flow c a f
        | 3 ->
          let side = if Prng.int rng 2 = 0 then a else a + 1 in
          let room = Graph.capacity g side in
          if room > 0 then begin
            let k = 1 + Prng.int rng room in
            Graph.push g side k;
            Csr.push c side k
          end
        | _ ->
          (* freeze/thaw round-trip on a saturated arc. *)
          if Graph.capacity g a = 0 then begin
            Graph.freeze g a;
            Csr.freeze c a;
            if not (Csr.is_frozen c a) then
              QCheck.Test.fail_report "freeze did not mark the pair";
            Graph.thaw g a;
            Csr.thaw c a
          end
      done;
      (match Csr.check_rev_pairing c with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "rev pairing after churn: %s" e);
      agree g c)

(* Frozen arcs must survive the snapshot: of_graph on a graph holding
   frozen flow reproduces the pinned residual state and the flag. *)
let test_frozen_survives_of_graph () =
  let g = Graph.create () in
  let _ = Graph.add_nodes g 3 in
  let a = Graph.add_arc g ~src:0 ~dst:1 ~cap:1 in
  let b = Graph.add_arc g ~src:1 ~dst:2 ~cap:2 in
  Graph.push g a 1;
  Graph.push g b 1;
  Graph.freeze g a;
  let c = Csr.of_graph g in
  check Alcotest.(result unit string) "pairing" (Ok ()) (Csr.check_rev_pairing c);
  check Alcotest.bool "frozen flag reconstructed" true (Csr.is_frozen c a);
  check Alcotest.bool "unfrozen arc not flagged" false (Csr.is_frozen c b);
  check Alcotest.int "frozen residual side pinned" 0 (Csr.capacity c (a + 1));
  check Alcotest.int "frozen flow kept" 1 (Csr.flow c a)

(* --- Netgraph emission ---------------------------------------------------- *)

let test_netgraph_emission () =
  List.iter
    (fun ((name, _) as topo) ->
      let _rng, net, requests, free = scenario 17 topo in
      let ng =
        Netgraph.compile net
          ~requests:(List.map (fun p -> (p, 0)) requests)
          ~free:(List.map (fun r -> (r, 0)) free)
      in
      let c = Netgraph.csr ng in
      check Alcotest.(result unit string) (name ^ ": snapshot pairing") (Ok ())
        (Csr.check_rev_pairing c);
      check Alcotest.bool (name ^ ": emission is cached") true
        (Netgraph.csr ng == c);
      let full = Netgraph.compile_full (Network.copy net) in
      let cf = Netgraph.csr full in
      check Alcotest.(result unit string) (name ^ ": full pairing") (Ok ())
        (Csr.check_rev_pairing cf);
      check Alcotest.int (name ^ ": same shape as the graph")
        (Graph.arc_count (Netgraph.graph full))
        (Csr.arc_count cf))
    topologies

(* --- Registry differential: CSR solvers vs their adjacency originals ------ *)

let test_dinic_csr_differential =
  qtest "dinic-csr = dinic on every topology incl. degraded" ~count:80
    QCheck.small_int (fun seed ->
      List.for_all
        (fun ((name, _) as topo) ->
          let _rng, net, requests, free = scenario seed topo in
          let solve s =
            let tr = T1.build net ~requests ~free in
            (T1.solve_with (Solver.get s) tr).T1.allocated
          in
          let reference = solve "dinic" and csr = solve "dinic-csr" in
          if reference <> csr then
            QCheck.Test.fail_reportf "%s seed %d: dinic %d, dinic-csr %d" name
              seed reference csr;
          true)
        topologies)

let test_mincost_csr_differential =
  qtest "mincost-csr = mincost: flow value and total cost" ~count:80
    QCheck.small_int (fun seed ->
      List.for_all
        (fun ((name, _) as topo) ->
          let rng, net, requests, free = scenario seed topo in
          let requests = Workload.with_priorities rng ~levels:4 requests in
          let free = Workload.with_priorities rng ~levels:3 free in
          let tr = T2.build net ~requests ~free in
          let source = T2.source tr and sink = T2.sink tr in
          let run s =
            let module S = (val Solver.get s : Solver.S) in
            let g = Graph.copy (T2.graph tr) in
            let f, _w = S.max_flow g ~source ~sink in
            (f, Graph.total_cost g, Graph.check_conservation g ~source ~sink)
          in
          let f0, c0, k0 = run "mincost" in
          let f1, c1, k1 = run "mincost-csr" in
          if k0 <> Ok () || k1 <> Ok () then
            QCheck.Test.fail_reportf "%s seed %d: conservation broken" name seed;
          if (f0, c0) <> (f1, c1) then
            QCheck.Test.fail_reportf
              "%s seed %d: mincost (%d, %d), mincost-csr (%d, %d)" name seed f0
              c0 f1 c1;
          true)
        topologies)

(* Beyond Transformation 2's unit capacities: random graphs with
   capacities 1-3 and costs -3..5. Costs are drawn as a non-negative
   slack plus a potential difference, so every cycle costs its total
   slack and none is negative. *)
let random_costed_graph rng =
  let g = Graph.create () in
  let n = 2 + Prng.int rng 8 in
  ignore (Graph.add_nodes g n);
  let pi = Array.init n (fun _ -> Prng.int rng 4) in
  for _ = 1 to 1 + Prng.int rng 24 do
    let s = Prng.int rng n in
    let d = (s + 1 + Prng.int rng (n - 1)) mod n in
    ignore
      (Graph.add_arc g ~src:s ~dst:d ~cap:(1 + Prng.int rng 3)
         ~cost:(Prng.int rng 3 + pi.(d) - pi.(s)))
  done;
  g

let test_mincost_csr_general_graphs =
  qtest "Csr.mincost = Mincost.min_cost_flow on general graphs" ~count:300
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = random_costed_graph rng in
      let source = 0 and sink = Graph.node_count g - 1 in
      let c = Csr.of_graph g in
      let added = Csr.mincost c ~source ~sink in
      let reference = Mincost.min_cost_flow g ~source ~sink ~amount:max_int in
      let cost = Csr.total_cost c in
      if (added, cost) <> (reference.Mincost.flow, reference.Mincost.cost) then
        QCheck.Test.fail_reportf "seed %d: Mincost (%d, %d), Csr (%d, %d)" seed
          reference.Mincost.flow reference.Mincost.cost added cost;
      if (Csr.last_stats c).Csr.augmentations <> added then
        QCheck.Test.fail_reportf "seed %d: augmentations <> flow units" seed;
      Csr.check_conservation c ~source ~sink = Ok ())

(* The mirror of test_flow's negative-cycle test through the registry. *)
let test_mincost_csr_negative_cycle () =
  let g = Graph.create () in
  let s = Graph.add_node g and a = Graph.add_node g and b = Graph.add_node g
  and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:a ~cap:1 ~cost:0);
  ignore (Graph.add_arc g ~src:a ~dst:b ~cap:1 ~cost:(-5));
  ignore (Graph.add_arc g ~src:b ~dst:a ~cap:1 ~cost:2);
  ignore (Graph.add_arc g ~src:b ~dst:t ~cap:1 ~cost:0);
  let module S = (val Solver.get "mincost-csr" : Solver.S) in
  Alcotest.check_raises "negative cycle"
    (Failure "Csr.mincost: negative cycle in input network") (fun () ->
      ignore (S.max_flow g ~source:s ~sink:t))

(* Phase bound on the engine's graphs: costs sit only on s->p arcs, so
   every residual s-t path costs minus the priority of its processor and
   each Dijkstra phase retires one pending priority level. A warm churn
   of enables, solves, commits and periodic release-all must never need
   more phases than there are distinct costs on pending s->p arcs; one
   Dijkstra per flow unit would break the bound within a round. *)
let test_mincost_phase_bound () =
  let solves = ref 0 in
  List.iter
    (fun (name, build) ->
      let ng = Netgraph.compile_full (build ()) in
      let c = Netgraph.csr ng in
      let net = Netgraph.network ng in
      let source = Netgraph.source ng and sink = Netgraph.sink ng in
      let sp =
        Array.init (Network.n_procs net) (fun p ->
            Option.get (Netgraph.sp_arc ng p))
      and rt =
        Array.init (Network.n_res net) (fun r ->
            Option.get (Netgraph.rt_arc ng r))
      in
      let rng = Prng.create (Hashtbl.hash name) in
      for round = 1 to 40 do
        Array.iter
          (fun a ->
            if not (Csr.is_frozen c a) then
              if Prng.float rng 1.0 < 0.6 then begin
                Csr.set_capacity c a 1;
                Csr.set_cost c a (-(1 + Prng.int rng 4))
              end
              else begin
                Csr.set_capacity c a 0;
                Csr.set_cost c a 0
              end)
          sp;
        Array.iter
          (fun a ->
            if not (Csr.is_frozen c a) then
              Csr.set_capacity c a (if Prng.float rng 1.0 < 0.5 then 1 else 0))
          rt;
        let levels =
          Array.to_list sp
          |> List.filter (fun a ->
                 Csr.original_capacity c a > 0 && not (Csr.is_frozen c a))
          |> List.map (Csr.cost c)
          |> List.sort_uniq compare |> List.length
        in
        let before = Csr.flow_value c ~source in
        let added = Csr.mincost c ~source ~sink in
        let s = Csr.last_stats c in
        let what = Printf.sprintf "%s round %d" name round in
        incr solves;
        if s.Csr.passes > levels then
          Alcotest.failf "%s: %d phases for %d priority levels" what
            s.Csr.passes levels;
        check Alcotest.int (what ^ ": augmentations = flow added") added
          s.Csr.augmentations;
        check Alcotest.int (what ^ ": flow added") added
          (Csr.flow_value c ~source - before);
        ignore (Csr.commit_new c ~source);
        if round mod 4 = 0 then Csr.release_all c
      done)
    (("omega64", fun () -> Builders.omega 64) :: topologies);
  check Alcotest.bool "every topology churned" true (!solves >= 300)

(* Work records populated consistently: the CSR pair reports the same
   kind of numbers as the originals (both count flow units as
   augmentations, and scan work is nonzero). *)
let test_work_record_consistency () =
  let _rng, net, requests, free = scenario ~faults:false 5 (List.hd topologies) in
  let tr = T1.build net ~requests ~free in
  let g0 = Graph.copy (T1.graph tr) and g1 = Graph.copy (T1.graph tr) in
  let source = T1.source tr and sink = T1.sink tr in
  let module D = (val Solver.get "dinic" : Solver.S) in
  let module DC = (val Solver.get "dinic-csr" : Solver.S) in
  let f0, w0 = D.max_flow g0 ~source ~sink in
  let f1, w1 = DC.max_flow g1 ~source ~sink in
  check Alcotest.int "flow equal" f0 f1;
  check Alcotest.int "augmentations count flow units" f1 w1.Solver.augmentations;
  check Alcotest.bool "phases populated" true (w1.Solver.passes >= 1);
  check Alcotest.bool "arcs scanned populated" true (w1.Solver.arcs_scanned > 0);
  check Alcotest.int "dinic counts the same augmentations" f0
    w0.Solver.augmentations;
  (* mincost-csr: passes are Dijkstra phases, augmentations flow units,
     and the registry counters carry both. *)
  let obs = Rsin_obs.Obs.recording () in
  let module MC = (val Solver.get "mincost-csr" : Solver.S) in
  let tr =
    T2.build net
      ~requests:(List.map (fun p -> (p, 1 + (p mod 3))) requests)
      ~free:(List.map (fun r -> (r, 0)) free)
  in
  let f2, w2 =
    MC.max_flow ~obs (Graph.copy (T2.graph tr)) ~source:(T2.source tr)
      ~sink:(T2.sink tr)
  in
  let counter = Rsin_obs.Metrics.get_counter obs.Rsin_obs.Obs.metrics in
  check Alcotest.int "mincost-csr augmentations count flow units" f2
    w2.Solver.augmentations;
  check Alcotest.int "phases counter" w2.Solver.passes
    (counter "flow.mincost_csr.phases");
  check Alcotest.int "augmentations counter" f2
    (counter "flow.mincost_csr.augmentations")

(* --- Warm churn: Incremental on CSR vs from-scratch T1/T2 ----------------- *)

(* Drive one Incremental engine through a random warm churn sequence —
   enables, solves, staggered partial releases — and compare every solve
   against a from-scratch transformation of the same snapshot, mirrored
   on a reference network where the committed circuits are established
   for real: each solve must stay optimal — allocation count and, under
   Mincost, total served priority — for its own snapshot, cycle by
   cycle. *)
let churn discipline net seed rounds =
  let eng = Incremental.create ~discipline net in
  let refnet = Network.copy net in
  let np = Network.n_procs net and nr = Network.n_res net in
  let rng = Prng.create seed in
  let prio = Array.make np 0 in
  let live = ref [] in
  let cycles = ref 0 in
  for round = 1 to rounds do
    let busy_p =
      List.map (fun ((c : Incremental.circuit), _) -> c.Incremental.proc) !live
    and busy_r =
      List.map (fun ((c : Incremental.circuit), _) -> c.Incremental.res) !live
    in
    for p = 0 to np - 1 do
      if not (List.mem p busy_p) then begin
        let on = Prng.float rng 1.0 < 0.5 in
        let y = 1 + Prng.int rng 4 in
        prio.(p) <- y;
        Incremental.set_requesting eng ~priority:y p on
      end
    done;
    for r = 0 to nr - 1 do
      if not (List.mem r busy_r) then
        Incremental.set_resource_free eng r (Prng.float rng 1.0 < 0.6)
    done;
    let result = Incremental.solve eng in
    incr cycles;
    let label what = Printf.sprintf "seed %d round %d: %s" seed round what in
    (* The pre-commit snapshot: pending requests and free resources are
       the switched-on endpoint arcs not held by a live circuit. *)
    let pending =
      List.filter
        (fun p -> Incremental.requesting eng p && not (List.mem p busy_p))
        (List.init np Fun.id)
    and frees =
      List.filter
        (fun r -> Incremental.resource_free eng r && not (List.mem r busy_r))
        (List.init nr Fun.id)
    in
    (match discipline with
    | Incremental.Maxflow ->
      let reference = T1.schedule refnet ~requests:pending ~free:frees in
      check Alcotest.int
        (label "allocation = from-scratch T1")
        reference.T1.allocated
        (List.length result.Incremental.circuits)
    | Incremental.Mincost ->
      let reference =
        T2.schedule refnet
          ~requests:(List.map (fun p -> (p, prio.(p))) pending)
          ~free:(List.map (fun r -> (r, 0)) frees)
      in
      check Alcotest.int
        (label "allocation = from-scratch T2")
        reference.T2.allocated
        (List.length result.Incremental.circuits);
      let served_ref =
        List.fold_left (fun acc (p, _) -> acc + prio.(p)) 0 reference.T2.mapping
      and served_eng =
        List.fold_left
          (fun acc (c : Incremental.circuit) -> acc + prio.(c.Incremental.proc))
          0 result.Incremental.circuits
      in
      check Alcotest.int (label "served priority = from-scratch T2") served_ref
        served_eng);
    check Alcotest.(result unit string) (label "conservation") (Ok ())
      (Incremental.check eng);
    (* Mirror the commits as real circuits on the reference network. *)
    List.iter
      (fun (c : Incremental.circuit) ->
        live := (c, Network.establish refnet c.Incremental.links) :: !live)
      result.Incremental.circuits;
    (* Staggered releases: every third round, free a random subset. *)
    if round mod 3 = 0 then begin
      let keep, drop =
        List.partition (fun _ -> Prng.float rng 1.0 < 0.5) !live
      in
      List.iter
        (fun ((c : Incremental.circuit), id) ->
          Incremental.release eng c;
          Network.release refnet id)
        drop;
      live := keep
    end
  done;
  !cycles

let test_warm_churn () =
  let cycles = ref 0 in
  List.iter
    (fun (_, build) ->
      List.iter
        (fun (discipline, seed) ->
          cycles := !cycles + churn discipline (build ()) seed 60)
        [ (Incremental.Maxflow, 21); (Incremental.Mincost, 22) ])
    [ List.nth topologies 0; List.nth topologies 2; List.nth topologies 3 ];
  check Alcotest.bool "at least 300 warm churn cycles" true (!cycles >= 300)

(* --- Engine-level: --solver dinic-csr under fault churn ------------------- *)

(* The full engine differential under faults, cancels and deadlines,
   with the solver named as a CLI caller would (warm runs ignore the
   name): every entered cycle must allocate exactly what a from-scratch
   Scheduler run on the same degraded pre-commit snapshot allocates. *)
let test_engine_csr_differential () =
  let total_cycles = ref 0 in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun seed ->
          let net = build () in
          let base =
            Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1
              (Prng.create seed) net ~slots:150 ~arrival_prob:0.3
          in
          let sched =
            Fault.inject
              (Prng.create ((seed * 7) + 1))
              net ~horizon:150 ~mtbf:40. ~mttr:12.
          in
          let trace =
            List.stable_sort
              (fun a b ->
                compare (Workload.event_time a) (Workload.event_time b))
              (base @ Workload.fault_events sched)
          in
          let hook snapshot (info : Engine.cycle_info) =
            incr total_cycles;
            let reference =
              Scheduler.schedule snapshot
                ~requests:(List.map Scheduler.request info.Engine.requests)
                ~resources:(List.map Scheduler.resource info.Engine.free)
            in
            check Alcotest.int
              (Printf.sprintf "%s seed %d cycle at t=%d" name seed
                 info.Engine.time)
              reference.Scheduler.allocated info.Engine.allocated
          in
          let config =
            Engine.Config.v ~solver:"dinic-csr" ~transmission_time:2
              ~max_defer:8 ()
          in
          let report = Engine.run ~config ~cycle_hook:hook net trace in
          check Alcotest.bool
            (Printf.sprintf "%s seed %d applied faults" name seed)
            true
            (report.Engine.faults > 0))
        [ 10; 11 ])
    [ List.nth topologies 0; List.nth topologies 2; List.nth topologies 3 ];
  check Alcotest.bool "at least 150 engine differential cycles" true
    (!total_cycles >= 150)

(* Priority discipline through --solver mincost-csr: allocation count
   AND total served priority equal a from-scratch Transformation 2 of
   the same snapshot, cycle by cycle. *)
let test_engine_csr_priority_differential () =
  let total_cycles = ref 0 in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun seed ->
          let net = build () in
          let trace =
            Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1
              ~priority_levels:4 (Prng.create seed) net ~slots:150
              ~arrival_prob:0.3
          in
          let hook snapshot (info : Engine.cycle_info) =
            incr total_cycles;
            let label what =
              Printf.sprintf "%s seed %d cycle at t=%d: %s" name seed
                info.Engine.time what
            in
            let reference =
              T2.schedule snapshot ~requests:info.Engine.request_priorities
                ~free:(List.map (fun r -> (r, 0)) info.Engine.free)
            in
            check Alcotest.int (label "allocation") reference.T2.allocated
              info.Engine.allocated;
            let served mapping =
              List.fold_left
                (fun acc (p, _) ->
                  acc + List.assoc p info.Engine.request_priorities)
                0 mapping
            in
            check Alcotest.int (label "total priority served")
              (served reference.T2.mapping)
              (served info.Engine.mapping)
          in
          let report =
            Engine.run ~cycle_hook:hook
              ~config:
                (Engine.Config.v ~discipline:Engine.Priority
                   ~solver:"mincost-csr" ~transmission_time:2 ~max_defer:8 ())
              net trace
          in
          check Alcotest.bool
            (Printf.sprintf "%s seed %d allocated something" name seed)
            true
            (report.Engine.allocated > 0))
        [ 10; 11 ])
    [ List.nth topologies 0; List.nth topologies 2 ];
  check Alcotest.bool "at least 150 priority differential cycles" true
    (!total_cycles >= 150)

(* Warm runs have one representation, so the registry name only picks
   Rebuild's from-scratch solver: every name must give the same report
   and the same cycle-by-cycle trajectory, uniform under faults and
   priority alike. *)
let test_warm_ignores_solver () =
  let net = Builders.omega 16 in
  let base =
    Workload.synthesize ~deadline_slack:25 ~cancel_prob:0.1 ~priority_levels:4
      (Prng.create 5) net ~slots:120 ~arrival_prob:0.4
  in
  let sched = Fault.inject (Prng.create 6) net ~horizon:120 ~mtbf:40. ~mttr:12. in
  let faulty =
    List.stable_sort
      (fun a b -> compare (Workload.event_time a) (Workload.event_time b))
      (base @ Workload.fault_events sched)
  in
  let run discipline trace solver =
    let cycles = ref [] in
    let hook _ (info : Engine.cycle_info) = cycles := info :: !cycles in
    let config =
      Engine.Config.v ~discipline ~solver ~transmission_time:2 ~max_defer:8 ()
    in
    let report = Engine.run ~config ~cycle_hook:hook net trace in
    (report, List.rev !cycles)
  in
  List.iter
    (fun (what, discipline, trace) ->
      let report, cycles = run discipline trace "dinic" in
      check Alcotest.bool (what ^ ": cycles entered") true (List.length cycles > 50);
      List.iter
        (fun name ->
          let r, c = run discipline trace name in
          check Alcotest.bool (Printf.sprintf "%s: %s report" what name) true
            (r = report);
          check Alcotest.bool (Printf.sprintf "%s: %s cycles" what name) true
            (c = cycles))
        (Solver.names ()))
    [ ("uniform with faults", Engine.Uniform, faulty);
      ("priority", Engine.Priority, base) ]

(* --- Warm-cycle bulk operations ------------------------------------------- *)

let test_commit_release_cycle () =
  let net = Builders.omega 8 in
  let ng = Netgraph.compile_full net in
  let c = Netgraph.csr ng in
  let source = Netgraph.source ng and sink = Netgraph.sink ng in
  let np = Network.n_procs net and nr = Network.n_res net in
  for p = 0 to np - 1 do
    Csr.set_capacity c (Option.get (Netgraph.sp_arc ng p)) 1
  done;
  for r = 0 to nr - 1 do
    Csr.set_capacity c (Option.get (Netgraph.rt_arc ng r)) 1
  done;
  let f = Csr.dinic c ~source ~sink in
  check Alcotest.int "omega routes everything" np f;
  check Alcotest.int "commit returns the committed units" f
    (Csr.commit_new c ~source);
  check Alcotest.bool "endpoint arcs frozen" true
    (Csr.is_frozen c (Option.get (Netgraph.sp_arc ng 0)));
  check Alcotest.int "nothing left to augment" 0 (Csr.dinic c ~source ~sink);
  check Alcotest.int "flow survives the re-solve" f (Csr.flow_value c ~source);
  check Alcotest.(result unit string) "conserved while frozen" (Ok ())
    (Csr.check_conservation c ~source ~sink);
  Csr.release_all c;
  check Alcotest.int "release zeroes the flow" 0 (Csr.flow_value c ~source);
  check Alcotest.(result unit string) "pairing after release" (Ok ())
    (Csr.check_rev_pairing c);
  let again = Csr.dinic c ~source ~sink in
  check Alcotest.int "released capacity re-routes identically" f again

(* --- Minimum cut: CSR residual reachability vs Edmonds_karp.min_cut ------ *)

(* Residual reachability on the adjacency graph, computed independently
   of both min-cut routines. *)
let graph_source_side g ~source =
  let seen = Array.make (Graph.node_count g) false in
  let rec visit v =
    if not seen.(v) then begin
      seen.(v) <- true;
      Graph.iter_out g v (fun a ->
          if Graph.capacity g a > 0 then visit (Graph.dst g a))
    end
  in
  visit source;
  seen

(* Solve [g] on a fresh CSR snapshot, cut it, mirror the flow back with
   write_flows and compare against Edmonds_karp.min_cut on the mirror:
   the same source side, the same cut arcs, and (max-flow/min-cut) the
   positive-capacity cut arcs summing to the flow value. Returns the
   snapshot for further checks. *)
let cut_agrees what g ~source ~sink =
  let c = Csr.of_graph g in
  let flow = Csr.dinic c ~source ~sink in
  Csr.min_cut c ~source ~sink;
  Csr.write_flows c g;
  let side = graph_source_side g ~source in
  Array.iteri
    (fun v want ->
      if Csr.on_source_side c v <> want then
        QCheck.Test.fail_reportf "%s: node %d source side: csr %b, graph %b"
          what v (Csr.on_source_side c v) want)
    side;
  let csr_cut = ref [] in
  Graph.iter_forward_arcs g (fun a ->
      if Csr.crosses_cut c a then csr_cut := a :: !csr_cut);
  let csr_cut = List.rev !csr_cut in
  let ek_cut = Edmonds_karp.min_cut g ~source ~sink in
  let positive = List.filter (fun a -> Graph.original_capacity g a > 0) in
  if positive csr_cut <> positive ek_cut || csr_cut <> ek_cut then
    QCheck.Test.fail_reportf "%s: cut arcs differ (%d csr, %d edmonds-karp)"
      what (List.length csr_cut) (List.length ek_cut);
  let capacity =
    List.fold_left (fun acc a -> acc + Graph.original_capacity g a) 0 csr_cut
  in
  if capacity <> flow then
    QCheck.Test.fail_reportf "%s: cut capacity %d <> max flow %d" what capacity
      flow;
  c

let test_min_cut_random =
  qtest "Csr.min_cut = Edmonds_karp.min_cut on random graphs" ~count:300
    QCheck.small_int (fun seed ->
      let g = random_graph (Prng.create seed) in
      Graph.reset_flows g;
      let sink = Graph.node_count g - 1 in
      ignore (cut_agrees (Printf.sprintf "seed %d" seed) g ~source:0 ~sink);
      true)

(* compile_full with the scenario's requests and free ports switched on:
   besides agreeing with Edmonds_karp, the positive-capacity cut must
   name the members Transform1's snapshot graph reports as its
   bottleneck — the zero-capacity arcs are exactly the ones
   Transform1.build omits. *)
let test_min_cut_netgraph =
  qtest "Csr.min_cut on compile_full = Transform1 bottleneck" ~count:60
    QCheck.small_int (fun seed ->
      List.for_all
        (fun ((name, _) as topo) ->
          let _rng, net, requests, free = scenario seed topo in
          let ng = Netgraph.compile_full net in
          let g = Netgraph.graph ng in
          let switch_on arc i = Graph.set_capacity g (Option.get (arc ng i)) 1 in
          List.iter (switch_on Netgraph.sp_arc) requests;
          List.iter (switch_on Netgraph.rt_arc) free;
          let what = Printf.sprintf "%s seed %d" name seed in
          let c =
            cut_agrees what g ~source:(Netgraph.source ng)
              ~sink:(Netgraph.sink ng)
          in
          let cut = ref [] in
          Graph.iter_forward_arcs g (fun a ->
              if Csr.original_capacity c a > 0 && Csr.crosses_cut c a then
                cut := a :: !cut);
          let tr = T1.build net ~requests ~free in
          ignore (T1.solve tr);
          if
            List.sort compare (Netgraph.cut_members ng !cut)
            <> List.sort compare (T1.bottleneck tr)
          then QCheck.Test.fail_reportf "%s: cut members differ" what;
          true)
        topologies)

let test_min_cut_rejects_non_maximum () =
  let g = Graph.create () in
  let s = Graph.add_node g and t = Graph.add_node g in
  ignore (Graph.add_arc g ~src:s ~dst:t ~cap:1);
  let c = Csr.of_graph g in
  check Alcotest.bool "zero flow is not maximum" true
    (try
       Csr.min_cut c ~source:s ~sink:t;
       false
     with Invalid_argument m ->
       m = "Csr.min_cut: flow is not maximum (call dinic first)");
  ignore (Csr.dinic c ~source:s ~sink:t);
  Csr.min_cut c ~source:s ~sink:t;
  check Alcotest.bool "cut after the solve" true (Csr.crosses_cut c 0)

(* E34's calibrated probe: two back-to-back Gc.minor_words readings
   measure the reading's own boxing, so the cut and a full scan of its
   arcs must net exactly 0 words. *)
let count_crossing c arcs =
  let n = ref 0 in
  for i = 0 to arcs - 1 do
    if Csr.crosses_cut c (2 * i) then incr n
  done;
  !n

let test_min_cut_zero_alloc () =
  let ng = Netgraph.compile_full (Builders.omega 1024) in
  let c = Netgraph.csr ng in
  let net = Netgraph.network ng in
  for p = 0 to Network.n_procs net - 1 do
    if p mod 3 <> 0 then
      Csr.set_capacity c (Option.get (Netgraph.sp_arc ng p)) 1
  done;
  for r = 0 to Network.n_res net - 1 do
    if r mod 2 = 0 then Csr.set_capacity c (Option.get (Netgraph.rt_arc ng r)) 1
  done;
  let source = Netgraph.source ng and sink = Netgraph.sink ng in
  let flow = Csr.dinic c ~source ~sink in
  let arcs = Csr.arc_count c in
  Csr.min_cut c ~source ~sink;
  let warm = count_crossing c arcs in
  let a = Gc.minor_words () in
  let b = Gc.minor_words () in
  let overhead = b -. a in
  Csr.min_cut c ~source ~sink;
  let crossing = count_crossing c arcs in
  let d = Gc.minor_words () in
  check Alcotest.int "same cut twice" warm crossing;
  check Alcotest.bool "cut is nonempty" true (flow > 0 && crossing > 0);
  check (Alcotest.float 0.) "min_cut allocates 0 minor words" 0.
    (d -. b -. overhead)

let suite =
  [
    test_of_graph_invariants;
    test_mutation_agreement;
    Alcotest.test_case "frozen arcs survive of_graph" `Quick
      test_frozen_survives_of_graph;
    Alcotest.test_case "Netgraph CSR emission" `Quick test_netgraph_emission;
    test_dinic_csr_differential;
    test_mincost_csr_differential;
    test_mincost_csr_general_graphs;
    Alcotest.test_case "mincost-csr rejects a negative cycle" `Quick
      test_mincost_csr_negative_cycle;
    Alcotest.test_case "Csr.mincost phases bounded by priority levels" `Quick
      test_mincost_phase_bound;
    Alcotest.test_case "work records populated consistently" `Quick
      test_work_record_consistency;
    Alcotest.test_case "warm churn: Csr = from-scratch T1/T2" `Slow
      test_warm_churn;
    Alcotest.test_case "warm runs ignore Config.solver" `Quick
      test_warm_ignores_solver;
    Alcotest.test_case "engine differential via --solver dinic-csr" `Slow
      test_engine_csr_differential;
    Alcotest.test_case "engine priority differential via --solver mincost-csr"
      `Slow test_engine_csr_priority_differential;
    Alcotest.test_case "commit_new/release_all round-trip" `Quick
      test_commit_release_cycle;
    test_min_cut_random;
    test_min_cut_netgraph;
    Alcotest.test_case "min_cut rejects a non-maximum flow" `Quick
      test_min_cut_rejects_non_maximum;
    Alcotest.test_case "min_cut allocates nothing" `Quick
      test_min_cut_zero_alloc;
  ]
