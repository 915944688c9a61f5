(* E35: sharded multicore serve throughput vs domain count.

   One synthetic workload over a 1024-port network of four disjoint
   omega:256 planes (multi:4:omega:256) is served three times — with a
   domain pool of 1, 2 and 4 — and the feed-to-drain wall time of each
   run is recorded. Because the shard layout (and with it every routing
   and borrowing decision) is independent of the pool size, the three
   runs must produce identical deterministic counters: the bench asserts
   events, allocations, borrows, starvations, cycles and solver work all
   agree before comparing any clock. On a machine with at least four
   cores (and outside --quick) it then asserts the headline scaling
   claim: serving with 4 domains is at least 2x faster than with 1; on
   fewer cores it prints the measured speedup and the Amdahl serial
   fraction instead.

   The uniform trace never fills a plane, so a second, hot-plane pass
   exercises cross-shard borrowing: every plane-0 processor receives a
   long task in one slot, and a few more plane-0 arrivals follow in
   each of the next slots, when plane 0 has no free port left. Its
   borrow and starvation counts are deterministic, must agree at 1 and
   2 domains, and must include at least one borrow. The structured
   report lands in BENCH_serve.json for the [rsin perf] regression
   gate. *)

module Network = Rsin_topology.Network
module Builders = Rsin_topology.Builders
module Workload = Rsin_sim.Workload
module Engine = Rsin_engine.Engine
module Serve = Rsin_engine.Serve
module Prng = Rsin_util.Prng
module Clock = Rsin_util.Clock
module Table = Rsin_util.Table
module Bench_report = Rsin_obs.Bench_report

let seed = 35
let planes = 4
let ports_per_plane = 256

let ok = function
  | Ok v -> v
  | Error e -> failwith ("E35: " ^ e)

let amin = Array.fold_left min infinity
let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* The uniform trace with plane 0's arrivals from slot [hot] on
   replaced by a burst (one service-12 task per plane-0 processor at
   [hot]) and [trickle] plane-0 arrivals in each of the next 4 slots. *)
let hot_plane_trace rng net ~slots ~trickle =
  let hot = slots / 4 in
  let background =
    Workload.synthesize rng net ~slots ~arrival_prob:0.12
    |> List.filter (function
         | Workload.Arrive a -> a.t < hot || a.proc >= ports_per_plane
         | Workload.Cancel _ | Workload.Fault _ | Workload.Repair _ -> true)
  in
  let next_id =
    ref
      (1
      + List.fold_left (fun m ev -> max m (Workload.event_id ev)) 0 background)
  in
  let arrive t proc =
    incr next_id;
    Workload.Arrive
      { t; id = !next_id; proc; service = 12; deadline = None; priority = 0 }
  in
  let burst = List.init ports_per_plane (arrive hot) in
  let trickles =
    List.concat
      (List.init 4 (fun i ->
           Array.to_list
             (Array.map (arrive (hot + 1 + i))
                (Prng.sample_without_replacement rng trickle ports_per_plane))))
  in
  Workload.sort_trace (background @ burst @ trickles)

let run ?(quick = false) () =
  print_endline "== E35: sharded serve throughput vs domain count ==";
  Printf.printf
    "  (multi:%d:omega:%d — %d ports; one trace served at --domains 1/2/4,\n\
    \   seed %d%s; this machine recommends %d domain(s))\n\n"
    planes ports_per_plane
    (planes * ports_per_plane)
    seed
    (if quick then ", quick" else "")
    (Domain.recommended_domain_count ());
  let report = Bench_report.create ~quick "serve" in
  let slots = if quick then 10 else 40 in
  let runs = if quick then 2 else 3 in
  let net () = Builders.multiplane ~planes (Builders.omega ports_per_plane) in
  let trace =
    Workload.sort_trace
      (Workload.synthesize
         (Prng.create seed)
         (net ())
         ~slots ~arrival_prob:0.12)
  in
  let n_events = List.length trace in
  let config = Engine.Config.default in
  (* Feed-to-drain wall time: network construction and per-shard engine
     compilation are identical at every domain count, so timing from the
     first event isolates the part the pool actually parallelizes. *)
  let serve_once d =
    let s = ok (Serve.create ~config ~domains:d (net ())) in
    let t0 = Clock.now_ns () in
    List.iter (Serve.feed s) trace;
    Serve.drain s;
    let wall = Clock.elapsed_us ~since:t0 in
    (Serve.report s, wall)
  in
  let results =
    List.map
      (fun d ->
        ignore (serve_once d) (* warmup *);
        let reports = Array.init runs (fun _ -> serve_once d) in
        let walls = Array.map snd reports in
        (d, fst reports.(0), walls))
      [ 1; 2; 4 ]
  in
  (* The allocation trajectory must not depend on the pool size. *)
  let _, r1, _ = List.hd results in
  List.iter
    (fun (d, r, _) ->
      let open Serve in
      if
        (r.events, r.allocated, r.borrows, r.starved, r.cycles, r.solver_work)
        <> ( r1.events,
             r1.allocated,
             r1.borrows,
             r1.starved,
             r1.cycles,
             r1.solver_work )
      then begin
        Printf.eprintf
          "E35: domains=%d diverged from domains=1 (allocated %d vs %d)\n" d
          r.allocated r1.allocated;
        assert false
      end)
    results;
  let rows =
    List.map
      (fun (d, r, walls) ->
        let case = Bench_report.case report (Printf.sprintf "domains=%d" d) in
        Bench_report.record_samples case ~name:"serve.wall_us"
          ~kind:Bench_report.Time ~unit_:"us" walls;
        Bench_report.record_count case ~name:"events" ~unit_:"events"
          (float_of_int r.Serve.events);
        Bench_report.record_count case ~name:"allocated" ~unit_:"circuits"
          (float_of_int r.Serve.allocated);
        Bench_report.record_count case ~name:"borrowed" ~unit_:"tasks"
          (float_of_int r.Serve.borrows);
        Bench_report.record_count case ~name:"starved" ~unit_:"tasks"
          (float_of_int r.Serve.starved);
        Bench_report.record_count case ~name:"cycles" ~unit_:"cycles"
          (float_of_int r.Serve.cycles);
        Bench_report.record_count case ~name:"solver_work" ~unit_:"arcs"
          (float_of_int r.Serve.solver_work);
        Bench_report.record_count case ~name:"shards"
          (float_of_int r.Serve.shards);
        let w = mean walls in
        let _, _, w1 = List.hd results in
        [
          string_of_int d;
          string_of_int r.Serve.shards;
          string_of_int r.Serve.events;
          string_of_int r.Serve.allocated;
          Table.ffix 1 (w /. 1e3);
          Table.ffix 0 (float_of_int n_events /. (w /. 1e6));
          Table.ffix 2 (amin w1 /. amin walls);
        ])
      results
  in
  Table.print
    ~header:
      [ "domains"; "shards"; "events"; "allocated"; "ms/run"; "events/s";
        "speedup" ]
    rows;
  print_newline ();
  let hot_trace =
    hot_plane_trace (Prng.create (seed + 1)) (net ()) ~slots ~trickle:6
  in
  let hot_once d =
    let s = ok (Serve.create ~config ~domains:d (net ())) in
    let t0 = Clock.now_ns () in
    List.iter (Serve.feed s) hot_trace;
    Serve.drain s;
    (Serve.report s, Clock.elapsed_us ~since:t0)
  in
  let hot1, _ = hot_once 1 in
  let hot2, _ = hot_once 2 in
  let hot_walls = Array.init runs (fun _ -> snd (hot_once 2)) in
  let counters (r : Serve.report) =
    (r.events, r.allocated, r.borrows, r.starved, r.cycles, r.solver_work)
  in
  if counters hot1 <> counters hot2 then begin
    Printf.eprintf
      "E35: hot-plane pass diverged at 2 domains (borrows %d vs %d)\n"
      hot2.Serve.borrows hot1.Serve.borrows;
    assert false
  end;
  if hot1.Serve.borrows = 0 then begin
    prerr_endline "E35: the hot-plane pass borrowed nothing";
    assert false
  end;
  let case = Bench_report.case report "hot-plane" in
  Bench_report.record_samples case ~name:"serve.wall_us"
    ~kind:Bench_report.Time ~unit_:"us" hot_walls;
  Bench_report.record_count case ~name:"events" ~unit_:"events"
    (float_of_int hot1.Serve.events);
  Bench_report.record_count case ~name:"allocated" ~unit_:"circuits"
    (float_of_int hot1.Serve.allocated);
  Bench_report.record_count case ~name:"borrowed" ~unit_:"tasks"
    (float_of_int hot1.Serve.borrows);
  Bench_report.record_count case ~name:"starved" ~unit_:"tasks"
    (float_of_int hot1.Serve.starved);
  Printf.printf
    "  hot plane: %d events, %d borrowed, %d starved, %.1f ms/run at 2 \
     domains\n\n"
    hot1.Serve.events hot1.Serve.borrows hot1.Serve.starved
    (mean hot_walls /. 1e3);
  let _, _, w1 = List.hd results in
  let _, _, w2 = List.nth results 1 in
  let _, _, w4 = List.nth results 2 in
  let speedup = amin w1 /. amin w4 in
  let cores = Domain.recommended_domain_count () in
  if (not quick) && cores >= 4 then begin
    if speedup < 2.0 then begin
      Printf.eprintf
        "E35: 4-domain serve only %.2fx faster than 1-domain (want >= 2x)\n"
        speedup;
      assert false
    end;
    Printf.printf
      "  (checked: identical counters at every domain count; 4 domains\n\
      \   %.2fx faster than 1 — the >= 2x scaling gate holds)\n"
      speedup
  end
  else begin
    (* Amdahl: with n workers a serial fraction f gives speedup
       1 / (f + (1 - f) / n), so f = (n / speedup - 1) / (n - 1). *)
    let n, wn = if cores >= 4 then (4, w4) else (2, w2) in
    let s_n = amin w1 /. amin wn in
    Printf.printf
      "  (checked: identical counters at every domain count; >= 2x scaling\n\
      \   gate skipped — %s; measured %.2fx at %d domains, Amdahl serial\n\
      \   fraction %.2f)\n"
      (if quick then "quick mode" else Printf.sprintf "only %d core(s)" cores)
      s_n n
      ((float_of_int n /. s_n -. 1.) /. float_of_int (n - 1))
  end;
  Printf.printf "  wrote %s\n\n" (Bench_report.write report)
