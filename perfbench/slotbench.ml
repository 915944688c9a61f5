(* The slot-level benchmark.

     slotbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics with no hooks installed:
   one warm-up pass, then passes of the seeded trace until S seconds
   have gone (at least two), each one set-up, a closed feed/advance
   loop and a drain. --trace 1 is the separate traced run that yields
   the per-layer metrics: it alternates untraced and traced passes,
   replays every recorded cycle into the benchmark's own Incremental.t
   and a lockstep Csr.t, and re-solves sampled cycles from scratch.

   Every run checks the program's outputs; a failed check makes the run
   report "correct": false and exit 1. The last line of standard output
   is one JSON object: {"correct", "attempted", "failed", "metrics"}. *)

module Network = Rsin_topology.Network
module Netgraph = Rsin_core.Netgraph
module Engine = Rsin_engine.Engine
module Stats = Rsin_util.Stats
module Json = Rsin_util.Json

(* --- Metrics -------------------------------------------------------------- *)

(* Name and unit of every metric, in output order. *)
let end_to_end =
  [ ("events_per_s", "1/s"); ("slot_us_p50", "us"); ("slot_us_p90", "us");
    ("minor_words_per_slot", "words"); ("peak_heap_mb", "MB");
    ("setup_s", "s"); ("sim.throughput", "tasks/slot");
    ("sim.mean_connect_slots", "slots"); ("served_ratio", "ratio") ]

let per_layer =
  [ ("netgraph.compile_full_s", "s"); ("netgraph.csr_s", "s");
    ("engine.feed_us", "us"); ("engine.pre_cycle_us", "us");
    ("engine.commit_us", "us"); ("engine.no_cycle_slot_us", "us");
    ("engine.cycles", "count"); ("engine.skipped_cycles", "count");
    ("engine.productive_cycle_ratio", "ratio");
    ("engine.pending_per_cycle", "count");
    ("engine.allocated_per_cycle", "count"); ("engine.shed", "count");
    ("engine.expired", "count"); ("engine.victims", "count");
    ("engine.retries", "count"); ("incremental.sync_us", "us");
    ("incremental.solve_us", "us"); ("incremental.extract_us", "us");
    ("incremental.release_us", "us");
    ("incremental.minor_words_per_solve", "words");
    ("incremental.work_per_cycle", "count");
    ("incremental.mapping_match_ratio", "ratio"); ("csr.solve_us", "us");
    ("csr.arcs_scanned_per_solve", "count");
    ("csr.augmentations_per_solve", "count");
    ("csr.passes_per_solve", "count"); ("csr.minor_words_per_solve", "words");
    ("serve.flush_us.hot", "us"); ("serve.flush_us.background", "us");
    ("serve.shard_skew_us", "us"); ("serve.drain_us", "us");
    ("serve.borrows", "count"); ("serve.starved", "count");
    ("serve.borrow_ratio", "ratio"); ("serve.speedup_d2", "ratio");
    ("serve.serial_fraction", "ratio"); ("reference.cycles_checked", "count");
    ("reference.mismatches", "count"); ("trace.overhead_ratio", "ratio");
    ("trace.coverage", "ratio"); ("sim.mean_wait_slots", "slots");
    ("failed_ratio", "ratio") ]

(* --- Run state ------------------------------------------------------------ *)

type run = { mutable attempted : int; mutable failed : int }

(* Runs a pass's checks; a pass that fails any of them counts all of its
   events as failed operations, once. *)
let check_all run ~events checks =
  let failures =
    List.filter_map (fun (ok, what) -> if ok then None else Some what) checks
  in
  List.iter (Printf.eprintf "slotbench: CHECK FAILED: %s\n%!") failures;
  if failures <> [] then run.failed <- run.failed + max 1 events

let median xs =
  match xs with
  | [] -> 0.
  | _ -> Stats.percentile (Array.of_list xs) 0.5

let fi = float_of_int
let ratio a b = if b = 0 then 0. else fi a /. fi b

(* Checks every pass must pass: the conservation identity after drain,
   the same simulated counters as the first pass of this seed, and on a
   hot-spot workload, borrowing inside the hot window. *)
let check_pass run (w : Workloads.t) ~reference (p : Loop.pass) =
  let events = p.Loop.events in
  run.attempted <- run.attempted + events;
  let b = p.Loop.summary.Loop.borrows in
  check_all run ~events
    ([ ( Result.is_ok p.Loop.accounting,
         match p.Loop.accounting with
         | Ok () -> ""
         | Error m -> "accounting: " ^ m );
       ( Loop.signature p.Loop.summary = Loop.signature reference,
         "simulated counters differ between repeats of one seed" ) ]
    @
    if w.hot = None then []
    else
      [ (b > 0, "the hot-spot trace made no borrow");
        ( p.Loop.window_borrows > 0 && 2 * p.Loop.window_borrows >= b,
          Printf.sprintf "only %d of %d borrows fell inside the hot window"
            p.Loop.window_borrows b ) ])

let rate (p : Loop.pass) = fi p.Loop.events /. (p.Loop.wall_ns /. 1e9)

let failed_ratio run (s : Loop.summary) =
  fi (s.shed + s.expired + s.given_up + s.left_pending + run.failed)
  /. fi (max 1 s.arrivals)

(* --- End-to-end run (tracing off) ----------------------------------------- *)

(* Every pass and set-up starts from a collected heap, so that garbage
   left by the one before does not land in its timings. *)
let fresh f =
  Gc.full_major ();
  f ()

let end_to_end_run run (w : Workloads.t) slots ~seconds =
  let net = w.net () in
  let deadline = Spans.now () +. (seconds *. 1e9) in
  let setups = List.init 5 (fun _ -> fresh (fun () -> Loop.setup_once w net)) in
  let warm = fresh (fun () -> Loop.pass w net slots) in
  check_pass run w ~reference:warm.Loop.summary warm;
  let rec go acc =
    if List.length acc >= 2 && Spans.now () >= deadline then List.rev acc
    else begin
      let p = fresh (fun () -> Loop.pass w net slots) in
      check_pass run w ~reference:warm.Loop.summary p;
      go (p :: acc)
    end
  in
  let passes = go [] in
  let s = warm.Loop.summary in
  let samples =
    List.fold_left (fun acc p -> acc + Array.length p.Loop.slot_ns) 0 passes
  in
  (* A percentile per pass, then the median over passes: a burst of
     host noise moves only the passes it hits. *)
  let slot_us q =
    median (List.map (fun p -> Stats.percentile p.Loop.slot_ns q) passes)
    /. 1e3
  in
  let per_slot f =
    median
      (List.map
         (fun (p : Loop.pass) -> f p /. fi (max 1 p.Loop.fed_slots))
         passes)
  in
  let heap =
    median (List.map (fun p -> fi p.Loop.peak_heap_words) passes)
    *. fi (Sys.word_size / 8)
  in
  Printf.printf
    "%s: %d timed passes, %d slot samples, %d events per pass, %d arrivals\n"
    w.name (List.length passes) samples warm.Loop.events
    s.arrivals;
  Printf.printf "  events/s per pass: %s\n"
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.0f" (rate p)) passes));
  Printf.printf
    "  completed %d expired %d shed %d cancelled %d given up %d left %d \
     borrows %d (%d in the hot window) victims %d\n"
    s.completed s.expired s.shed s.cancelled s.given_up s.left_pending
    s.borrows warm.Loop.window_borrows s.victims;
  [ ("events_per_s", median (List.map rate passes));
    ("slot_us_p50", slot_us 0.5);
    ("slot_us_p90", slot_us 0.9);
    ("minor_words_per_slot", per_slot (fun p -> p.Loop.minor_words));
    ("peak_heap_mb", heap /. 1e6);
    ( "setup_s",
      median (setups @ List.map (fun p -> p.Loop.setup_ns) passes) /. 1e9 );
    ("sim.throughput", per_slot (fun p -> fi p.Loop.fed_completed));
    ("sim.mean_connect_slots", 1. +. s.mean_wait);
    ( "served_ratio",
      fi s.completed /. fi (max 1 (s.arrivals + run.failed)) ) ]

(* --- Traced run ----------------------------------------------------------- *)

(* Netgraph's two set-up steps on the nets the program compiles. *)
let netgraph_costs spans nets =
  let once () =
    List.fold_left
      (fun (c, e) net ->
        let net = Network.copy net in
        let t0 = Spans.now () in
        let ng = Netgraph.compile_full net in
        let t1 = Spans.now () in
        ignore (Netgraph.csr ng);
        let t2 = Spans.now () in
        Loop.setup_span spans "netgraph.compile_full" t0 t1;
        Loop.setup_span spans "netgraph.csr" t1 t2;
        (c +. (t1 -. t0), e +. (t2 -. t1)))
      (0., 0.) nets
  in
  let runs = List.init 5 (fun _ -> once ()) in
  (median (List.map fst runs) /. 1e9, median (List.map snd runs) /. 1e9)

(* Replays each shard's (or the engine's) recorded cycles in order and
   re-solves the sampled ones from scratch. *)
let replay_all spans st ref_ (w : Workloads.t) nets recorders =
  List.iter2
    (fun net rc ->
      let discipline = w.config.Engine.Config.discipline in
      let rp = Cycles.replica ~discipline net in
      List.iter
        (fun r ->
          Cycles.replay_cycle spans st rp r;
          Cycles.check_reference ref_ discipline r)
        (Cycles.in_order rc))
    nets recorders

(* Where a traced run writes its spans, relative to the checkout. *)
let out_dir = ".perfbench"

let traced_run run (w : Workloads.t) slots ~seconds ~seed =
  let net = w.net () in
  let deadline = Spans.now () +. (seconds *. 1e9) in
  let sharded = match w.target with Workloads.Single -> false | _ -> true in
  let nets = if sharded then Array.to_list (Loop.shard_nets net) else [ net ] in
  let spans = Spans.create () in
  let compile_s, csr_s = netgraph_costs spans nets in
  let st = Cycles.new_stats () and ref_ = Cycles.new_reference () in
  let sample_every = 8 in
  let first = ref None in
  let checked p =
    if !first = None then first := Some p.Loop.summary;
    check_pass run w ~reference:(Option.get !first) p
  in
  let untraced = ref [] and traced = ref [] and d1 = ref [] in
  let records = ref [] in
  let rec go () =
    let u = fresh (fun () -> Loop.pass w net slots) in
    checked u;
    untraced := u :: !untraced;
    let t =
      if sharded then begin
        (* Scaling: the same trace on one domain must give the same
           simulated counters. *)
        let one = fresh (fun () -> Loop.serve_pass ~domains:1 w net slots) in
        checked one;
        d1 := one :: !d1;
        let tr =
          Loop.serve_tracer ~spans ~shards:(List.length nets) ~sample_every
        in
        let t = fresh (fun () -> Loop.pass ~str:tr w net slots) in
        replay_all spans st ref_ w nets (Array.to_list tr.Loop.s_rec);
        records :=
          List.concat_map Cycles.in_order (Array.to_list tr.Loop.s_rec)
          @ !records;
        (t, tr.Loop.skews)
      end
      else begin
        let tr = Loop.engine_tracer ~spans ~sample_every in
        let t = fresh (fun () -> Loop.pass ~etr:tr w net slots) in
        replay_all spans st ref_ w nets [ tr.Loop.e_rec ];
        records := Cycles.in_order tr.Loop.e_rec @ !records;
        (t, [])
      end
    in
    checked (fst t);
    traced := t :: !traced;
    if Spans.now () < deadline then go ()
  in
  go ();
  let traced_passes = List.map fst !traced in
  let t = List.hd traced_passes in
  let s = t.Loop.summary in
  let tbl = Spans.by_name spans in
  let records = !records in
  let n_rec = List.length records in
  let mean_of f =
    if n_rec = 0 then 0.
    else fi (List.fold_left (fun acc r -> acc + f r) 0 records) /. fi n_rec
  in
  let per n x = if n = 0 then 0. else x /. fi n in
  let events =
    List.fold_left (fun acc p -> acc + p.Loop.events) 0 traced_passes
  in
  let feed =
    match Hashtbl.find_opt tbl "engine.feed" with
    | Some x -> x.Spans.total_ns
    | None -> 0.
  in
  (* Exact-count assertions of the replay. *)
  let exact name ok detail =
    check_all run ~events:1 [ (ok, Printf.sprintf "%s: %s" name detail) ]
  in
  exact "incremental.mapping_match_ratio" (st.Cycles.matched = st.Cycles.cycles)
    (Printf.sprintf "%d of %d replayed cycles matched the engine's mapping"
       st.Cycles.matched st.Cycles.cycles);
  exact "csr.minor_words_per_solve" (st.Cycles.csr_words = 0.)
    (Printf.sprintf "the lockstep Csr solves allocated %.0f minor words"
       st.Cycles.csr_words);
  exact "csr.flow" (st.Cycles.flow_mismatches = 0)
    (Printf.sprintf "%d lockstep solves disagreed with Incremental.solve"
       st.Cycles.flow_mismatches);
  exact "reference.mismatches" (ref_.Cycles.mismatches = 0)
    (Printf.sprintf "%d of %d from-scratch re-solves disagreed"
       ref_.Cycles.mismatches ref_.Cycles.checked);
  let hot_flush, bg_flush =
    List.fold_left
      (fun (h, b) (p : Loop.pass) ->
        let h = ref h and b = ref b in
        Array.iteri
          (fun i x -> if p.Loop.hot.(i) then h := x :: !h else b := x :: !b)
          p.Loop.slot_ns;
        (!h, !b))
      ([], []) traced_passes
  in
  let mean xs = match xs with [] -> 0. | _ -> Stats.mean_of xs in
  let skews = List.concat_map snd !traced in
  let wall ps = median (List.map (fun p -> p.Loop.wall_ns) ps) in
  let speedup = if sharded then wall !d1 /. wall !untraced else 0. in
  let overhead =
    median (List.map rate !untraced) /. median (List.map rate traced_passes)
  in
  let coverage = Spans.coverage spans in
  let file =
    Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" w.name seed)
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     Spans.write spans file;
     Printf.printf "%s: %d spans written to %s\n" w.name spans.Spans.len file
   with Sys_error m -> Printf.eprintf "slotbench: spans not written: %s\n" m);
  Printf.printf
    "%s: %d traced passes, %d recorded cycles, %d replayed solves, %d \
     reference checks\n"
    w.name (List.length traced_passes) n_rec st.Cycles.solves
    ref_.Cycles.checked;
  [ ("netgraph.compile_full_s", compile_s); ("netgraph.csr_s", csr_s);
    ("engine.feed_us", per events feed /. 1e3);
    ("engine.pre_cycle_us", Spans.mean_us tbl "engine.pre_cycle");
    ("engine.commit_us", Spans.mean_us tbl "engine.commit");
    ("engine.no_cycle_slot_us", Spans.mean_us tbl "engine.no_cycle_slot");
    ("engine.cycles", fi s.cycles); ("engine.skipped_cycles", fi s.skipped);
    ( "engine.productive_cycle_ratio",
      mean_of (fun r -> if r.Cycles.mapping <> [] then 1 else 0) );
    ( "engine.pending_per_cycle",
      mean_of (fun r -> List.length r.Cycles.requests) );
    ( "engine.allocated_per_cycle",
      mean_of (fun r -> List.length r.Cycles.mapping) );
    ("engine.shed", fi s.shed); ("engine.expired", fi s.expired);
    ("engine.victims", fi s.victims); ("engine.retries", fi s.retries);
    ("incremental.sync_us", per st.Cycles.cycles st.Cycles.sync_ns /. 1e3);
    ("incremental.solve_us", per st.Cycles.solves st.Cycles.solve_ns /. 1e3);
    ( "incremental.extract_us",
      per st.Cycles.solves st.Cycles.extract_ns /. 1e3 );
    ( "incremental.release_us",
      per st.Cycles.releases st.Cycles.release_ns /. 1e3 );
    ( "incremental.minor_words_per_solve",
      per st.Cycles.solves st.Cycles.inc_words );
    ("incremental.work_per_cycle", mean_of (fun r -> r.Cycles.work));
    ( "incremental.mapping_match_ratio",
      ratio st.Cycles.matched st.Cycles.cycles );
    ("csr.solve_us", per st.Cycles.solves st.Cycles.csr_ns /. 1e3);
    ("csr.arcs_scanned_per_solve", per st.Cycles.solves (fi st.Cycles.arcs));
    ( "csr.augmentations_per_solve",
      per st.Cycles.solves (fi st.Cycles.augmentations) );
    ("csr.passes_per_solve", per st.Cycles.solves (fi st.Cycles.passes));
    ("csr.minor_words_per_solve", per st.Cycles.solves st.Cycles.csr_words);
    ("serve.flush_us.hot", mean hot_flush /. 1e3);
    ("serve.flush_us.background", if sharded then mean bg_flush /. 1e3 else 0.);
    ("serve.shard_skew_us", mean skews /. 1e3);
    ( "serve.drain_us",
      if sharded then
        median (List.map (fun p -> p.Loop.drain_ns) traced_passes) /. 1e3
      else 0. );
    ("serve.borrows", fi s.borrows); ("serve.starved", fi s.starved);
    ("serve.borrow_ratio", ratio s.borrows (s.borrows + s.starved));
    ("serve.speedup_d2", speedup);
    ("serve.serial_fraction", if sharded then (2. /. speedup) -. 1. else 0.);
    ("reference.cycles_checked", fi ref_.Cycles.checked);
    ("reference.mismatches", fi ref_.Cycles.mismatches);
    ("trace.overhead_ratio", overhead); ("trace.coverage", coverage);
    ("sim.mean_wait_slots", s.mean_wait);
    ("failed_ratio", failed_ratio run s) ]

(* --- Main ----------------------------------------------------------------- *)

let emit run declared values =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = List.assoc name values in
        Printf.printf "  %-36s %16.6g %s\n" name v unit;
        (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
      declared
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (run.failed = 0));
            ("attempted", Json.Num (fi (max 1 run.attempted)));
            ("failed", Json.Num (fi run.failed));
            ("metrics", Json.Obj metrics) ]))

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref 10 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated trace");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced (1) run") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "slotbench --workload NAME --seed N --seconds S --trace 0|1";
  match Workloads.find !workload with
  | None ->
    Printf.eprintf "slotbench: unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
    exit 2
  | Some w ->
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "slotbench: --seconds must be >= 1 and --trace 0 or 1";
      exit 2
    end;
    let run = { attempted = 0; failed = 0 } in
    let slots = Workloads.by_slot (w.generate ~seed:!seed (w.net ())) in
    Printf.printf "%s (seed %d): %s\n" w.name !seed w.why;
    let seconds = fi !seconds in
    if !trace = 0 then emit run end_to_end (end_to_end_run run w slots ~seconds)
    else
      emit run per_layer
        (traced_run run w slots ~seconds ~seed:!seed);
    if run.failed > 0 then exit 1
