(* Tests for the observability layer (Rsin_obs): the metrics registry,
   the tracer and its exporters, the no-op-on-None observer helpers, and
   the reconciliation guarantee — the registry counters are fed from the
   same refs as the legacy stats records, so the two views must agree. *)

open Rsin_obs
module Builders = Rsin_topology.Builders
module Dinic = Rsin_flow.Dinic
module Monitor = Rsin_core.Monitor
module Transform1 = Rsin_core.Transform1
module Token_sim = Rsin_distributed.Token_sim

let check = Alcotest.check

(* --- metrics registry ---------------------------------------------------- *)

let test_metrics_counters () =
  let t = Metrics.create () in
  let c = Metrics.counter t "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "counter value" 5 (Metrics.counter_value c);
  check Alcotest.int "get_counter" 5 (Metrics.get_counter t "a.count");
  check Alcotest.int "absent counter reads 0" 0 (Metrics.get_counter t "nope");
  (* the same name returns the same handle *)
  Metrics.incr (Metrics.counter t "a.count");
  check Alcotest.int "shared handle" 6 (Metrics.get_counter t "a.count")

let test_metrics_kinds () =
  let t = Metrics.create () in
  ignore (Metrics.counter t "x");
  Alcotest.check_raises "kind mismatch names both kinds"
    (Invalid_argument "Metrics: \"x\" is a counter, not the requested gauge")
    (fun () -> ignore (Metrics.gauge t "x"));
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Metrics: \"x\" is a counter, not the requested histogram")
    (fun () -> ignore (Metrics.histogram t "x"));
  let g = Metrics.gauge t "g" in
  Metrics.set g 2.5;
  let h = Metrics.histogram t "h" in
  Metrics.observe h 1.;
  Metrics.observe h 3.;
  match (Metrics.find t "g", Metrics.find t "h") with
  | ( Some (Metrics.Gauge v),
      Some (Metrics.Histogram { n; mean; lo; hi; p50; p95; p99 }) ) ->
    check (Alcotest.float 1e-9) "gauge" 2.5 v;
    check Alcotest.int "hist n" 2 n;
    check (Alcotest.float 1e-9) "hist mean" 2. mean;
    check (Alcotest.float 1e-9) "hist lo" 1. lo;
    check (Alcotest.float 1e-9) "hist hi" 3. hi;
    (* quantiles come from the log-bucketed sketch: ~2.5% relative
       error, clamped into [lo, hi] *)
    check (Alcotest.float 0.1) "hist p50" 1. p50;
    check (Alcotest.float 0.1) "hist p95" 3. p95;
    check (Alcotest.float 0.1) "hist p99" 3. p99
  | _ -> Alcotest.fail "wrong snapshot kinds"

let test_metrics_snapshot_sorted () =
  let t = Metrics.create () in
  List.iter (fun n -> ignore (Metrics.counter t n)) [ "b"; "c"; "a" ];
  check
    Alcotest.(list string)
    "sorted names" [ "a"; "b"; "c" ]
    (List.map fst (Metrics.snapshot t));
  Metrics.clear t;
  check Alcotest.int "cleared" 0 (List.length (Metrics.snapshot t))

let test_metrics_json () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter t "c") 7;
  Metrics.set (Metrics.gauge t "g") 0.5;
  check Alcotest.string "json object" "{\"c\":7,\"g\":0.5}" (Metrics.to_json t);
  (* an empty histogram reports nan mean, which must become null *)
  ignore (Metrics.histogram t "h");
  check Alcotest.bool "nan -> null" true
    (let json = Metrics.to_json t in
     let rec contains i =
       i + 4 <= String.length json
       && (String.sub json i 4 = "null" || contains (i + 1))
     in
     contains 0)

let test_metrics_prometheus () =
  let t = Metrics.create () in
  Metrics.add (Metrics.counter t "flow.dinic.runs") 3;
  Metrics.set (Metrics.gauge t "g") 0.5;
  let h = Metrics.histogram t "lat" in
  List.iter (Metrics.observe h) [ 1.; 2.; 4. ];
  ignore (Metrics.histogram t "empty");
  let s = Metrics.to_prometheus t in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  let has l = List.mem l lines in
  check Alcotest.bool "counter type line" true
    (has "# TYPE rsin_flow_dinic_runs counter");
  check Alcotest.bool "counter sample" true (has "rsin_flow_dinic_runs 3");
  check Alcotest.bool "gauge sample" true (has "rsin_g 0.5");
  check Alcotest.bool "summary type" true (has "# TYPE rsin_lat summary");
  check Alcotest.bool "summary count" true (has "rsin_lat_count 3");
  check Alcotest.bool "summary sum" true (has "rsin_lat_sum 7");
  check Alcotest.bool "quantile label present" true
    (List.exists
       (fun l ->
         String.length l > 20 && String.sub l 0 20 = "rsin_lat{quantile=\"0")
       lines);
  (* empty histograms export zero count and no quantile lines *)
  check Alcotest.bool "empty count" true (has "rsin_empty_count 0");
  check Alcotest.bool "empty has no quantiles" false
    (List.exists
       (fun l -> String.length l > 10 && String.sub l 0 10 = "rsin_empty{")
       lines)

(* --- tracer and exporters ------------------------------------------------ *)

let test_trace_null_records_nothing () =
  let t = Trace.null in
  check Alcotest.bool "disabled" false (Trace.enabled t);
  Trace.span_begin t "x" ~ts:0;
  Trace.instant t "y" ~ts:1;
  check Alcotest.int "no events" 0 (Trace.event_count t);
  check Alcotest.string "empty chrome export" "[\n]\n"
    (Trace.to_string t ~format:Trace.Chrome)

let test_trace_records_in_order () =
  let t = Trace.create () in
  Trace.span_begin t "phase" ~ts:0 ~args:[ ("k", Trace.Int 1) ];
  Trace.instant t "tick" ~ts:3 ~tid:2;
  Trace.span_end t "phase" ~ts:5;
  check Alcotest.int "three events" 3 (Trace.event_count t);
  match Trace.events t with
  | [ a; b; c ] ->
    check Alcotest.string "first name" "phase" a.Trace.name;
    check Alcotest.bool "first is begin" true (a.Trace.ph = Trace.Begin);
    check Alcotest.int "instant tid" 2 b.Trace.tid;
    check Alcotest.bool "last is end" true (c.Trace.ph = Trace.End);
    check Alcotest.int "last ts" 5 c.Trace.ts
  | _ -> Alcotest.fail "expected exactly three events"

let test_trace_chrome_format () =
  let t = Trace.create () in
  Trace.span_begin t "p" ~ts:0 ~args:[ ("n", Trace.Int 2) ];
  Trace.instant t "i" ~ts:1 ~args:[ ("s", Trace.Str "a\"b") ];
  Trace.span_end t "p" ~ts:2;
  let s = Trace.to_string t ~format:Trace.Chrome in
  check Alcotest.string "chrome array"
    "[\n\
     {\"name\":\"p\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"n\":2}},\n\
     {\"name\":\"i\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0,\"s\":\"t\",\"args\":{\"s\":\"a\\\"b\"}},\n\
     {\"name\":\"p\",\"ph\":\"E\",\"ts\":2,\"pid\":1,\"tid\":0}\n\
     ]\n"
    s;
  let jsonl = Trace.to_string t ~format:Trace.Jsonl in
  check Alcotest.int "jsonl one line per event" 3
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)))

let test_trace_format_of_string () =
  check Alcotest.bool "jsonl" true
    (Trace.format_of_string "jsonl" = Some Trace.Jsonl);
  check Alcotest.bool "chrome" true
    (Trace.format_of_string "chrome" = Some Trace.Chrome);
  check Alcotest.bool "unknown" true (Trace.format_of_string "xml" = None)

let test_trace_write_file () =
  let t = Trace.create () in
  Trace.instant t "e" ~ts:0;
  let path = Filename.temp_file "rsin_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_file t ~format:Trace.Chrome path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      check Alcotest.string "file contents" (Trace.to_string t ~format:Trace.Chrome) s)

(* The Chrome export of a real solver trace must be machine-parseable
   and structurally well-formed: valid JSON, every B eventually followed
   by a matching E with the same name on the same tid, and timestamps
   non-decreasing per tid. A single solver run keeps one clock per tid,
   so monotonicity holds (it would not across runs — each run resets its
   clock). *)
let test_trace_chrome_parses_and_nests () =
  let obs = Obs.recording () in
  let net = Builders.omega 8 in
  let tr =
    Transform1.build net ~requests:[ 0; 1; 2; 3 ] ~free:[ 4; 5; 6; 7 ]
  in
  let _ =
    Dinic.max_flow ~obs (Transform1.graph tr)
      ~source:(Transform1.source tr) ~sink:(Transform1.sink tr)
  in
  let s = Trace.to_string obs.Obs.trace ~format:Trace.Chrome in
  let module Json = Rsin_util.Json in
  match Json.parse s with
  | Error e -> Alcotest.fail ("chrome export is not valid JSON: " ^ e)
  | Ok j ->
    let module D = Json.Decode in
    let events = Result.get_ok (D.list D.value j) in
    check Alcotest.bool "trace is non-empty" true (events <> []);
    let str name ev = Result.get_ok (D.field name D.str ev) in
    let int name ev = Result.get_ok (D.field name D.int ev) in
    (* per-tid: stack of open span names, last timestamp *)
    let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 4 in
    let last_ts : (int, int ref) Hashtbl.t = Hashtbl.create 4 in
    let get tbl mk tid =
      match Hashtbl.find_opt tbl tid with
      | Some v -> v
      | None ->
        let v = mk () in
        Hashtbl.replace tbl tid v;
        v
    in
    List.iter
      (fun ev ->
        let tid = int "tid" ev and ts = int "ts" ev in
        let prev = get last_ts (fun () -> ref min_int) tid in
        check Alcotest.bool
          (Printf.sprintf "ts monotone on tid %d" tid)
          true (ts >= !prev);
        prev := ts;
        let stack = get stacks (fun () -> ref []) tid in
        match str "ph" ev with
        | "B" -> stack := str "name" ev :: !stack
        | "E" -> (
          match !stack with
          | top :: rest ->
            check Alcotest.string "E matches innermost B" top (str "name" ev);
            stack := rest
          | [] -> Alcotest.fail "E without open B on its tid")
        | _ -> ())
      events;
    Hashtbl.iter
      (fun tid stack ->
        check Alcotest.int
          (Printf.sprintf "no unclosed spans on tid %d" tid)
          0
          (List.length !stack))
      stacks

(* --- observer helpers ---------------------------------------------------- *)

let test_obs_none_is_noop () =
  (* must not raise, must not observably do anything *)
  Obs.count None "c" 1;
  Obs.observe None "h" 1.;
  Obs.set_gauge None "g" 1.;
  Obs.span_begin None "s" ~ts:0;
  Obs.span_end None "s" ~ts:1;
  Obs.instant None "i" ~ts:2;
  check Alcotest.bool "not tracing" false (Obs.tracing None)

let test_obs_tracing_guard () =
  let metrics_only = Obs.create () in
  check Alcotest.bool "null sink is not tracing" false
    (Obs.tracing (Some metrics_only));
  let recording = Obs.recording () in
  check Alcotest.bool "recording is tracing" true (Obs.tracing (Some recording));
  Obs.count (Some metrics_only) "c" 3;
  check Alcotest.int "counted" 3
    (Metrics.get_counter metrics_only.Obs.metrics "c");
  Obs.instant (Some recording) "i" ~ts:0;
  check Alcotest.int "recorded" 1 (Trace.event_count recording.Obs.trace)

(* --- reconciliation with the legacy stats records ------------------------ *)

(* Dinic's returned stats record and the flow.dinic.* counters are fed
   from the same refs; on a fresh observer they must be equal. *)
let test_dinic_stats_reconcile () =
  let obs = Obs.recording () in
  let net = Builders.omega 8 in
  let requests = [ 0; 1; 2; 3 ] and free = [ 4; 5; 6; 7 ] in
  let tr = Transform1.build net ~requests ~free in
  let g = Transform1.graph tr in
  let _flow, stats =
    Dinic.max_flow ~obs g ~source:(Transform1.source tr)
      ~sink:(Transform1.sink tr)
  in
  let m = obs.Obs.metrics in
  check Alcotest.int "runs" 1 (Metrics.get_counter m "flow.dinic.runs");
  check Alcotest.int "phases" stats.Dinic.phases
    (Metrics.get_counter m "flow.dinic.phases");
  check Alcotest.int "augmentations" stats.Dinic.augmentations
    (Metrics.get_counter m "flow.dinic.augmentations");
  check Alcotest.int "arcs_scanned" stats.Dinic.arcs_scanned
    (Metrics.get_counter m "flow.dinic.arcs_scanned");
  (* the trace carries one begin and one end per phase *)
  let begins =
    List.length
      (List.filter
         (fun e -> e.Trace.name = "dinic.phase" && e.Trace.ph = Trace.Begin)
         (Trace.events obs.Obs.trace))
  in
  check Alcotest.int "one span per phase" stats.Dinic.phases begins

let test_token_sim_clocks_reconcile () =
  let obs = Obs.recording () in
  let net = Builders.omega_paper 8 in
  let rep = Token_sim.run ~obs net ~requests:[ 0; 2; 4 ] ~free:[ 1; 3; 5 ] in
  let m = obs.Obs.metrics in
  check Alcotest.int "request clocks" rep.Token_sim.clocks.Token_sim.request_clocks
    (Metrics.get_counter m "token_sim.request_clocks");
  check Alcotest.int "resource clocks"
    rep.Token_sim.clocks.Token_sim.resource_clocks
    (Metrics.get_counter m "token_sim.resource_clocks");
  check Alcotest.int "registration clocks"
    rep.Token_sim.clocks.Token_sim.registration_clocks
    (Metrics.get_counter m "token_sim.registration_clocks");
  check Alcotest.int "total clocks" rep.Token_sim.total_clocks
    (Metrics.get_counter m "token_sim.total_clocks");
  check Alcotest.int "allocated" rep.Token_sim.allocated
    (Metrics.get_counter m "token_sim.allocated");
  (* one token.bus instant per clock period, timestamps 0..clocks-1 *)
  let bus_events =
    List.filter (fun e -> e.Trace.name = "token.bus")
      (Trace.events obs.Obs.trace)
  in
  check Alcotest.int "one instant per clock" rep.Token_sim.total_clocks
    (List.length bus_events);
  List.iteri
    (fun i e -> check Alcotest.int "bus ts" i e.Trace.ts)
    bus_events

let test_monitor_instructions_reconcile () =
  let obs = Obs.recording () in
  let net = Builders.omega 8 in
  let mon = Monitor.create ~obs net in
  List.iter (Monitor.submit mon) [ 0; 1; 2 ];
  List.iter (Monitor.resource_ready mon) [ 3; 4; 5 ];
  let r1 = Monitor.run_cycle mon in
  List.iter (Monitor.submit mon) [ 6; 7 ];
  List.iter (Monitor.resource_ready mon) [ 0; 1 ];
  let r2 = Monitor.run_cycle mon in
  let m = obs.Obs.metrics in
  check Alcotest.int "instructions summed"
    (r1.Monitor.instructions + r2.Monitor.instructions)
    (Metrics.get_counter m "monitor.instructions");
  check Alcotest.int "instructions = total_instructions"
    (Monitor.total_instructions mon)
    (Metrics.get_counter m "monitor.instructions");
  check Alcotest.int "cycles" 2 (Metrics.get_counter m "monitor.cycles");
  check Alcotest.int "allocated"
    (List.length r1.Monitor.allocated + List.length r2.Monitor.allocated)
    (Metrics.get_counter m "monitor.allocated");
  (* spans nest: every monitor.cycle Begin has a matching End *)
  let spans =
    List.filter (fun e -> e.Trace.name = "monitor.cycle")
      (Trace.events obs.Obs.trace)
  in
  check Alcotest.int "begin/end pairs" 4 (List.length spans)

let suite =
  [
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics kinds" `Quick test_metrics_kinds;
    Alcotest.test_case "metrics snapshot sorted" `Quick
      test_metrics_snapshot_sorted;
    Alcotest.test_case "metrics json" `Quick test_metrics_json;
    Alcotest.test_case "metrics prometheus" `Quick test_metrics_prometheus;
    Alcotest.test_case "trace chrome parses and nests" `Quick
      test_trace_chrome_parses_and_nests;
    Alcotest.test_case "trace null sink" `Quick test_trace_null_records_nothing;
    Alcotest.test_case "trace event order" `Quick test_trace_records_in_order;
    Alcotest.test_case "trace chrome format" `Quick test_trace_chrome_format;
    Alcotest.test_case "trace format_of_string" `Quick
      test_trace_format_of_string;
    Alcotest.test_case "trace write_file" `Quick test_trace_write_file;
    Alcotest.test_case "obs none no-op" `Quick test_obs_none_is_noop;
    Alcotest.test_case "obs tracing guard" `Quick test_obs_tracing_guard;
    Alcotest.test_case "dinic stats reconcile" `Quick
      test_dinic_stats_reconcile;
    Alcotest.test_case "token_sim clocks reconcile" `Quick
      test_token_sim_clocks_reconcile;
    Alcotest.test_case "monitor instructions reconcile" `Quick
      test_monitor_instructions_reconcile;
  ]
