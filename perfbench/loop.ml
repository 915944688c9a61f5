(* One closed-loop pass of a workload's trace through the program.

   [engine_pass] feeds each slot's events to one Engine.t and then
   advances it through that slot; [serve_pass] feeds the events to a
   Serve.t, which flushes (advances its shards, then routes) whenever
   the slot changes. Both drain at the end. A served slot is one
   Engine.advance, or one slot-flushing Serve.feed; its host time is
   one latency sample.

   Tracing is optional and lives entirely in this file: with a tracer
   the pass brackets its calls into the program with spans and installs
   the public cycle_hook/event_hook, which record each cycle. Without
   one, the program runs with no hooks at all. *)

module Engine = Rsin_engine.Engine
module Serve = Rsin_engine.Serve
module Shard = Rsin_engine.Shard
module Network = Rsin_topology.Network

type summary = {
  arrivals : int;
  allocated : int;
  completed : int;
  cancelled : int;
  expired : int;
  shed : int;
  given_up : int;
  left_pending : int;
  cycles : int;
  skipped : int;
  solver_work : int;
  victims : int;
  retries : int;
  borrows : int;
  starved : int;
  horizon : int;
  mean_wait : float;
}

let of_engine (r : Engine.report) =
  { arrivals = r.arrivals; allocated = r.allocated; completed = r.completed;
    cancelled = r.cancelled; expired = r.expired; shed = r.shed;
    given_up = r.given_up; left_pending = r.left_pending; cycles = r.cycles;
    skipped = r.skipped_cycles; solver_work = r.solver_work;
    victims = r.victims; retries = r.retries; borrows = 0; starved = 0;
    horizon = r.horizon;
    mean_wait = (if r.allocated = 0 then 0. else r.mean_wait) }

let of_serve (r : Serve.report) =
  let waited =
    Array.fold_left
      (fun acc (s : Engine.report) ->
        if s.allocated = 0 then acc
        else acc +. (s.mean_wait *. float_of_int s.allocated))
      0. r.per_shard
  in
  { arrivals = r.arrivals; allocated = r.allocated; completed = r.completed;
    cancelled = r.cancelled; expired = r.expired; shed = r.shed;
    given_up = r.given_up; left_pending = r.left_pending; cycles = r.cycles;
    skipped = r.skipped_cycles; solver_work = r.solver_work;
    victims = r.victims; retries = r.retries; borrows = r.borrows;
    starved = r.starved; horizon = r.horizon;
    mean_wait =
      (if r.allocated = 0 then 0. else waited /. float_of_int r.allocated) }

(* The simulated counters; equal on every repeat of one seed. *)
let signature s =
  [ s.arrivals; s.allocated; s.completed; s.cancelled; s.expired; s.shed;
    s.given_up; s.left_pending; s.cycles; s.skipped; s.solver_work;
    s.victims; s.retries; s.borrows; s.starved; s.horizon ]

type pass = {
  setup_ns : float;
  wall_ns : float;  (* first feed until drain returns *)
  events : int;
  slot_ns : float array;  (* one sample per served slot *)
  hot : bool array;  (* per sample: the slot lies in the hot window *)
  drain_ns : float;
  minor_words : float;
  fed_slots : int;  (* slots the loop advanced through before draining *)
  fed_completed : int;  (* tasks completed by then *)
  peak_heap_words : int;  (* largest major heap seen at a slot boundary *)
  summary : summary;
  accounting : (unit, string) result;
  window_borrows : int;  (* borrows made for arrivals of the hot window *)
}

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* A set-up call as its own root span; set-up belongs to no slot. *)
let setup_span spans name t0 t1 =
  let root = Spans.add spans ~name:"setup" ~slot:(-1) ~parent:(-1) ~t0 ~t1 in
  ignore (Spans.add spans ~name ~slot:(-1) ~parent:root ~t0 ~t1)

(* Major-heap high-water mark of the current pass, sampled once per
   served slot. *)
let heap_mark = ref 0
let sample_heap () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !heap_mark then heap_mark := h

(* --- Engine --------------------------------------------------------------- *)

type engine_tracer = {
  e_spans : Spans.t;
  e_rec : Cycles.recorder;
  mutable parent : int;  (* the advance or drain span being served *)
  mutable mark : float;  (* when the current simulated slot began *)
  mutable cycle : Cycles.record option;  (* this slot's cycle, if any *)
}

let engine_tracer ~spans ~sample_every =
  { e_spans = spans; e_rec = Cycles.recorder ~sample_every;
    parent = -1; mark = 0.; cycle = None }

(* The slot's time up to the hook is the engine's pre-cycle work
   (events, the pending/free scans, sync, solve and extraction); from
   the hook to event_hook it is the commit. *)
let on_event tr ~events:_ ~time =
  let e = Spans.now () in
  let add name t0 t1 =
    ignore (Spans.add tr.e_spans ~name ~slot:time ~parent:tr.parent ~t0 ~t1)
  in
  (match tr.cycle with
  | Some r ->
    add "engine.pre_cycle" tr.mark r.Cycles.hook_t0;
    add "bench.record" r.Cycles.hook_t0 r.Cycles.hook_t1;
    add "engine.commit" r.Cycles.hook_t1 e
  | None -> add "engine.no_cycle_slot" tr.mark e);
  tr.cycle <- None;
  tr.mark <- Spans.now ()

let engine_pass ?tr (w : Workloads.t) net slots =
  let cycle_hook, event_hook =
    match tr with
    | None -> (None, None)
    | Some tr ->
      ( Some
          (fun net info -> tr.cycle <- Some (Cycles.record tr.e_rec net info)),
        Some (on_event tr) )
  in
  let n = Array.length slots in
  let t0 = Spans.now () in
  let e = Engine.create ~config:w.config ?cycle_hook ?event_hook net in
  let t1 = Spans.now () in
  Option.iter (fun tr -> setup_span tr.e_spans "engine.create" t0 t1) tr;
  let setup_ns = t1 -. t0 in
  let samples = Array.make n 0. in
  let events = ref 0 in
  heap_mark := 0;
  let mw0 = minor_words () in
  let start = Spans.now () in
  for s = 0 to n - 1 do
    sample_heap ();
    let evs = slots.(s) in
    match tr with
    | None ->
      Array.iter (Engine.feed e) evs;
      events := !events + Array.length evs;
      let a0 = Spans.now () in
      Engine.advance e ~upto:s;
      samples.(s) <- Spans.now () -. a0
    | Some tr ->
      let add name ~parent t0 t1 =
        Spans.add tr.e_spans ~name ~slot:s ~parent ~t0 ~t1
      in
      let root = add "slot" ~parent:(-1) (Spans.now ()) 0. in
      let f0 = Spans.now () in
      Array.iter (Engine.feed e) evs;
      ignore (add "engine.feed" ~parent:root f0 (Spans.now ()));
      events := !events + Array.length evs;
      let a0 = Spans.now () in
      tr.parent <- add "engine.advance" ~parent:root a0 0.;
      tr.mark <- a0;
      Engine.advance e ~upto:s;
      let a1 = Spans.now () in
      Spans.close tr.e_spans tr.parent a1;
      Spans.close tr.e_spans root a1;
      samples.(s) <- a1 -. a0
  done;
  let fed_completed = (Engine.report e).Engine.completed in
  let d0 = Spans.now () in
  (match tr with
  | None -> Engine.drain e
  | Some tr ->
    let sp = tr.e_spans in
    let root = Spans.add sp ~name:"slot" ~slot:n ~parent:(-1) ~t0:d0 ~t1:0. in
    tr.parent <-
      Spans.add sp ~name:"engine.drain" ~slot:n ~parent:root ~t0:d0 ~t1:0.;
    tr.mark <- d0;
    Engine.drain e;
    let d1 = Spans.now () in
    Spans.close sp tr.parent d1;
    Spans.close sp root d1);
  let finish = Spans.now () in
  let mw1 = minor_words () in
  sample_heap ();
  { setup_ns; wall_ns = finish -. start; events = !events; slot_ns = samples;
    hot = Array.make n false; drain_ns = finish -. d0;
    minor_words = mw1 -. mw0; fed_slots = n; fed_completed;
    peak_heap_words = !heap_mark; summary = of_engine (Engine.report e);
    accounting = Engine.check_accounting e; window_borrows = 0 }

(* --- Serve ---------------------------------------------------------------- *)

(* Per-shard state written by the shard's own cycle_hook, on whichever
   domain serves that shard; the routing domain reads it only after the
   flush's parallel advance has returned. *)
type serve_tracer = {
  s_spans : Spans.t;
  s_rec : Cycles.recorder array;
  last_hook : float array;  (* end of each shard's latest cycle_hook *)
  gen : int array;  (* flush during which that hook ran *)
  mutable cur_gen : int;
  mutable skews : float list;  (* per flush: spread of last_hook, ns *)
  mutable flush_seen : int array;  (* records already turned into spans *)
}

let serve_tracer ~spans ~shards ~sample_every =
  { s_spans = spans;
    s_rec = Array.init shards (fun _ -> Cycles.recorder ~sample_every);
    last_hook = Array.make shards 0.; gen = Array.make shards (-1);
    cur_gen = 0; skews = []; flush_seen = Array.make shards 0 }

let ok = function Ok v -> v | Error e -> failwith e

(* After a flush: the spread of the shards' last cycle_hook times, and
   a bench.record span per hook that ran during it. *)
let after_flush tr ~slot ~parent =
  let lo = ref infinity and hi = ref neg_infinity and fired = ref 0 in
  Array.iteri
    (fun s g ->
      if g = tr.cur_gen then begin
        incr fired;
        lo := min !lo tr.last_hook.(s);
        hi := max !hi tr.last_hook.(s)
      end)
    tr.gen;
  if !fired >= 2 then tr.skews <- (!hi -. !lo) :: tr.skews;
  Array.iteri
    (fun s (rc : Cycles.recorder) ->
      let fresh = rc.Cycles.seen - tr.flush_seen.(s) in
      List.iteri
        (fun i (r : Cycles.record) ->
          if i < fresh then
            ignore
              (Spans.add tr.s_spans ~name:"bench.record" ~slot ~parent
                 ~t0:r.Cycles.hook_t0 ~t1:r.Cycles.hook_t1))
        rc.Cycles.records;
      tr.flush_seen.(s) <- rc.Cycles.seen)
    tr.s_rec

let serve_pass ?tr ~domains (w : Workloads.t) net slots =
  let cycle_hook =
    Option.map
      (fun tr ~shard net info ->
        let r = Cycles.record tr.s_rec.(shard) net info in
        tr.last_hook.(shard) <- r.Cycles.hook_t1;
        tr.gen.(shard) <- tr.cur_gen)
      tr
  in
  let n = Array.length slots in
  let lo, hi = Option.value w.hot ~default:(max_int, max_int) in
  let t0 = Spans.now () in
  let s = ok (Serve.create ~config:w.config ~domains ?cycle_hook net) in
  let t1 = Spans.now () in
  Option.iter (fun tr -> setup_span tr.s_spans "serve.create" t0 t1) tr;
  let setup_ns = t1 -. t0 in
  let samples = Array.make n 0. and hot = Array.make n false in
  let k = ref 0 and prev = ref (-1) and events = ref 0 in
  let borrows () = (Serve.report s).Serve.borrows in
  let b_lo = ref (-1) and b_hi = ref (-1) in
  heap_mark := 0;
  let mw0 = minor_words () in
  let start = Spans.now () in
  for slot = 0 to n - 1 do
    sample_heap ();
    let evs = slots.(slot) in
    let len = Array.length evs in
    let root =
      match tr with
      | Some tr when len > 0 ->
        Spans.add tr.s_spans ~name:"slot" ~slot ~parent:(-1)
          ~t0:(Spans.now ()) ~t1:0.
      | Some _ | None -> -1
    in
    if len > 0 && !prev >= 0 then begin
      (* This feed flushes slot [!prev]: the shards advance through
         [!prev - 1], then [!prev]'s events are routed. *)
      (match tr with Some tr -> tr.cur_gen <- tr.cur_gen + 1 | None -> ());
      let f0 = Spans.now () in
      Serve.feed s evs.(0);
      let f1 = Spans.now () in
      samples.(!k) <- f1 -. f0;
      hot.(!k) <- !prev >= lo && !prev < hi;
      incr k;
      (match tr with
      | Some tr ->
        let fl =
          Spans.add tr.s_spans ~name:"serve.flush" ~slot:!prev ~parent:root
            ~t0:f0 ~t1:f1
        in
        after_flush tr ~slot:!prev ~parent:fl
      | None -> ());
      (* Every arrival of a slot before [slot] has been routed now. *)
      if slot >= lo && !b_lo < 0 then b_lo := borrows ();
      if slot >= hi && !b_hi < 0 then b_hi := borrows ()
    end
    else if len > 0 then Serve.feed s evs.(0);
    let f0 = Spans.now () in
    for i = 1 to len - 1 do
      Serve.feed s evs.(i)
    done;
    (match tr with
    | Some tr when len > 0 ->
      let f1 = Spans.now () in
      ignore
        (Spans.add tr.s_spans ~name:"serve.feed" ~slot ~parent:root ~t0:f0
           ~t1:f1);
      Spans.close tr.s_spans root f1
    | Some _ | None -> ());
    events := !events + len;
    if len > 0 then prev := slot
  done;
  (* The shards have served every slot before the buffered [!prev]. *)
  let fed_completed = (Serve.report s).Serve.completed in
  let d0 = Spans.now () in
  (match tr with Some tr -> tr.cur_gen <- tr.cur_gen + 1 | None -> ());
  Serve.drain s;
  let finish = Spans.now () in
  (match tr with
  | Some tr ->
    let add name ~parent =
      Spans.add tr.s_spans ~name ~slot:n ~parent ~t0:d0 ~t1:finish
    in
    let d = add "serve.drain" ~parent:(add "slot" ~parent:(-1)) in
    after_flush tr ~slot:n ~parent:d
  | None -> ());
  let mw1 = minor_words () in
  sample_heap ();
  let total = borrows () in
  if !b_lo < 0 then b_lo := total;
  if !b_hi < 0 then b_hi := total;
  { setup_ns; wall_ns = finish -. start; events = !events;
    slot_ns = Array.sub samples 0 !k; hot = Array.sub hot 0 !k;
    drain_ns = finish -. d0; minor_words = mw1 -. mw0; fed_slots = !prev;
    fed_completed; peak_heap_words = !heap_mark;
    summary = of_serve (Serve.report s);
    accounting = Serve.check_accounting s; window_borrows = !b_hi - !b_lo }

(* The pristine shard networks a Serve.t over [net] would run on. *)
let shard_nets net =
  Array.map
    (fun (p : Shard.part) -> p.Shard.net)
    (ok (Shard.partition net)).Shard.parts

let pass ?etr ?str (w : Workloads.t) net slots =
  match w.target with
  | Workloads.Single -> engine_pass ?tr:etr w net slots
  | Workloads.Sharded domains -> serve_pass ?tr:str ~domains w net slots

(* Set-up only: create the program's serving object and discard it. *)
let setup_once (w : Workloads.t) net =
  match w.target with
  | Workloads.Single ->
    let t0 = Spans.now () in
    ignore (Engine.create ~config:w.config net);
    Spans.now () -. t0
  | Workloads.Sharded domains ->
    let t0 = Spans.now () in
    let s = ok (Serve.create ~config:w.config ~domains net) in
    let dt = Spans.now () -. t0 in
    Serve.drain s;
    dt
