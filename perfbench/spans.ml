(* In-memory spans of a traced run.

   A span has a name, a start, an end, a parent (another span's index,
   or -1 for a root) and the slot it belongs to; every span of one slot
   shares that slot id. The name's prefix up to the first '.' is its
   layer: "engine", "incremental", "csr", "serve" and "netgraph" are the
   program's layers, "bench" is the benchmark's own work (recording a
   cycle, diffing states), and the roots "slot", "replay" and "setup"
   frame one served or replayed slot or one set-up call (slot -1).
   Spans stay in flat arrays while the run lasts and are written out
   once, at the end. *)

type t = {
  mutable len : int;
  mutable name : string array;
  mutable slot : int array;
  mutable parent : int array;
  mutable t0 : float array;  (* ns, monotonic *)
  mutable t1 : float array;
}

let create () =
  let cap = 4096 in
  { len = 0; name = Array.make cap ""; slot = Array.make cap 0;
    parent = Array.make cap (-1); t0 = Array.make cap 0.;
    t1 = Array.make cap 0. }

let now () = Int64.to_float (Rsin_util.Clock.now_ns ())

let grow t =
  let cap = 2 * Array.length t.slot in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- extend t.name "";
  t.slot <- extend t.slot 0;
  t.parent <- extend t.parent (-1);
  t.t0 <- extend t.t0 0.;
  t.t1 <- extend t.t1 0.

(* Records a span and returns its index; [t1] may be set later with
   {!close} when children must name the span as their parent first. *)
let add t ~name ~slot ~parent ~t0 ~t1 =
  if t.len = Array.length t.slot then grow t;
  let i = t.len in
  t.name.(i) <- name;
  t.slot.(i) <- slot;
  t.parent.(i) <- parent;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.len <- i + 1;
  i

let close t i t1 = t.t1.(i) <- t1

let duration t i = t.t1.(i) -. t.t0.(i)

let layer name =
  match String.index_opt name '.' with
  | Some k -> String.sub name 0 k
  | None -> name

let program_layer = function
  | "engine" | "incremental" | "csr" | "serve" | "netgraph" -> true
  | _ -> false

(* A span's self time is its duration minus the time its children
   cover. *)
let self_times t =
  let self = Array.init t.len (duration t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) -. duration t i
  done;
  self

type stat = { count : int; total_ns : float }

let by_name t =
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let s =
      Option.value
        (Hashtbl.find_opt tbl t.name.(i))
        ~default:{ count = 0; total_ns = 0. }
    in
    Hashtbl.replace tbl t.name.(i)
      { count = s.count + 1; total_ns = s.total_ns +. duration t i }
  done;
  tbl

(* Mean duration in microseconds of the spans called [name], 0 when
   there are none. *)
let mean_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s when s.count > 0 -> s.total_ns /. float_of_int s.count /. 1e3
  | Some _ | None -> 0.

(* Program-layer self time over the time of the root spans. *)
let coverage t =
  let self = self_times t in
  let layer_ns = ref 0. and root_ns = ref 0. in
  for i = 0 to t.len - 1 do
    if program_layer (layer t.name.(i)) then layer_ns := !layer_ns +. self.(i);
    if t.parent.(i) < 0 then root_ns := !root_ns +. duration t i
  done;
  if !root_ns > 0. then !layer_ns /. !root_ns else 0.

(* Chrome trace-event JSON (chrome://tracing, Perfetto). *)
let write t path =
  let oc = open_out path in
  let base = if t.len > 0 then t.t0.(0) else 0. in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\
       \"ts\":%.3f,\"dur\":%.3f,\
       \"args\":{\"id\":%d,\"parent\":%d,\"slot\":%d}}"
      (if i = 0 then "" else ",\n")
      t.name.(i) (layer t.name.(i))
      ((t.t0.(i) -. base) /. 1e3)
      (duration t i /. 1e3)
      i t.parent.(i) t.slot.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
