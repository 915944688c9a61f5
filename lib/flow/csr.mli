(** Flat compressed-sparse-row flow core — the zero-allocation hot path.

    {!Graph} is the flexible builder representation: growable vectors, a
    first/next adjacency list, one bounds-checked accessor per field. It
    is what every transformation {e compiles into}, and it stays the
    reference implementation the legacy solvers run on. This module is
    what a long-running scheduler {e executes on}: the same residual
    network frozen into flat int arrays —

    - arcs sorted by source node ([row_ptr]/[head]/[tail], the classic
      CSR layout), so a node's out-arcs are one cache-friendly slice
      instead of a pointer chase;
    - residual partners paired by index ([rev]), capacities and costs in
      parallel int arrays mutated in place;
    - every piece of solver scratch — layered-network BFS queue and
      levels, current-arc cursors, the DFS path stack, Dijkstra
      potentials/distances/heap — preallocated at {!of_graph} time.

    The two production solvers ({!dinic} for Transformation 1 /
    [Maxflow], {!mincost} primal-dual for Transformation 2 /
    [Priority]) run on this layout with {b zero minor-heap
    allocation}: no closures, no options, no tuples, no refs on any
    per-cycle path. A warm scheduling cycle — capacity toggles,
    augment, {!commit_new}, eventually {!release_all} — therefore
    allocates nothing at all, which [bench/csr_bench.ml] (E34) asserts
    with a calibrated [Gc.minor_words] delta on a 1024-port network.

    Arcs are addressed by their {e graph} arc index (the value
    {!Graph.add_arc} returned, residual partner [a lxor 1]), so the
    link↔arc correspondence of {!Rsin_core.Netgraph} and the frozen-arc
    bookkeeping of {!Rsin_engine.Incremental} carry over unchanged; the
    CSR position of an arc is an internal detail. The CSR snapshot and
    the source graph share no state: mutate one or the other, not
    both. *)

type t

type stats = {
  mutable passes : int;
      (** {!dinic}: blocking flows; {!mincost}: Dijkstra phases that
          reached the sink *)
  mutable augmentations : int;  (** flow units pushed, for both solvers *)
  mutable arcs_scanned : int;   (** residual arcs examined *)
}

val of_graph : Graph.t -> t
(** Snapshots the graph — structure, residual capacities (including
    frozen arcs, whose residual side stays at 0), costs — into CSR form
    and preallocates all solver scratch. O(nodes + arcs). The graph is
    not referenced afterwards. *)

val node_count : t -> int
val arc_count : t -> int
(** Number of forward arcs, as in {!Graph.arc_count}. *)

(** {1 State access — graph arc indices}

    Same contracts as the {!Graph} namesakes: [flow], [set_capacity],
    [set_cost], [set_flow], [freeze], [thaw] and [original_capacity]
    accept {e forward} arc indices only; [capacity], [cost] and [push]
    accept both sides. All mutators are O(1) int-array writes. *)

val capacity : t -> Graph.arc -> int
val original_capacity : t -> Graph.arc -> int
val cost : t -> Graph.arc -> int
val flow : t -> Graph.arc -> int
val push : t -> Graph.arc -> int -> unit
val set_capacity : t -> Graph.arc -> int -> unit
val set_cost : t -> Graph.arc -> int -> unit
val set_flow : t -> Graph.arc -> int -> unit

val freeze : t -> Graph.arc -> unit
(** Locks the saturated forward arc (removes its residual undo
    capacity) and marks it committed for {!commit_new}/{!release_all}.
    See {!Graph.freeze}. *)

val thaw : t -> Graph.arc -> unit
val is_frozen : t -> Graph.arc -> bool

val flow_value : t -> source:int -> int
val total_cost : t -> int

(** {1 Solvers}

    Both reset {!last_stats}, augment from the current residual state
    (warm start: frozen flow is routed around, existing unfrozen flow is
    kept), and return the flow {e added}. Zero minor-heap allocation. *)

val dinic : t -> source:int -> sink:int -> int
(** Layered-network blocking flow (Dinic) with current-arc cursors. *)

val mincost : t -> source:int -> sink:int -> int
(** Primal-dual min-cost flow: each phase runs one Dijkstra on reduced
    costs, folds the distances into the node potentials, then augments
    {e every} shortest path of that length at once with Dinic blocking
    flows restricted to zero-reduced-cost residual arcs. One
    Bellman–Ford pass seeds the potentials when negative costs are
    present. The resulting maximum flow is cost-minimal among maximum
    flows given a cost-feasible starting state — the same contract as
    {!Mincost.augment}. The number of phases is the number of distinct
    shortest-path lengths met, so on the engine's graphs (costs only on
    source arcs) it is at most the number of distinct pending
    priorities.

    @raise Failure if the residual network holds a negative cycle
    reachable from [source], as {!Mincost.min_cost_flow} does. *)

val last_stats : t -> stats
(** Work counters of the most recent solver run. The record is owned by
    [t] and overwritten by the next run — copy fields out, do not
    retain it. *)

(** {1 Minimum cut — zero allocation} *)

val min_cut : t -> source:int -> sink:int -> unit
(** Computes the source side of the minimum cut: the nodes reachable
    from [source] in the residual network — the CSR counterpart of
    {!Edmonds_karp.min_cut}. Every maximum flow yields the same side.
    The result lives in the level scratch and is read with
    {!on_source_side} and {!crosses_cut} until the next solver or
    [min_cut] call.

    Precondition: the arrays hold a {e maximum} flow. The same BFS
    checks it: [Invalid_argument] if [sink] is still reachable. *)

val on_source_side : t -> int -> bool
(** After {!min_cut}: whether the node is residual-reachable. *)

val crosses_cut : t -> Graph.arc -> bool
(** After {!min_cut}: whether the forward arc runs from the source side
    to the sink side — a member of the cut {!Edmonds_karp.min_cut}
    reports for the same flow. Zero-capacity arcs can cross too; a
    caller that wants the arcs a snapshot graph would contain filters
    on {!original_capacity}. *)

(** {1 Warm-cycle bulk operations — zero allocation} *)

val commit_new : t -> source:int -> int
(** Freezes every unfrozen arc carrying flow (they must be saturated —
    always true on the unit-capacity scheduling graphs) and returns the
    number of flow units committed, measured at [source]. One O(arcs)
    scan, no allocation: the bulk form of per-circuit freezing for
    benchmarks and steady-state loops that do not need the circuits
    themselves. *)

val release_all : t -> unit
(** Thaws every frozen arc and zeroes its flow — the bulk inverse of
    {!commit_new}. Endpoint capacities are left untouched; switch them
    off separately if the released circuits' endpoints should go
    idle. *)

(** {1 Interop and validation} *)

val write_flows : t -> Graph.t -> unit
(** Copies the CSR flow assignment back onto the graph the snapshot was
    taken from ({!Graph.set_flow} per forward arc) — how the registry's
    [dinic-csr]/[mincost-csr] solvers leave their result where every
    {!Graph}-based caller (extraction, conservation checks) expects it.
    Frozen arcs are skipped: their graph-side state is already the
    committed flow. *)

val check_rev_pairing : t -> (unit, string) result
(** Structural invariants tying the two representations together:
    [rev] is a fixed-point-free involution matching [a lxor 1] in graph
    terms, partner head/tail/cost mirror each other, the graph↔CSR
    position maps are mutually inverse, each arc lies in its tail's
    [row_ptr] slice, and residual capacities of a pair sum to the
    original capacity (frozen pairs: residual side 0, flow within
    bounds). The drift tripwire for {!of_graph}. *)

val check_conservation : t -> source:int -> sink:int -> (unit, string) result
(** Capacity bounds and flow conservation, as
    {!Graph.check_conservation}. *)
