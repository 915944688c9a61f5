(** Small statistics toolkit for the Monte-Carlo experiments.

    Provides streaming mean/variance accumulation (Welford), normal-theory
    confidence intervals for proportions and means, and fixed-bin
    histograms. All experiment tables in EXPERIMENTS.md report values
    computed here. *)

type accum
(** Streaming accumulator for real-valued observations. *)

val accum : unit -> accum
val observe : accum -> float -> unit
val count : accum -> int
val mean : accum -> float
(** Mean of the observations; [nan] when empty. *)

val variance : accum -> float
(** Unbiased sample variance; [nan] when fewer than two observations. *)

val stddev : accum -> float

val ci95 : accum -> float
(** Half-width of the normal-approximation 95 % confidence interval of
    the mean; [nan] when fewer than two observations. *)

val min_obs : accum -> float
val max_obs : accum -> float

val accum_state : accum -> int * float * float * float * float
(** [(count, mean, m2, min, max)] — the full Welford state, for
    checkpoint serialization. Round-trips exactly through
    {!accum_restore}. *)

val accum_restore : accum -> int * float * float * float * float -> unit
(** Overwrites an accumulator with a state from {!accum_state}. Raises
    [Invalid_argument] on a negative count. *)

val proportion_ci95 : successes:int -> trials:int -> float * float
(** Wilson score interval for a binomial proportion, at 95 % confidence.
    Returns [(low, high)]. Requires [trials > 0]. *)

type histogram

val histogram : lo:float -> hi:float -> bins:int -> histogram
(** Fixed-width bins over [\[lo, hi)]; observations outside the range are
    clamped into the end bins. Requires [bins > 0] and [lo < hi]. *)

val hist_observe : histogram -> float -> unit
val hist_counts : histogram -> int array
val hist_total : histogram -> int

val hist_quantile : histogram -> float -> float
(** [hist_quantile h q] approximates the [q]-quantile ([0 <= q <= 1])
    from bin midpoints; [nan] when the histogram is empty. *)

val mean_of : float list -> float
(** Convenience: arithmetic mean of a non-empty list. *)

type loghist
(** Streaming log-bucketed (geometric) histogram: sparse buckets at
    [gamma^i] boundaries, so quantiles carry a bounded {e relative}
    error (about [sqrt gamma - 1]) over any value range with no
    up-front [lo]/[hi]. Backs {!Rsin_obs.Metrics} histograms. *)

val loghist : ?gamma:float -> unit -> loghist
(** Fresh histogram; [gamma] (default 1.05, ≈2.5 % relative error) is
    the bucket growth factor, must be > 1. *)

val log_observe : loghist -> float -> unit
(** O(1). Non-positive observations share one dedicated bucket that
    reports as 0. *)

val log_total : loghist -> int

val log_quantile : loghist -> float -> float
(** [log_quantile h q] approximates the [q]-quantile from geometric
    bucket midpoints, clamped to the exact observed [min]/[max];
    [nan] when empty. O(buckets log buckets) — snapshot-time only. *)

val percentile : float array -> float -> float
(** Exact linear-interpolated percentile of a sample array (the array
    is copied, not mutated); [nan] when empty. Used by the bench
    harness, where sample counts are small enough to sort. *)
