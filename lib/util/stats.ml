type accum = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let accum () = { n = 0; mean = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

(* Welford's online algorithm: numerically stable single-pass variance. *)
let observe a x =
  a.n <- a.n + 1;
  let delta = x -. a.mean in
  a.mean <- a.mean +. (delta /. float_of_int a.n);
  a.m2 <- a.m2 +. (delta *. (x -. a.mean));
  if x < a.lo then a.lo <- x;
  if x > a.hi then a.hi <- x

let count a = a.n
let mean a = if a.n = 0 then nan else a.mean
let variance a = if a.n < 2 then nan else a.m2 /. float_of_int (a.n - 1)
let stddev a = sqrt (variance a)

let ci95 a =
  if a.n < 2 then nan
  else 1.959964 *. stddev a /. sqrt (float_of_int a.n)

let min_obs a = if a.n = 0 then nan else a.lo
let max_obs a = if a.n = 0 then nan else a.hi

let accum_state a = (a.n, a.mean, a.m2, a.lo, a.hi)

let accum_restore a (n, mean, m2, lo, hi) =
  if n < 0 then invalid_arg "Stats.accum_restore: negative count";
  a.n <- n;
  a.mean <- mean;
  a.m2 <- m2;
  a.lo <- lo;
  a.hi <- hi

let proportion_ci95 ~successes ~trials =
  if trials <= 0 then invalid_arg "Stats.proportion_ci95";
  let z = 1.959964 in
  let n = float_of_int trials and x = float_of_int successes in
  let p = x /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) /. denom
  in
  (max 0. (centre -. half), min 1. (centre +. half))

type histogram = {
  h_lo : float;
  h_hi : float;
  width : float;
  counts : int array;
  mutable total : int;
}

let histogram ~lo ~hi ~bins =
  if bins <= 0 || lo >= hi then invalid_arg "Stats.histogram";
  { h_lo = lo; h_hi = hi; width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0; total = 0 }

let hist_observe h x =
  let bins = Array.length h.counts in
  let i = int_of_float (floor ((x -. h.h_lo) /. h.width)) in
  let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
  h.counts.(i) <- h.counts.(i) + 1;
  h.total <- h.total + 1

let hist_counts h = Array.copy h.counts
let hist_total h = h.total

let hist_quantile h q =
  if h.total = 0 then nan
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target = q *. float_of_int h.total in
    let rec go i acc =
      if i >= Array.length h.counts - 1 then i
      else
        let acc' = acc +. float_of_int h.counts.(i) in
        if acc' >= target then i else go (i + 1) acc'
    in
    let bin = go 0 0. in
    h.h_lo +. ((float_of_int bin +. 0.5) *. h.width)
  end

let mean_of = function
  | [] -> invalid_arg "Stats.mean_of: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* --- log-bucketed streaming histogram ------------------------------------ *)

(* Sparse geometric buckets: observation x > 0 lands in bucket
   floor(log x / log gamma), i.e. the bucket covering
   [gamma^i, gamma^(i+1)). Relative quantile error is bounded by
   sqrt(gamma) - 1 regardless of the value range, and nothing about the
   range needs to be known up front — which is what makes this the
   right backing store for Metrics histograms observing anything from
   sub-microsecond waits to multi-second solver runs. *)

type loghist = {
  gamma_log : float;
  buckets : (int, int ref) Hashtbl.t;
  mutable nonpos : int;          (* observations <= 0 (their own bucket) *)
  mutable lh_total : int;
  mutable lh_lo : float;         (* exact extremes, used to clamp *)
  mutable lh_hi : float;
}

let loghist ?(gamma = 1.05) () =
  if gamma <= 1. then invalid_arg "Stats.loghist: gamma must be > 1";
  { gamma_log = log gamma; buckets = Hashtbl.create 64; nonpos = 0;
    lh_total = 0; lh_lo = infinity; lh_hi = neg_infinity }

let log_observe h x =
  h.lh_total <- h.lh_total + 1;
  if x < h.lh_lo then h.lh_lo <- x;
  if x > h.lh_hi then h.lh_hi <- x;
  if x <= 0. then h.nonpos <- h.nonpos + 1
  else begin
    let i = int_of_float (Float.floor (log x /. h.gamma_log)) in
    match Hashtbl.find_opt h.buckets i with
    | Some r -> incr r
    | None -> Hashtbl.add h.buckets i (ref 1)
  end

let log_total h = h.lh_total

let log_quantile h q =
  if h.lh_total = 0 then nan
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target = q *. float_of_int h.lh_total in
    let clamp v = Float.max h.lh_lo (Float.min h.lh_hi v) in
    if float_of_int h.nonpos >= target && h.nonpos > 0 then clamp 0.
    else begin
      let keys =
        Hashtbl.fold (fun k r acc -> (k, !r) :: acc) h.buckets []
        |> List.sort compare
      in
      let rec go acc = function
        | [] -> h.lh_hi
        | (k, c) :: rest ->
          let acc' = acc + c in
          if float_of_int acc' >= target then
            (* geometric bucket midpoint: gamma^(k + 1/2) *)
            exp ((float_of_int k +. 0.5) *. h.gamma_log)
          else go acc' rest
      in
      clamp (go h.nonpos keys)
    end
  end

(* --- exact percentile of a sample array ---------------------------------- *)

let percentile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end
