(** Monte-Carlo simulation of a pps.

    Samples runs by walking the tree from the root, choosing each child
    with its transition probability. Estimation is the empirical
    counterpart of {!Tree.measure}: the library never uses it for
    theorem checking (that is exact), but it provides an independent
    cross-check of the measure computations and a way to work with
    systems too large to enumerate events over (sampling is O(depth)
    per run regardless of the number of runs).

    Each step draws [bits] uniform in [\[0, 2^30)] and takes the first
    child whose cumulative probability [acc] exceeds [bits/2^30], the
    last child unconditionally. The choice is made by exact integer
    thresholds, [bits < threshold acc], which is equivalent to the
    rational comparison; the thresholds are built once per call, so a
    step allocates nothing. The estimators record one
    [simulate.estimate] span per call.

    All sampling is a pure function of the [seed]. *)

open Pak_rational

val threshold : Q.t -> int
(** [threshold acc] is [⌈acc·2^30⌉] clamped to [\[0, 2^30\]]: for every integer
    [bits] in [\[0, 2^30)], [bits < threshold acc] iff
    [bits/2^30 < acc]. Computed exactly. *)

val sample_run : Tree.t -> seed:int -> int
(** One run index, drawn from [µ_T] (up to the 2⁻³⁰ granularity of the
    underlying uniform draws). *)

val sample_runs : Tree.t -> samples:int -> seed:int -> int array

val estimate : Tree.t -> event:Bitset.t -> samples:int -> seed:int -> Q.t
(** Empirical frequency of the event, as the exact fraction
    hits/samples. Converges to [Tree.measure] as samples grows. *)

val estimate_cond :
  Tree.t -> event:Bitset.t -> given:Bitset.t -> samples:int -> seed:int -> Q.t option
(** Empirical conditional frequency; [None] if no sample hit [given]. *)

(** {1 Parallel estimation}

    Samples are drawn in fixed blocks of {!sample_block}; block [b] of
    seed [s] uses the stream seeded by a SplitMix-style mix of [(s, b)].
    Because streams attach to block {e indices}, not domains, the
    result is a pure function of [(seed, samples)]: identical for every
    pool size and for [?pool:None] — stronger than mere per-job-count
    reproducibility. The parallel estimators draw from different
    streams than {!estimate}/{!estimate_cond}, so their values differ
    from the sequential ones by sampling noise (both converge to
    [Tree.measure]). *)

val sample_block : int
(** Number of samples per independently-seeded block (1024). *)

val estimate_par :
  ?pool:Pak_par.Pool.t -> Tree.t -> event:Bitset.t -> samples:int -> seed:int -> Q.t
(** Like {!estimate}, computed block-wise across the pool's domains
    (sequentially when [pool] is absent — same result either way). *)

val estimate_cond_par :
  ?pool:Pak_par.Pool.t ->
  Tree.t ->
  event:Bitset.t ->
  given:Bitset.t ->
  samples:int ->
  seed:int ->
  Q.t option
(** Like {!estimate_cond}, computed block-wise across the pool's
    domains. [None] iff no sample hit [given]. *)

val standard_error : p:Q.t -> samples:int -> float
(** [sqrt(p(1-p)/n)] — the binomial standard error, for tolerance
    checks in tests and harnesses. *)
