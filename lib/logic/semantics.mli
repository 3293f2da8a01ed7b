(** Model checking of {!Formula.t} over a pps.

    A formula is evaluated to a {!Pak_pps.Fact.t} — its set of
    satisfying points — given a valuation interpreting atoms at global
    states. Knowledge [K_i] quantifies over the points the agent cannot
    distinguish (same local state, hence by synchrony the same time);
    graded belief [B_i^{⋈q}] compares the agent's posterior degree of
    belief against [q]; the group fixpoints [C_G]/[CB_G^q] are computed
    by finite iteration, which terminates because the lattice of point
    sets is finite. *)

open Pak_pps

type valuation = string -> Gstate.t -> bool
(** [valuation atom state] decides the atom at a global state.
    Unknown atoms should raise or return [false] consistently. *)

val generic_valuation : valuation
(** The label-testing valuation shared by the CLI and the provenance
    layer: atom ["a<i>_<label>"] holds iff agent [i]'s current
    local-state label is [label] (any agent count); every other atom is
    false. *)

val eval : Tree.t -> valuation:valuation -> Formula.t -> Fact.t
(** Evaluate a formula to the fact (set of points) where it holds.
    Builds the {!Closure} of the formula once, then evaluates its
    entries bottom-up, one {!Pak_pps.Fact.t} (a packed bitset over
    dense point indices) per entry: connectives are bulk bitset
    operations, [K_i]/[E_G] and [B_i^{⋈q}]/[EB_G^q] are
    per-indistinguishability-cell sweeps, and the [C_G]/[CB_G^q]
    fixpoints iterate whole facts from the top element.

    Bumps [semantics.memo_misses] once per closure entry,
    [semantics.memo_hits] once per hash-consed duplicate occurrence,
    and [semantics.gfp_iters*] once per fixpoint step; the vector work
    is profiled by the [closure.*], [eval_vec.*] and [bitset.*]
    counters and the [semantics.eval_vec(.op)] spans. Charges the
    points budget one whole vector per entry and per fixpoint equality
    test, and one iteration per fixpoint step.
    See [doc/EVALUATION.md] for the pipeline spec.
    @raise Invalid_argument on an out-of-range agent or an empty
    group. *)

val eval_vec : Tree.t -> valuation:valuation -> Formula.t -> Fact.t
(** {!eval}, under the name it had when a second evaluator existed;
    kept because external callers (the perfbench helper) still use
    it. *)

val eval_auto : Tree.t -> valuation:valuation -> Formula.t -> Fact.t
(** {!eval}, under the name it had when a second evaluator existed;
    kept because external callers (the perfbench helper) still use
    it. *)

(** {1 Evidence}

    {!walk} is {!eval} with a sink that receives what the walk
    computes, in evaluation order. The provenance layer ([Pak_cert])
    builds certificates from it, so a certificate records the very
    sets and cell outcomes the evaluator derived. *)

type sink = {
  entry : Closure.entry -> Fact.t -> unit;
      (** Once per closure entry, in bit order, with the entry's final
          fact. Everything reported since the previous [entry] call
          belongs to this entry. *)
  kcell : Tree.lkey -> bool -> unit;
      (** A [K_i]/[E_G] cell: whether the inner fact holds at every
          run of the local state. Reported per agent of the group in
          the group's order (repeated agents are swept again), each
          agent's cells in {!Tree.lstates} order. *)
  bcell : Tree.lkey -> sat:Bitset.t -> degree:Pak_rational.Q.t -> bool -> unit;
      (** A [B_i^{⋈q}]/[EB_G^q] cell: the runs of [ϕ@ℓ], the degree of
          belief [µ(ϕ@ℓ | ℓ)], and its comparison with the threshold;
          same order as [kcell]. *)
  step : Fact.t -> unit;
      (** A [C_G]/[CB_G^q] approximant [X_1, X_2, …], one per
          [semantics.gfp_iters] bump; the last equals the one before
          it (or the top element). Cells swept inside a fixpoint are
          not reported. *)
}

val walk :
  ?sink:sink -> Tree.t -> valuation:valuation -> Formula.t -> Fact.t
(** {!eval}, reporting to [sink]. Same fact, counters, charges and
    errors. *)

val satisfies_cmp : Formula.cmp -> Pak_rational.Q.t -> Pak_rational.Q.t -> bool
(** [satisfies_cmp cmp degree threshold] is [degree ⋈ threshold]. *)

val sat : Tree.t -> valuation:valuation -> Formula.t -> run:int -> time:int -> bool
(** [(T, r, t) ⊨ ϕ]. *)

val valid : Tree.t -> valuation:valuation -> Formula.t -> bool
(** True at every point of the system. *)

val valid_initially : Tree.t -> valuation:valuation -> Formula.t -> bool
(** True at time 0 of every run. *)

(** What a model-checking report prints about an evaluated fact. *)
type summary = {
  points : int;  (** [Tree.n_points] *)
  sat : int;  (** points where the fact holds *)
  valid : bool;  (** [sat = points] *)
  prob : Pak_rational.Q.t Lazy.t;
      (** [µ_T] of the runs whose time-0 point satisfies the fact: one
          [Tree.measure], paid only when forced *)
}

val summarize : Tree.t -> Fact.t -> summary
(** Count the satisfying points in one [Tree.fold_points] pass (so one
    [tree.points_visited] bump and one points charge of [n_points]). *)

val probability : Tree.t -> valuation:valuation -> Formula.t -> Pak_rational.Q.t
(** [µ_T] of the runs whose time-0 point satisfies the formula. For
    formulas whose fact is a fact about runs this is the probability of
    the formula; exposed for reporting. *)
