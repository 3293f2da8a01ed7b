(** Evaluation provenance: witness certificates for {!Pak_logic.Semantics}
    verdicts, and an independent checker that re-verifies them.

    {!certify} {e is} evaluation: it runs [Semantics.walk], the walk
    behind [Semantics.eval], with an evidence sink, and records {e why}
    at every step: per subformula the satisfying point set, and per
    modality the local evidence (the indistinguishability cell scanned
    for [K_i], the conditioning cell with its exact rational measures
    for [B_i^{⋈q}], the iteration-by-iteration shrinking approximants
    for the [C_G]/[CB_G^q] greatest fixpoints).

    {!check} then re-verifies every node {e locally and independently}:
    it never calls [Semantics.eval], re-derives every measure from
    {!Pak_pps.Tree.measure}, recomputes every fixpoint step from the
    recorded previous approximant, and compares each node's point set
    against the semantics of its connective applied to its children. A
    certificate is evidence, not a transcript — a tampered point set,
    cell, measure or iteration is rejected with a precise {!violation}.

    Certificates serialize to versioned JSON ({!to_json} /
    {!of_json_string}, parsed back with the zero-dependency
    {!Pak_obs.Obs.Json} reader) and render as text ({!pp}) for
    [pak explain]. The {!Theorem} submodule provides the same
    certify-then-recheck pairing for the paper's theorem checkers, and
    {!certify_sweep} runs it over a {!Pak_pps.Gen} family. *)

open Pak_rational
open Pak_pps
open Pak_logic

val schema_version : int
(** Version of the certificate JSON schema; bumped on incompatible
    change. Currently 1. *)

type points = (int * int) list
(** A set of points as a sorted (lexicographically strictly increasing)
    list of [(run, time)] pairs. *)

type kcell = {
  kc_agent : int;
  kc_time : int;
  kc_label : string;  (** the local state [ℓ = (agent, time, label)] *)
  kc_cell : int list;  (** runs in the indistinguishability cell, sorted *)
  kc_holds : bool;  (** the inner formula holds at [(r, time)] for every
                        run [r] of the cell *)
}
(** Evidence for [K_i] / [E_G]: one scanned indistinguishability cell. *)

type bcell = {
  bc_agent : int;
  bc_time : int;
  bc_label : string;  (** the conditioning local state [ℓ] *)
  bc_cell : int list;  (** runs of [ℓ], sorted — the conditioning cell *)
  bc_sat : int list;  (** runs of [ϕ@ℓ]: cell runs whose point at
                          [bc_time] satisfies the inner formula *)
  bc_cell_measure : Q.t;  (** [µ(cell)], exact *)
  bc_sat_measure : Q.t;  (** [µ(ϕ@ℓ)], exact *)
  bc_degree : Q.t;  (** [β = µ(ϕ@ℓ) / µ(cell)] *)
  bc_holds : bool;  (** [β ⋈ q] for the node's comparison and threshold *)
}
(** Evidence for [B_i^{⋈q}] / [EB_G^q]: one conditioning cell with the
    exact measure arithmetic behind the threshold comparison. *)

type evidence =
  | Direct
      (** truth-functional, temporal and leaf nodes: the point set
          follows pointwise from the children (or the valuation) *)
  | Knowledge of kcell list  (** [K_i] (one agent) or [E_G] (per-agent
                                 cells concatenated) *)
  | Belief of bcell list  (** [B_i^{⋈q}] or [EB_G^q] *)
  | Fixpoint of points list
      (** [C_G] / [CB_G^q]: the successive approximants [X_1, …, X_n]
          of the greatest-fixpoint iteration from the top element;
          [X_n = X_{n-1}] witnesses termination and [X_n] is the node's
          point set. The list length equals the number of
          [semantics.gfp_iters.*] counter bumps [eval] performs. *)

type node = {
  formula : Formula.t;
  points : points;  (** where the subformula holds *)
  evidence : evidence;
  children : node list;  (** immediate subformulas, in syntactic order *)
}

type t = {
  version : int;  (** = {!schema_version} *)
  n_agents : int;
  n_runs : int;
  n_points : int;  (** shape of the certified system, cross-checked by
                       {!check} against the tree it is given *)
  root : node;
}

type violation = {
  path : string;  (** root-to-node path, e.g. ["root.0.1"] *)
  formula : string;  (** text of the offending node's formula *)
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

val certify : Tree.t -> valuation:Semantics.valuation -> Formula.t -> t
(** Evaluate [formula] on [tree] with {!Semantics.walk}, recording a
    witness tree: one node per closure entry (repeated subformulas share
    a node), carrying the entry's points and, for [K]/[E] and [B]/[EB],
    one cell per (agent, local state) — agents sorted and
    de-duplicated — or, for [C]/[CB], the approximant sequence. The
    root point set is [Semantics.eval]'s fact, and the walk charges the
    installed {!Pak_guard.Budget} as [eval] does; building [B]-cell
    measures adds [Tree.measure] charges.

    @raise Invalid_argument on an out-of-range agent or empty group,
    with [Semantics.eval]'s message. *)

val certify_result :
  Tree.t -> valuation:Semantics.valuation -> Formula.t -> (t, Pak_guard.Error.t) result
(** {!certify} behind the typed error boundary: [Invalid_argument]
    becomes an [Invalid_system] error instead of an exception. Budget
    exhaustion still propagates as the usual typed budget exception so
    an enclosing [Budget.with_budget]/[attempt] can catch it. *)

val check : ?valuation:Semantics.valuation -> Tree.t -> t -> (unit, violation) result
(** Independently re-verify a certificate against [tree], without
    calling [Semantics.eval]: system shape, point-set well-formedness,
    pointwise agreement of every connective with its children, cell
    coverage and membership for [K]/[E], exact measure re-derivation
    via {!Tree.measure} for [B]/[EB], and step-by-step re-computation
    of every fixpoint approximant (initial element, each step, the
    terminating [X_n = X_{n-1}] condition). With [?valuation], atom
    leaves are re-derived too; without it they are trusted (useful when
    checking a certificate shipped without its valuation). *)

val holds_at : t -> run:int -> time:int -> bool
(** Root verdict at a point (membership in the root point set). *)

val size : t -> int
(** Number of nodes in the certificate. *)

val to_json : t -> string
(** Versioned JSON. Rationals serialize as exact strings (["3/4"]),
    formulas as their concrete syntax (re-parsed on read). *)

val of_json_string : string -> (t, string) result
(** Parse {!to_json} output back (via {!Pak_obs.Obs.Json}); rejects
    unknown schema versions and malformed structure with a readable
    message. [to_json] of the result is byte-identical to the input
    produced by [to_json]. *)

val pp : ?depth:int -> ?at:int * int -> Format.formatter -> t -> unit
(** Render as an indented explanation tree. [?depth] truncates below
    the given nesting depth; [?at:(run, time)] annotates every node
    with its verdict at that point and narrows cell evidence to the
    cells containing it. *)

(** {1 Theorem certificates}

    The same certify-then-recheck pairing for the paper's theorem
    checkers ({!Pak_pps.Theorems}). A theorem certificate records the
    events (run sets) and exact conditional measures behind one verdict
    — [µ(ϕ@α|α)], the per-local-state beliefs and weights of the
    Theorem 6.2 expectation, the strong-belief mass of Corollary 7.2 —
    and {!Theorem.check} re-derives every measure from {!Tree.measure},
    re-checks the structural decomposition
    [ϕ@α = ⋃_ℓ (α@ℓ ∩ ϕ@ℓ)] (Lemma B.1), and recomputes the verdict. *)

module Theorem : sig
  type cell_line = {
    cl_time : int;
    cl_label : string;  (** a performing local state [ℓ] of the agent *)
    cl_cell : int list;  (** runs of [ℓ] *)
    cl_weight_event : int list;  (** [α@ℓ]: cell runs performing [α] at [ℓ] *)
    cl_weight : Q.t;  (** [w_ℓ = µ(α@ℓ | R_α)] *)
    cl_belief_event : int list;  (** [ϕ@ℓ]: cell runs satisfying [ϕ] at [ℓ] *)
    cl_belief : Q.t;  (** [β_ℓ = µ(ϕ@ℓ | ℓ)] *)
  }

  type t = {
    version : int;
    kind : string;  (** {!Pak_pps.Sweep.check_name}: [thm62] … [kop] *)
    paper : string;  (** e.g. ["Theorem 6.2"] *)
    agent : int;
    act : string;
    p : Q.t option;  (** threshold parameter ([thm42]/[lemma51]) *)
    eps : Q.t option;  (** ε parameter ([cor72]) *)
    r_alpha : int list;  (** [R_α], the runs performing the action *)
    mu_event : int list;  (** [ϕ@α] *)
    mu : Q.t;  (** [µ(ϕ@α | R_α)] *)
    cells : cell_line list;  (** one line per performing local state *)
    independent : bool;  (** local-state independence of [(ϕ, α)] *)
    deterministic : bool;  (** the action is deterministic (Lemma 4.3) *)
    past_based : bool;  (** the fact is past-based (Lemma 4.3) *)
    verdict : bool;  (** the checker's [respected] field *)
  }

  val certify :
    Fact.t ->
    check:Sweep.check ->
    agent:int ->
    act:string ->
    ?p:Q.t ->
    eps:Q.t ->
    unit ->
    t
  (** Run the {!Pak_pps.Theorems} checker selected by [check] and record
      its full evidence. [?p] overrides the threshold for
      [Sufficiency]/[Necessity]; the defaults are the {!Sweep}
      conventions ([p] = minimal belief at the action, resp.
      [p = µ(ϕ@α|α)]). [verdict] equals the corresponding report's
      [respected] field.

      @raise Action.Not_proper if the action is not proper. *)

  val check : Tree.t -> ?fact:Fact.t -> t -> (unit, violation) result
  (** Re-verify: [R_α], the per-cell run sets and weight events, and
      the action's determinism are re-derived from [tree]; every
      measure is recomputed with {!Tree.measure} and compared exactly;
      the Lemma B.1 decomposition of [mu_event] over the cells is
      re-checked; and the verdict is recomputed from the re-derived
      quantities under the [kind]'s implication. With [?fact] the
      belief events, [mu_event], independence and past-basedness are
      re-derived as well instead of trusted. *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Sweep certification} *)

type sweep_report = {
  sw_check : Sweep.check;
  sw_eps : Q.t;
  sw_first_seed : int;
  sw_count : int;
  sw_certified : int;  (** seeds whose certificate re-checked [Ok] *)
  sw_skipped : int;  (** seeds with no proper action *)
  sw_failures : (int * violation) list;  (** seeds whose fresh
                                             certificate was rejected *)
}

val certify_sweep :
  ?pool:Pak_par.Pool.t ->
  ?params:Gen.params ->
  ?eps:Q.t ->
  Sweep.check ->
  first_seed:int ->
  count:int ->
  sweep_report
(** For every seed of the family (same generation as {!Sweep.run}):
    build the theorem certificate and immediately re-check it with the
    full [?fact] re-derivation. Jobs-invariant like every sweep — the
    report does not depend on [?pool]. *)

val sweep_passed : sweep_report -> bool
(** No failures and at least one seed certified. *)

val pp_sweep_report : Format.formatter -> sweep_report -> unit
