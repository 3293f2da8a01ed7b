(** Deterministic random generation of purely probabilistic systems,
    facts and actions, for property-based tests and benchmarks.

    All generation is a pure function of the [seed], so failures are
    reproducible. Action labels embed the tree depth at which they can
    occur, which makes every generated action proper by construction
    (it is performed at most once per run). *)

type params = {
  n_agents : int;
  depth : int;            (** length of the longest runs *)
  max_branching : int;    (** children per internal node: 1..max_branching *)
  label_alphabet : int;   (** distinct local-state labels per depth *)
  act_alphabet : int;     (** distinct action labels per agent per depth *)
  max_weight : int;       (** probability granularity: weights in 1..max_weight *)
  early_stop_pct : int;   (** percent chance a non-initial node is a leaf early *)
  deterministic_acts : bool;
      (** make every agent action a function of the agent's local state
          (Lemma 4.3(a) situations); forces uniform depth *)
}

(** The seeded SplitMix generator behind every draw here and in
    {!Simulate}; each user passes its own [salt]. *)
module Prng : sig
  type t

  val create : salt:int -> int -> t
  val next : t -> int
  val int : t -> int -> int
  (** [int g bound] is below [bound], or 0 when [bound <= 0]. *)
end

val default_params : params
(** 2 agents, depth 3, small alphabets — a few dozen runs per tree. *)

val tree : ?params:params -> int -> Tree.t
(** A {e protocol-consistent} random pps: each agent's action
    distribution is a memoized function of its local state, as produced
    by a probabilistic protocol [P_i : L_i → ∆(Act_i)] (Section 2.2);
    the environment's distribution is free per node; runs have uniform
    length [depth]. This is the class of systems the paper's lemmas
    quantify over — in particular Lemma 4.3(b) holds on these trees but
    can fail on arbitrary ones. [early_stop_pct] is ignored. *)

val tree_arbitrary : ?params:params -> int -> Tree.t
(** An arbitrary random pps: per-node edge probabilities and per-edge
    action labels, with early leaves ([early_stop_pct]). Not
    necessarily protocol-consistent; useful for measure-level
    properties and for exhibiting failures of protocol-class lemmas.
    [deterministic_acts] is ignored. *)

val past_based_fact : Tree.t -> seed:int -> Fact.t
(** A random fact constant on the runs through each node — past-based
    by construction (Lemma 4.3(b) situations). *)

val transient_fact : Tree.t -> seed:int -> Fact.t
(** A random point predicate; generally {e not} past-based. *)

val run_fact : Tree.t -> seed:int -> Fact.t
(** A random fact about runs. *)

val proper_actions : Tree.t -> (int * string) list
(** All (agent, action) pairs that are proper in the tree, sorted. *)

val pick_proper_action : Tree.t -> seed:int -> (int * string) option
(** A pseudo-random proper action of the tree, if any exists. *)
