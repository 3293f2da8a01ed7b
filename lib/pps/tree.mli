(** Purely probabilistic systems (pps) as finite labelled trees.

    A pps (paper, Section 2.1) is a finite directed tree [T = (V,E,π)]
    whose root [λ] only fixes a distribution over initial global states,
    whose other nodes carry global states, and whose edges carry
    strictly positive probabilities summing to one at every internal
    node. A {e run} is a path from a child of the root to a leaf, and
    the product of edge probabilities along a run defines the prior
    measure [µ_T] over the (finite) set of runs.

    Edges additionally carry the joint action tuple that produced the
    transition, which plays the role of the history component of the
    environment state in the paper: [does_i(α)] at [(r,t)] is read off
    the edge from [r(t)] to [r(t+1)].

    Local-state identity is the pair (time, label) per agent ({!lkey}),
    which realizes the paper's synchrony assumption that every local
    state contains the current time.

    Runs are referred to by dense indices [0 .. n_runs t - 1]; points
    are pairs of a run index and a time. *)

open Pak_rational

type t

type lkey
(** Identity of a local state: agent, time, and label. *)

(** {1 Building} *)

module Builder : sig
  type tree := t
  type t

  val create : n_agents:int -> t
  (** Start a pps with [n_agents] agents (numbered [0 .. n_agents-1]).
      @raise Invalid_argument if [n_agents < 1]. *)

  val add_initial : t -> prob:Q.t -> Gstate.t -> int
  (** Add an initial global state (a child of the root) reached with the
      given probability; returns its node id.
      @raise Invalid_argument if the probability is not in (0,1] or the
      state has the wrong number of agents. *)

  val add_child : t -> parent:int -> prob:Q.t -> acts:string array -> Gstate.t -> int
  (** Add a successor of [parent], reached when the joint action [acts]
      is performed, with the given transition probability. [acts] has
      length [n_agents + 1]: index 0 is the environment's action, index
      [i+1] is agent [i]'s. Returns the new node id; ids are handed out
      in insertion order, so a child's id is above its parent's.
      @raise Invalid_argument on a bad probability, a bad [acts] length,
      an unknown parent, or a duplicate joint action among the parent's
      existing edges (a joint action must determine a unique successor). *)

  val finalize : t -> tree
  (** Check global invariants (at least one initial state; edge
      probabilities sum to exactly one at the root and at every internal
      node) and freeze the tree, enumerating runs and indexing local
      states. @raise Invalid_argument if an invariant fails; the
      message names the first failing node and prints its exact sum.

      The work runs on native ints where the data allows it, and the
      data alone picks the path:
      - An edge check sums the children's probabilities as an int
        fraction over the lcm of their denominators. A probability
        with a part of [2^30] or more, or an lcm of [2^31] or more,
        sends that node's check to a [Q] sum instead.
      - A run's measure is carried down the tree as an int fraction in
        lowest terms, one cross-cancelled multiply per edge. When every
        run measure fits and their lcm [D] is below [2^61], the run
        weights are those fractions scaled to [D] and no run measure is
        stored: {!run_measure} builds it on demand. Otherwise the run
        measures are the [Q] products along the runs, and [D] and the
        weights are read off them (see {!weight_denominator}).
      - Runs are enumerated depth-first, so the runs through a node are
        the interval [node_first_run .. node_last_run]; the nodes of
        every run's points sit in one flat array indexed by the dense
        point numbering of {!run_offset}. *)
end

(** {1 Structure} *)

val tree_id : t -> int
(** Unique id of this tree value, used to detect facts applied to the
    wrong tree. *)

val n_agents : t -> int
val n_nodes : t -> int
(** Number of state-bearing nodes (the root [λ] is not counted). *)

val n_runs : t -> int
val n_points : t -> int

val node_state : t -> int -> Gstate.t
val node_depth : t -> int -> int
val node_parent : t -> int -> int option
(** [None] for initial states (children of the root). *)

val node_children : t -> int -> (Q.t * string array * int) list
(** Outgoing edges as (probability, joint action, child id). *)

val node_acts : t -> int -> string array
(** The joint action on the node's incoming edge, in the layout of
    [Builder.add_child]'s [acts]; [[||]] for initial states. *)

val initial_nodes : t -> (Q.t * int) list
(** The root's children with their probabilities. *)

val node_prob : t -> int -> Q.t
(** The probability on the node's incoming edge (for an initial state,
    the root's probability of it). *)

val first_initial : t -> int
(** The first initial state; the others follow it through
    {!next_sibling}. *)

val first_child : t -> int -> int
(** The node's first child, [-1] at a leaf. *)

val next_sibling : t -> int -> int
(** The child of the same parent added after this node (for an initial
    state, the next initial state), [-1] after the last. Walking
    {!first_child} and [next_sibling] visits a node's children in
    insertion order, the order of {!node_children}, and allocates
    nothing. *)

(** {1 Runs and points} *)

val run_length : t -> int -> int
(** Number of points of the run (final time is [run_length - 1]). *)

val run_offset : t -> int -> int
(** Dense index of the run's time-0 point. Points are numbered run by
    run, so [(r, t)] has index [run_offset t r + t] and the indices
    cover [0 .. n_points - 1] in (run, time) order — the layout of
    [Fact.t]'s point sets. *)

val run_measure : t -> int -> Q.t
(** Prior measure [µ_T(r)]; strictly positive. *)

val run_node : t -> run:int -> time:int -> int
(** Node id at [(r,t)]. @raise Invalid_argument if [time] is out of
    range for the run. *)

val runs_agree_upto : t -> int -> int -> time:int -> bool
(** Whether two runs share the same prefix up to and including [time]
    (equivalently: pass through the same node at [time]). Runs shorter
    than [time+1] agree with nothing, and no runs agree at a negative
    time. *)

val node_first_run : t -> int -> int
val node_last_run : t -> int -> int
(** The runs passing through a node are the interval
    [node_first_run .. node_last_run] of run indices. *)

val node_runs : t -> int -> Bitset.t
(** Event of all runs passing through the given node, packed from its
    interval on each call. *)

val iter_points : t -> (run:int -> time:int -> unit) -> unit
val fold_points : t -> init:'a -> f:('a -> run:int -> time:int -> 'a) -> 'a

(** {1 Measure} *)

val all_runs : t -> Bitset.t
val empty_event : t -> Bitset.t

val weight_denominator : t -> int option
(** [Some d] when the tree carries integer run weights: [d] is the lcm
    of the run-measure denominators, it is below [2^61], and every run
    measure is an integer multiple of [1/d]. {!measure} and {!cond} are
    then sums of native ints over the event's words and one final
    division. [None] when that lcm does not fit; those trees sum the
    exact run measures instead. The results are identical either way;
    only the cost differs. *)

val measure : t -> Bitset.t -> Q.t
(** [µ_T(Q)] for an event [Q] (a set of runs). *)

val cond : t -> Bitset.t -> given:Bitset.t -> Q.t
(** Conditional probability [µ_T(A | B)]: on a tree with integer
    weights, the ratio of the two weight sums.
    @raise Pak_guard.Error.Division_by_zero if [µ_T(B) = 0]. *)

(** {1 Local states} *)

val lkey : t -> agent:int -> run:int -> time:int -> lkey
(** The local state [r_i(t)]. *)

val lkey_make : agent:int -> time:int -> label:string -> lkey
val lkey_agent : lkey -> int
val lkey_time : lkey -> int
val lkey_label : lkey -> string
val lkey_equal : lkey -> lkey -> bool
val pp_lkey : Format.formatter -> lkey -> unit

val lstate_runs : t -> lkey -> Bitset.t
(** The event [ℓ_i]: runs in which the local state occurs (paper,
    Section 2.3). Empty if the local state never occurs in [t]. *)

val lstates : t -> agent:int -> lkey list
(** All local states of the agent occurring in the tree. *)

(** {1 Actions} *)

val action_at : t -> agent:int -> run:int -> time:int -> string option
(** Agent [agent]'s action at [(r,t)], or [None] at the run's final
    point (no action is performed at leaves). *)

val env_action_at : t -> run:int -> time:int -> string option

val action_nodes : t -> agent:int -> act:string -> int list
(** The nodes whose incoming edge carries [act] as the agent's action,
    in ascending id order. Every run through such a node at depth [d]
    performs the action at time [d-1], and these are all the points
    where it is performed. One scan of the nodes per call.
    @raise Invalid_argument if the agent is out of range. *)

val agent_actions : t -> agent:int -> string list
(** All distinct action labels the agent ever performs, sorted. *)

(** {1 Diagnostics} *)

val check_protocol_consistency : t -> (int * lkey * string) list
(** Check that the tree could have been generated by probabilistic
    protocols (Section 2.2): for every agent [i], local state [ℓ] and
    action [α], the conditional probability that [i] performs [α] must
    be the same at every non-final node carrying [ℓ] (it is fixed by
    [P_i(ℓ)]). Returns the violating (agent, local state, action)
    triples — empty iff the tree is protocol-consistent for the agents.
    This property is what makes Lemma 4.3(b) sound; a hand-built tree
    violating it can have past-based facts that are {e not} local-state
    independent of mixed actions. A local state occurring both at final
    and non-final points is reported with action ["<none>"]. *)

val check_labels_synchronous : t -> (int * string) list
(** Local-state labels reused by one agent at two different depths.
    Such labels denote {e distinct} local states here (time is part of
    the key); this check reports them so model authors can confirm the
    reuse is intended. *)

val to_dot : t -> string
(** Graphviz rendering of the tree (states, probabilities, actions). *)
