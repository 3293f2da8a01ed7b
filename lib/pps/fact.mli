(** Facts (events over points) of a purely probabilistic system.

    A fact over a pps [T] is a set of points of [T] — the points at
    which the fact is true (paper, Section 2.3). Facts are materialized
    as truth tables over points at construction time, so all later
    queries are table lookups. A fact is tied to the tree it was built
    from; combining facts from different trees raises.

    The [@]-operators turn facts into {e events} (sets of runs):
    [at_lstate] is the paper's [ϕ@ℓ_i] and [at_action] is [ϕ@α]. *)

open Pak_rational

type t

(** {1 Constructors} *)

val of_pred : Tree.t -> (run:int -> time:int -> bool) -> t
(** Most general constructor: an arbitrary point predicate. *)

val of_state_pred : Tree.t -> (Gstate.t -> bool) -> t
(** A fact about the current global state ("the critical section is
    empty"). Such facts are always past-based. *)

val of_run_pred : Tree.t -> (int -> bool) -> t
(** A fact about runs ("all agents decide the same value"): true at
    every point of a run or at none. *)

val of_lstates : Tree.t -> Tree.lkey list -> t
(** The points where the local state of some key's agent is that key:
    the union of the keys' local states, as points. *)

val tt : Tree.t -> t
val ff : Tree.t -> t

val does : Tree.t -> agent:int -> act:string -> t
(** [does_i(α)]: the agent performs the action at the current point. *)

val does_env : Tree.t -> act:string -> t

val local_label_is : Tree.t -> agent:int -> label:string -> t
(** The agent's current local-state label equals [label]. *)

(** {1 Connectives} *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val implies : t -> t -> t
val iff : t -> t -> t
val conj : Tree.t -> t list -> t
val disj : Tree.t -> t list -> t

(** {1 Temporal operators (within a run)} *)

val eventually : t -> t
(** "ϕ holds at some point of the current run" — a fact about runs. *)

val globally : t -> t
(** "ϕ holds at every point of the current run" — a fact about runs. *)

val once : t -> t
(** "ϕ held at some point at or before now" (past diamond). *)

val historically : t -> t
(** "ϕ has held at every point up to now" (past box). *)

val next : t -> t
(** "ϕ holds at the next point"; false at a run's final point. *)

val at_time : Tree.t -> int -> t -> t
(** [at_time tree k ϕ]: "ϕ holds at time [k] of the current run" — a
    fact about runs (false in runs shorter than [k+1]). *)

(** {1 Queries} *)

val tree : t -> Tree.t

val points : t -> Bitset.t
(** The satisfying points as a set of dense point indices: [(r, t)] is
    member [Tree.run_offset tree r + t]. *)

val to_list : t -> (int * int) list
(** The satisfying points as [(run, time)] pairs in increasing order. *)

val holds : t -> run:int -> time:int -> bool

val is_about_runs : t -> bool
(** Same truth value at every point of each run (Section 2.3). *)

val is_past_based : t -> bool
(** Truth at [(r,t)] depends only on the prefix of [r] up to [t]
    (Section 4) — equivalently, constant across the runs through each
    node. Past-based facts are local-state independent of every proper
    action (Lemma 4.3(b)). *)

val event_of_run_fact : t -> Bitset.t
(** The set of runs satisfying a fact about runs.
    @raise Invalid_argument if the fact is not about runs. *)

(** {1 The [@]-operators} *)

val at_lstate : t -> Tree.lkey -> Bitset.t
(** [ϕ@ℓ]: the event that the local state occurs in the run and ϕ holds
    at the (unique, by synchrony) point where it does. *)

val and_action_at_lstate : t -> agent:int -> act:string -> Tree.lkey -> Bitset.t
(** [[ϕ∧α]@ℓ]: ℓ occurs, ϕ holds there, and the agent performs the
    action there (the conjunction used by Definition 4.1). *)

val at_action : t -> agent:int -> act:string -> Bitset.t
(** [ϕ@α]: the action is performed in the run and ϕ holds at the unique
    point where it is. Requires a proper action.
    @raise Action.Not_proper otherwise. *)

(** {1 Measure shortcuts} *)

val prob : t -> Bitset.t -> Q.t
(** [prob fact ev] is [µ_T(ev)] on the fact's tree — convenience for
    report code. *)

val pp : Format.formatter -> t -> unit
(** Prints the fact as its set of satisfying points. *)
