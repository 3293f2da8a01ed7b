(** Actions in a pps: occurrence, properness, determinism.

    Actions are identified by their string label together with the agent
    performing them (the paper assumes the sets [Act_i] are disjoint;
    here the agent index is explicit instead). [does_i(α)] holds at
    [(r,t)] iff the edge from [r(t)] to [r(t+1)] records [α] as agent
    [i]'s action; no action is performed at a run's final point.

    An action is {e proper} (Section 3.1) when the agent performs it at
    least once in the tree and at most once in every run. Properness is
    what makes [ϕ@α] a well-defined fact about runs; the operations in
    {!Belief} and {!Constr} that need it raise {!Not_proper} otherwise. *)

exception Not_proper of string
(** Raised when an operation requiring a proper action is applied to an
    action that is not proper; the payload describes the action. *)

val occurrences : Tree.t -> agent:int -> act:string -> (int * int) list
(** All points [(run, time)] at which the agent performs the action, in
    (run, time) order. *)

val iter_occurrences :
  Tree.t -> agent:int -> act:string -> (run:int -> time:int -> unit) -> unit
(** The same points, in no particular order, without building the list:
    for callers that fill a set from them. *)

val runs_performing : Tree.t -> agent:int -> act:string -> Bitset.t
(** The event [R_α]: runs in which the action is performed at least
    once. *)

val count_in_run : Tree.t -> agent:int -> act:string -> run:int -> int

val time_performed : Tree.t -> agent:int -> act:string -> run:int -> int option
(** Time of the first occurrence in the run, if any. For a proper
    action this is the unique occurrence. *)

val is_performed : Tree.t -> agent:int -> act:string -> bool
val is_proper : Tree.t -> agent:int -> act:string -> bool

val proper_actions : Tree.t -> agent:int -> string list
(** The agent's proper actions, sorted: those {!is_proper} accepts,
    decided for every action in one scan of the nodes. *)

val check_proper : Tree.t -> agent:int -> act:string -> unit
(** @raise Not_proper if the action is not proper for the agent. *)

val is_deterministic : Tree.t -> agent:int -> act:string -> bool
(** Whether [does_i(α)] is a deterministic function of the local state:
    any two points with the same local state agree on whether the agent
    performs the action (Section 4). *)

val performing_lstates : Tree.t -> agent:int -> act:string -> Tree.lkey list
(** [L_i[α]]: local states at which the agent ever performs the action. *)

val performed_at_lstate : Tree.t -> agent:int -> act:string -> Tree.lkey -> Bitset.t
(** The event [α@ℓ]: runs in which the agent performs the action while
    in the given local state. *)
