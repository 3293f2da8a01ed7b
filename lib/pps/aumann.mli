(** Aumann's agreement theorem on pps ("agreeing to disagree",
    cited as [5] in the paper).

    A pps induces a common prior [µ_T] for all agents, and each agent's
    degree of belief is its posterior given its local state. Aumann's
    theorem then applies: if, at a point, the {e values} of two agents'
    posteriors in a fact are common knowledge between them, those
    values are equal — rational agents with a common prior cannot agree
    to disagree.

    The checker works pointwise: at a point [(r,t)] it tests whether
    "agent i's belief in ϕ equals its actual current value [qᵢ]" is
    common knowledge in the group, for every agent, and if so compares
    the values. A report is produced per point where the premise holds. *)

open Pak_rational

type agreement = {
  run : int;
  time : int;
  beliefs : (int * Q.t) list;  (** per agent, its posterior at the point *)
  equal : bool;                (** all posteriors coincide *)
}

val common_knowledge_of_beliefs :
  Fact.t -> group:int list -> run:int -> time:int -> bool
(** Whether every group member's current degree of belief in the fact
    is common knowledge in the group at the point (each value as an
    exact rational). *)

val check_point : Fact.t -> group:int list -> run:int -> time:int -> agreement option
(** [Some report] when the beliefs are common knowledge at the point
    (the theorem asserts [report.equal] is then true); [None] when the
    premise fails. *)

val check : Fact.t -> group:int list -> agreement list
(** All points where the premise holds, with their reports. Aumann's
    theorem asserts [equal = true] in every returned report; the
    property suite verifies this on random systems. *)

val disagreement_points : Fact.t -> group:int list -> (int * int) list
(** Points violating the theorem — always empty; exposed so tests state
    the theorem positively. *)

(** {1 Monderer–Samet p-agreement}

    Monderer and Samet (1989) relaxed Aumann's premise: if at a point
    the agents' posterior {e values} in ϕ are merely {e common
    p-belief} (everyone p-believes them, everyone p-believes that,
    …), then the values need not be equal but can differ by at most
    [2(1−p)]. *)

type p_agreement = {
  p_run : int;
  p_time : int;
  p : Q.t;
  p_beliefs : (int * Q.t) list;
  spread : Q.t;        (** max − min of the posteriors *)
  bound : Q.t;         (** 2(1−p) *)
  within_bound : bool;
}

val p_agreement : Fact.t -> group:int list -> p:Q.t -> p_agreement list
(** One report per point where the belief profile is common p-belief
    (computed as the greatest fixpoint of everyone-p-believes on each
    synchronous time slice), ordered by time, then by run. The theorem
    asserts [within_bound] in every report.
    @raise Invalid_argument unless [1/2 < p ≤ 1] (the theorem's
    regime; below 1/2 the bound is vacuous anyway). *)

val p_disagreements : Fact.t -> group:int list -> p:Q.t -> (int * int) list
(** Points violating the bound — always empty. *)
