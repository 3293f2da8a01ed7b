(** Formulas of a probabilistic epistemic logic over pps.

    The language combines:
    - propositional connectives over atoms interpreted by a valuation
      on global states;
    - knowledge [K_i ϕ] ("ϕ holds at all points the agent cannot
      distinguish from the current one", i.e. with the same local
      state) and group operators [E_G]/[C_G] (everyone/common
      knowledge);
    - graded belief [B_i^{⋈q} ϕ] ("the agent's degree of belief
      {!Pak_pps.Belief.degree} in ϕ compares as ⋈ with q"), the formula
      counterpart of the paper's [β_i(ϕ)], with group counterparts
      [EB_G^q] and Monderer–Samet common [q]-belief [CB_G^q];
    - action occurrence [does_i(α)];
    - linear-time operators within a run (future [F]/[G]/[X], past
      [P]/[H]).

    Agents are 0-based indices. Printing produces the concrete syntax
    accepted by {!Parser.parse} (round-trip safe). *)

open Pak_rational

type cmp = Geq | Gt | Leq | Lt | Eq

type t =
  | True
  | False
  | Atom of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Knows of int * t
  | Believes of int * cmp * Q.t * t
  | Does of int * string
  | Eventually of t
  | Globally of t
  | Next of t
  | Once of t
  | Historically of t
  | EveryoneKnows of int list * t
  | CommonKnows of int list * t
  | EveryoneBelieves of int list * Q.t * t
  | CommonBelief of int list * Q.t * t

(** {1 Constructors} *)

val atom : string -> t
val neg : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( ==> ) : t -> t -> t
val ( <=> ) : t -> t -> t
val conj : t list -> t
val disj : t list -> t
val k : int -> t -> t
val b_geq : int -> Q.t -> t -> t
(** [b_geq i q ϕ] is [B_i^{≥q} ϕ]. *)

val does : int -> string -> t

(** {1 Inspection} *)

val size : t -> int
(** Number of connectives and modalities (atoms count 1). *)

val agents : t -> int list
(** Agents mentioned, sorted, without duplicates. *)

val atoms : t -> string list
(** Atom names mentioned, sorted, without duplicates. *)

val op_tag : t -> string
(** The outermost operator's name: ["true"], ["atom"], ["and"], …,
    ["K"], ["B"], ["E"], ["C"], ["Ep"], ["CB"]. Evaluation spans are
    labelled [semantics.eval_vec.<tag>], and a certificate node's
    ["kind"] field is the tag of its formula. *)

val equal : t -> t -> bool

(** {1 Printing} *)

val cmp_to_string : cmp -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** Concrete syntax, parseable by {!Parser.parse}:
    [!], [&], [|], [->], [<->] (with the usual precedences),
    [K\[i\]], [B\[i\]>=q], [does\[i\](act)], [F], [G], [X], [P], [H],
    [E\[i,j\]], [C\[i,j\]], [EB\[i,j\]>=q], [CB\[i,j\]>=q],
    [true], [false]. *)
