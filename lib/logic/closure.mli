(** Subformula closure of a query formula, with deterministic bit
    positions — the front half of the vectorized evaluation pipeline
    (see [doc/EVALUATION.md]).

    The closure of a formula ϕ is the set of its distinct subformulas
    (hash-consed: structurally equal subformulas share one entry).
    Each entry is assigned a {e bit position} — a dense index into the
    fact table used by {!Semantics.eval}, where entry [b]'s fact holds
    the satisfying point set of its formula.

    Bit positions are assigned by a left-to-right depth-first
    post-order walk of ϕ: a subformula's children always receive
    smaller bits than the subformula itself, and the first occurrence
    of a repeated subformula fixes its bit. The assignment is a pure
    function of the formula — independent of hash-table layout, run
    count, or [--jobs] — so [digest] is byte-identical across runs
    (pinned by the closure-determinism test in [test/test_logic.ml]).

    Invariants, relied on by the evaluator (and through it by
    [Cert.certify], whose node per entry it reports):
    - [entries t] is sorted by bit: [(entries t).(b).bit = b];
    - children before parents: every child bit of entry [b] is [< b];
    - the root formula's entry is the last one:
      [root_bit t = size t - 1]. *)

type entry = {
  bit : int;  (** This entry's position in the truth-vector table. *)
  formula : Formula.t;  (** The subformula the bit stands for. *)
  children : int array;
      (** Bits of the direct subformulas, in syntactic (left-to-right)
          order; empty for leaves ([true]/[false]/atoms/[does]). *)
}

type t
(** A closure table. Immutable once built. *)

val of_formula : Formula.t -> t
(** Build the closure of a formula. One pass over the syntax tree;
    bumps the [closure.builds]/[closure.entries] counters and runs
    under a [closure.build] span. *)

val size : t -> int
(** Number of entries, i.e. distinct subformulas. *)

val root_bit : t -> int
(** Bit of the query formula itself (always [size t - 1]). *)

val entries : t -> entry array
(** All entries in bit order. Evaluating them left to right is a valid
    bottom-up schedule: children precede parents. Callers must not
    mutate the returned array. *)

val entry : t -> int -> entry
(** [entry t b] is the entry at bit [b].
    @raise Invalid_argument if [b] is out of range. *)

val bit_of : t -> Formula.t -> int option
(** The bit assigned to a (sub)formula, or [None] if it is not in the
    closure. *)

val duplicates : t -> int
(** Number of subformula {e occurrences} resolved by hash-consing
    during the build — occurrences minus distinct subformulas.
    {!Semantics.eval} reports it as [semantics.memo_hits]: the count a
    formula-keyed memo would hit. *)

val digest : t -> string
(** Hex digest of the full bit assignment (every entry's bit, rendered
    formula, and children bits). Two formulas have equal digests iff
    they produce identical closures; the serve front end uses this as
    the formula component of its result-cache key, so differently
    spelled but structurally identical queries share a cache slot. *)

val pp : Format.formatter -> t -> unit
(** One line per entry: [b<bit> <- [children] formula]. *)
