(** Exact rational numbers.

    Every probability and degree of belief in the library is a value of
    this type, so theorem checks such as the expectation identity of
    Theorem 6.2 ([µ(ϕ@α|α) = E(β_i(ϕ)@α|α)]) are decided as exact
    equalities rather than floating-point approximations.

    Values are kept in lowest terms with a strictly positive denominator;
    zero is canonically [0/1]. A value whose numerator and denominator
    are both below 2^30 in magnitude is held as two immediate ints (three
    words), and every other value as limbs; the choice is a function of
    the value. Equality is therefore structural. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val half : t
val minus_one : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized rational [num/den].
    @raise Pak_guard.Error.Division_by_zero if [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints n d] is [n/d]. When [d > 0] and [n <> min_int] the gcd is
    taken on native ints, with no bignum allocated along the way; other
    arguments go through {!make}. Both paths return the same value.
    @raise Pak_guard.Error.Division_by_zero if [d = 0]. *)

val of_string : string -> t
(** Accepts ["n"], ["n/d"], and decimal notation ["0.95"], ["-1.25"],
    each part optionally signed. Underscores are ignored inside numerals.
    @raise Invalid_argument on malformed input.
    @raise Pak_guard.Error.Division_by_zero on a zero denominator. *)

(** {1 Accessors and conversions} *)

val num : t -> Bigint.t
val den : t -> Bignat.t
(** [num] and [den] build their result when both parts are below 2^30;
    hot paths read such parts with {!small_num} and {!small_den}. *)

val small_num : t -> int
val small_den : t -> int
(** The int parts, read without allocating: when both parts of [q] are
    below 2^30 in magnitude, [small_den q] is its denominator (positive)
    and [small_num q] its numerator; otherwise both are [0]. *)

val to_string : t -> string
(** Lowest-terms rendering: ["3/4"], ["-1/2"], or just ["5"] when the
    denominator is one. *)

val to_decimal_string : ?digits:int -> t -> string
(** Decimal rendering truncated to [digits] (default 6) fractional digits,
    for human-facing reports. Exact when the expansion terminates within
    [digits]; otherwise suffixed with ["…"]. *)

val to_float : t -> float
(** Nearest float, for display and plotting only — never used in proofs. *)

(** {1 Predicates and comparison} *)

val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val lt : t -> t -> bool
val leq : t -> t -> bool
val gt : t -> t -> bool
val geq : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val is_probability : t -> bool
(** [0 <= q <= 1]. *)

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val inv : t -> t
(** @raise Pak_guard.Error.Division_by_zero on zero. *)

val div : t -> t -> t
(** @raise Pak_guard.Error.Division_by_zero if the divisor is zero. *)

val pow : t -> int -> t
(** Integer exponent of either sign.
    @raise Pak_guard.Error.Division_by_zero when raising zero to a negative power. *)

val sum : t list -> t
val one_minus : t -> t
(** [one_minus q] is [1 - q], the complement of a probability. *)

(** {1 Infix operators}

    [open Q.Infix] (or a local [let open]) for formula-dense code. *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end

val pp : Format.formatter -> t -> unit
