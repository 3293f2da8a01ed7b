(** Arbitrary-precision natural numbers (non-negative integers).

    This is the lowest layer of the exact-arithmetic substrate used
    throughout the library. Probabilities of runs in a purely probabilistic
    system are products of many rational transition probabilities, whose
    denominators quickly exceed 63-bit integers; all higher layers
    ({!Bigint}, {!Q}) are built on this module.

    Representation: little-endian array of 15-bit limbs with no trailing
    zero limbs. The interface is purely functional: all operations return
    fresh values and never mutate their arguments. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] is the natural number [n].
    @raise Invalid_argument if [n < 0]. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)

val small : t -> int
(** [small n] is [n] as an int when [n < 2^30], and [-1] otherwise.
    Allocates nothing. *)

val of_string : string -> t
(** Parse a decimal numeral (digits only, ignoring [_] separators).
    @raise Invalid_argument on the empty string or non-digit characters. *)

val to_string : t -> string
(** Decimal rendering with no leading zeros (["0"] for zero). *)

(** {1 Predicates and comparison} *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Arithmetic} *)

val add : t -> t -> t
val succ : t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b].
    @raise Invalid_argument if [b > a] (naturals are not closed under
    subtraction). *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b].
    @raise Pak_guard.Error.Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Greatest common divisor; [gcd zero n = n]. *)

val pow : t -> int -> t
(** [pow b e] is [b] raised to the non-negative exponent [e].
    @raise Invalid_argument if [e < 0]. *)

val shift_left : t -> int -> t
(** [shift_left n k] is [n * 2^k]. *)

(** {1 Inspection} *)

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val pp : Format.formatter -> t -> unit
