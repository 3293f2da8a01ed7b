(** Arbitrary-precision signed integers, built on {!Bignat}.

    Values are a sign ([-1], [0] or [+1]) paired with a magnitude; zero
    is canonical (sign [0], magnitude {!Bignat.zero}). *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val minus_one : t

val of_int : int -> t
val to_int_opt : t -> int option

val small : t -> int
(** [small n] is [n] as an int when [|n| < 2^30], and [min_int]
    otherwise. Allocates nothing. *)

val of_bignat : Bignat.t -> t
val to_bignat : t -> Bignat.t
(** Magnitude of the argument (absolute value as a natural). *)

val of_string : string -> t
(** Parse an optionally signed decimal numeral ([-42], [+7], [13]).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

(** {1 Predicates and comparison} *)

val sign : t -> int
val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Euclidean division: [divmod a b = (q, r)] with [a = q*b + r] and
    [0 <= r < |b|].
    @raise Pak_guard.Error.Division_by_zero if [b] is zero. *)

val gcd : t -> t -> Bignat.t
(** Non-negative gcd of the magnitudes. *)

val pow : t -> int -> t
(** @raise Invalid_argument if the exponent is negative. *)

val pp : Format.formatter -> t -> unit
