(** Fixed-capacity sets of small integers, used for events (sets of run
    indices) over a pps. Operations are functional: inputs are never
    mutated. Both operands of binary operations must share a capacity. *)

type t

val create : int -> t
(** [create n] is the empty set of capacity [n] (members range over
    [0 .. n-1]). @raise Invalid_argument if [n < 0]. *)

val full : int -> t
(** The set containing all of [0 .. n-1]. *)

val singleton : int -> int -> t
(** [singleton n i] has capacity [n] and sole member [i]. *)

val of_list : int -> int list -> t
(** [of_list n is] has capacity [n] and members [is] (duplicates are
    fine). Builds one word array in place.
    @raise Invalid_argument if a member is outside [0 .. n-1]. *)

val of_ranges : int -> (int * int) list -> t
(** [of_ranges n rs] has capacity [n] and every member of each
    inclusive range [(lo, hi)] in [rs] (overlaps are fine). Builds one
    word array, a word at a time.
    @raise Invalid_argument unless [0 <= lo <= hi < n] for each range. *)

val to_list : t -> int list
(** Members in increasing order. *)

val init : int -> (int -> bool) -> t
(** [init n p] is the set of capacity [n] containing every
    [i < n] with [p i]. Bulk constructor: builds the packed words
    directly, so it costs one word array plus [n] predicate calls —
    use it instead of folding {!add} (which copies per element).
    @raise Invalid_argument if [n < 0]. *)

val build : int -> ((int -> unit) -> unit) -> t
(** [build n fill] is the set of capacity [n] holding every member
    [fill] passes to the adder it is given, in any order. Bulk
    constructor like {!init}, for callers that enumerate members
    rather than test them; the adder must not be used after [fill]
    returns.
    @raise Invalid_argument if [n < 0] or a member is outside
    [0 .. n-1]. *)

val capacity : t -> int
val cardinal : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val symdiff : t -> t -> t
(** Symmetric difference: members of exactly one operand. Word-wise
    [lxor]; counts as one [bitset.set_ops] like the other
    combinators. *)

val complement : t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
val iter : (int -> unit) -> t -> unit

val iter_members : (int -> unit) -> t -> unit
(** {!iter} without the [bitset.scans] count: for building another
    set from the members, as [Action] builds run and point sets from
    the runs through nodes, where the scan is not an event-algebra
    step. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
(** Members satisfying the predicate, called in increasing order.
    One scan, one fresh word array. *)

val weighted_sum : t -> int array -> int
(** [weighted_sum s w] is [Σ w.(i)] over the members [i] of [s],
    computed word by word with no allocation. The caller keeps the sum
    in range; no overflow check is made.
    @raise Invalid_argument if [Array.length w <> capacity s]. *)

val pp : Format.formatter -> t -> unit
