(** Parser for the concrete formula syntax produced by
    {!Formula.to_string}.

    Grammar (usual precedences, tightest first):
    {v
    unary   ::= '!' unary | 'K[i]' unary | 'B[i]⋈q' unary
              | 'E[i,j]' unary | 'C[i,j]' unary
              | 'EB[i,j]>=q' unary | 'CB[i,j]>=q' unary
              | 'F'|'G'|'X'|'P'|'H' unary | primary
    primary ::= 'true' | 'false' | 'does[i](act)' | atom | '(' formula ')'
    and     ::= unary ('&' unary)*
    or      ::= and ('|' and)*
    implies ::= or ('->' implies)?          (right associative)
    iff     ::= implies ('<->' iff)?        (right associative)
    v}
    where [⋈ ∈ {>=, >, <=, <, =}] and [q] is a rational ([3/4], [0.95],
    [1]). [K], [B], [E], [C], [EB], [CB], [F], [G], [X], [P], [H],
    [true], [false] and [does] are reserved words; atoms are other
    identifiers matching [\[A-Za-z_\]\[A-Za-z0-9_'\]*]. *)

val parse_result : string -> (Formula.t, Pak_guard.Error.t) result
(** The typed boundary for untrusted formula text: never raises.
    Returns [Error] with kind [Parse] on malformed input (including
    bad rational literals such as a zero denominator, a numeral part of
    more than {!max_numeral_digits} digits, and nesting deeper than an
    internal cap) and [Budget_exceeded] when an
    installed {!Pak_guard.Budget} runs out mid-parse. Messages include
    the offending byte offset. *)

val max_numeral_digits : int
(** The most digits either part of a numeral may have: 1000. *)

exception Parse_error of string
(** Raised on malformed input, with a human-readable description
    including the offending position. Deprecated shim retained for
    source compatibility; prefer {!parse_result}. *)

val parse : string -> Formula.t
(** [parse s] is [parse_result s], unwrapped.
    @raise Parse_error on malformed input.
    @raise Pak_guard.Error.Error on budget exhaustion. *)
