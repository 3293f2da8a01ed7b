(** Textual serialization of pps trees.

    A tree serializes to a small s-expression document:

    {v
    (pps (agents 2)
      (node (parent -1) (prob 1/2) (acts) (env "e") (locals "a" "b"))
      (node (parent 0) (prob 9/10) (acts "env" "x" "y") (env "e") (locals "a" "c")))
    v}

    Nodes appear in id order (so parents always precede children), with
    [parent -1] marking initial states. Labels are quoted strings with
    ["\\"]-escapes for quotes and backslashes; probabilities are exact
    rationals. Parsing rebuilds the tree through {!Tree.Builder}, so
    every structural invariant is re-validated on load; a parsed tree
    is observationally identical to the original (same runs, measures,
    labels, actions — checked in the test suite).

    The reader drives the builder straight from the byte scanner, node
    by node, with no intermediate s-expression. Labels are interned per
    document: equal labels of one document are one shared string.
    [(parent n)] and [(prob n/d)] numerals of at most 18 digits a side
    are read in place; any other atom is [int_of_string_opt]'s or
    [Q.of_string]'s, which also take signs, radix prefixes, underscores
    and decimals. Nesting deeper than 1000 lists is rejected.

    Which error a malformed document reports is part of the contract:
    - a lexical error (an unterminated string, a dangling escape)
      anywhere in the input wins;
    - otherwise the first structural error (unbalanced parentheses,
      nesting, no document or more than one);
    - otherwise the first interpretation error in document order: a
      malformed header or node, a builder [Invalid_argument] or
      [Division_by_zero], or an exhausted budget. A node's element
      count is checked before its fields and a field's count before
      its value, so [(node (parent x) …)] with six fields reports the
      node's shape, and [(parent 1 2)] reports [(parent id) expected].
    On a document that loads, the builder sees the same nodes in the
    same order, so budget charges are those of building the tree.

    The lexical and structural rules are {!Scan}'s, the one scanner of
    the dialect; the serve protocol's frames ([Serve.Sexp]) are read
    with it too. *)

(** The scanner of the dialect: whitespace-separated atoms, quoted
    strings with backslash escapes, and lists, nested at most
    [max_nesting] deep. Each consumer turns its typed errors into its
    own messages. *)
module Scan : sig
  type t

  type elem = Eof | Open | Close | Atom | Str

  type error =
    | Unterminated_string  (** lexical: the input ends inside a string *)
    | Dangling_escape  (** lexical: a backslash ends the input *)
    | Unexpected_close  (** structural: a [')'] with no list open *)
    | Too_deep  (** structural: a ['('] with [max_nesting] lists open *)
    | Unclosed  (** structural: the input ends inside a list *)

  exception Error of error

  val create : max_nesting:int -> string -> t

  val step : t -> elem
  (** The next element. @raise Error on a lexical error, or on a
      structural one once the rest of the input is lexed: a lexical
      error anywhere in the input wins over a structural one. *)

  val atom : t -> string
  (** The text of the last [Atom]. *)

  val string : t -> string
  (** The value of the last [Str], escapes decoded. *)

  val lex_rest : t -> unit
  (** Lexes the rest of the input, for a consumer's own error to wait
      on. @raise Error on a lexical error. *)
end

val to_string : Tree.t -> string

val quote : Buffer.t -> string -> unit
(** [quote buf s] appends [s] as a quoted string of the document
    syntax: between double quotes, with a backslash before every quote
    and backslash. The serve protocol's s-expressions quote their
    strings with it too. *)

val of_string_result : string -> (Tree.t, Pak_guard.Error.t) result
(** The typed boundary for untrusted documents: never raises. Returns
    [Error] with kind [Parse] for malformed text, [Invalid_system] for
    well-formed documents violating a tree invariant (bad
    probabilities, duplicate joint actions, wrong arities — the checks
    {!Tree.Builder} enforces), and [Budget_exceeded] when an installed
    {!Pak_guard.Budget} runs out while building the tree. *)

exception Parse_error of string
(** Deprecated shim retained for source compatibility; prefer
    {!of_string_result}. *)

val of_string : string -> Tree.t
(** [of_string s] is [of_string_result s], unwrapped.
    @raise Parse_error on any malformed or invariant-violating
    document (the historical split where builder errors escaped as
    [Invalid_argument] is gone).
    @raise Pak_guard.Error.Error on budget exhaustion. *)
