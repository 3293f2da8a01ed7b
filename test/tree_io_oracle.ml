(* [Tree_io]'s reader as it was before it drove the builder from the
   byte scanner: the whole input becomes an s-expression value first,
   and the document is interpreted from that value. The tests require
   [Tree_io.of_string_result] to give the same tree (compared through
   [Tree_io.to_string]) or the same [Error.t] on every input. *)

open Pak_rational
open Pak_pps
module Error = Pak_guard.Error

exception Parse_error of string

type sexp = Atom of string | Str of string | List of sexp list

(* Nesting bound: documents are untrusted, and the depth of legitimate
   pps documents is constant (node fields), so any deeply-nested input
   is garbage. The explicit accumulator stack keeps reading
   tail-recursive — parse depth and list length are both
   input-controlled and must not be able to overflow the OCaml stack. *)
let max_nesting = 1000

let is_delimiter = function
  | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' -> true
  | _ -> false

(* The quoted string whose body starts at [i]; returns it with the index
   just past its closing quote. A body without escapes is one
   [String.sub]; otherwise each run of plain bytes is one blit. *)
let rec read_plain input i j =
  if j >= String.length input then raise (Parse_error "unterminated string")
  else
    match input.[j] with
    | '"' -> (String.sub input i (j - i), j + 1)
    | '\\' -> read_escaped input (Buffer.create (j - i + 16)) i j
    | _ -> read_plain input i (j + 1)

(* [input.[start .. j - 1]] is plain bytes not yet copied into [buf]. *)
and read_escaped input buf start j =
  if j >= String.length input then raise (Parse_error "unterminated string")
  else
    match input.[j] with
    | '"' ->
      Buffer.add_substring buf input start (j - start);
      (Buffer.contents buf, j + 1)
    | '\\' ->
      if j + 1 >= String.length input then raise (Parse_error "dangling escape in string");
      Buffer.add_substring buf input start (j - start);
      Buffer.add_char buf input.[j + 1];
      read_escaped input buf (j + 2) (j + 2)
    | _ -> read_escaped input buf start (j + 1)

let read_string input i = read_plain input i i

(* After a structural error the rest of the input is still lexed, so a
   lexical error anywhere in the document takes precedence over it. *)
let rec lex_rest input i =
  if i < String.length input then
    if input.[i] = '"' then lex_rest input (snd (read_string input (i + 1)))
    else lex_rest input (i + 1)

(* One pass over the input: tokens become [sexp] values as they are
   scanned. [stack] holds the enclosing lists' accumulators. *)
let read input =
  let n = String.length input in
  let structural i msg =
    lex_rest input i;
    raise (Parse_error msg)
  in
  let rec go i depth stack acc =
    if i >= n then
      if depth > 0 then raise (Parse_error "unterminated '('")
      else
        match acc with
        | [ sexp ] -> sexp
        | [] -> raise (Parse_error "unexpected end of input")
        | _ -> raise (Parse_error "trailing input after document")
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) depth stack acc
      | '(' ->
        if depth >= max_nesting then
          structural (i + 1) (Printf.sprintf "nesting deeper than %d" max_nesting);
        go (i + 1) (depth + 1) (acc :: stack) []
      | ')' ->
        (match stack with
         | [] -> structural (i + 1) "unexpected ')'"
         | parent :: stack' -> go (i + 1) (depth - 1) stack' (List (List.rev acc) :: parent))
      | '"' ->
        let s, j = read_string input (i + 1) in
        go j depth stack (Str s :: acc)
      | _ ->
        let j = ref (i + 1) in
        while !j < n && not (is_delimiter input.[!j]) do
          incr j
        done;
        go !j depth stack (Atom (String.sub input i (!j - i)) :: acc)
  in
  go 0 0 [] []

(* ------------------------------------------------------------------ *)
(* Document interpretation                                             *)
(* ------------------------------------------------------------------ *)

let field name = function
  | List (Atom key :: rest) when key = name -> rest
  | _ -> raise (Parse_error (Printf.sprintf "expected (%s ...)" name))

let as_int what = function
  | Atom a ->
    (match int_of_string_opt a with
     | Some v -> v
     | None -> raise (Parse_error (what ^ ": not an integer")))
  | _ -> raise (Parse_error (what ^ ": not an integer"))

let as_string what = function
  | Str s -> s
  | _ -> raise (Parse_error (what ^ ": not a string"))

let as_q what = function
  | Atom a ->
    (try Q.of_string a
     with _ -> raise (Parse_error (what ^ ": not a rational")))
  | _ -> raise (Parse_error (what ^ ": not a rational"))

let interpret input =
  match read input with
  | List (Atom "pps" :: header :: nodes) ->
    let n_agents =
      match field "agents" header with
      | [ v ] -> as_int "agents" v
      | _ -> raise (Parse_error "(agents n) expected")
    in
    let b = Tree.Builder.create ~n_agents in
    List.iter
      (fun node ->
        match node with
        | List (Atom "node" :: fields) ->
          (match fields with
           | [ parent_f; prob_f; acts_f; env_f; locals_f ] ->
             let parent =
               match field "parent" parent_f with
               | [ v ] -> as_int "parent" v
               | _ -> raise (Parse_error "(parent id) expected")
             in
             let prob =
               match field "prob" prob_f with
               | [ v ] -> as_q "prob" v
               | _ -> raise (Parse_error "(prob q) expected")
             in
             let acts =
               field "acts" acts_f |> List.map (as_string "acts") |> Array.of_list
             in
             let env =
               match field "env" env_f with
               | [ v ] -> as_string "env" v
               | _ -> raise (Parse_error "(env label) expected")
             in
             let locals = field "locals" locals_f |> List.map (as_string "locals") in
             let state = Gstate.make ~env ~locals in
             if parent = -1 then ignore (Tree.Builder.add_initial b ~prob state)
             else ignore (Tree.Builder.add_child b ~parent ~prob ~acts state)
           | _ -> raise (Parse_error "node: expected (parent)(prob)(acts)(env)(locals)"))
        | _ -> raise (Parse_error "expected (node ...)"))
      nodes;
    Tree.Builder.finalize b
  | _ -> raise (Parse_error "expected (pps (agents n) (node ...) ...)")

(* The typed boundary. Lexical/grammatical failures are [Parse];
   well-formed documents violating a tree invariant (bad probabilities,
   duplicate joint actions, wrong arities — historically escaping as
   [Invalid_argument]) are [Invalid_system]; budget errors pass
   through. *)
let of_string_result input =
  match interpret input with
  | tree -> Ok tree
  | exception Parse_error msg ->
    Result.Error (Error.with_context "Tree_io.of_string" (Error.make Error.Parse msg))
  | exception Error.Error e -> Result.Error (Error.with_context "Tree_io.of_string" e)
  | exception Invalid_argument msg ->
    Result.Error (Error.with_context "Tree_io.of_string" (Error.make Error.Invalid_system msg))
  | exception Error.Division_by_zero ctx ->
    Result.Error
      (Error.with_context "Tree_io.of_string"
         (Error.make Error.Invalid_system ("division by zero: " ^ ctx)))
  | exception Stack_overflow ->
    Result.Error
      (Error.with_context "Tree_io.of_string"
         (Error.make Error.Budget_exceeded "stack overflow (document nested too deeply)"))
