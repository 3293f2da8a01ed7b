open Pak_rational
module Error = Pak_guard.Error

exception Parse_error of string

type token =
  | TRUE
  | FALSE
  | IDENT of string
  | NUMBER of Q.t
  | INT of int
  | KNOWS      (* K *)
  | BELIEF     (* B *)
  | DOES
  | FUT | GLOB | NEXT | ONCE | HIST
  | EVERY | COMMON | EVERYB | COMMONB
  | LBRACKET | RBRACKET | LPAREN | RPAREN | COMMA
  | NOT | AND | OR | ARROW | IFF_TOK
  | CMP of Formula.cmp
  | EOF

let fail pos msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''
let is_digit c = c >= '0' && c <= '9'

(* The most digits one part of a numeral may have. Reading a numeral
   and reducing it costs time quadratic in its length, and formulas
   arrive untrusted, before any budget is installed. *)
let max_numeral_digits = 1000

(* The end of the digit run from [i]. *)
let digit_run input n i =
  let j = ref i in
  while !j < n && is_digit input.[!j] do incr j done;
  if !j - i > max_numeral_digits then
    fail i (Printf.sprintf "numeral part longer than %d digits" max_numeral_digits);
  !j

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let push tok pos = tokens := (tok, pos) :: !tokens in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_digit c then begin
      let j = ref (digit_run input n !i) in
      if !j < n && (input.[!j] = '/' || input.[!j] = '.') then begin
        incr j;
        if !j >= n || not (is_digit input.[!j]) then fail !j "digit expected after '/' or '.'";
        j := digit_run input n !j
      end;
      let text = String.sub input !i (!j - !i) in
      i := !j;
      (match int_of_string_opt text with
       | Some k -> push (INT k) start
       | None -> push (NUMBER (Q.of_string text)) start)
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char input.[!j] do incr j done;
      let text = String.sub input !i (!j - !i) in
      i := !j;
      let tok =
        match text with
        | "true" -> TRUE
        | "false" -> FALSE
        | "does" -> DOES
        | "K" -> KNOWS
        | "B" -> BELIEF
        | "F" -> FUT
        | "G" -> GLOB
        | "X" -> NEXT
        | "P" -> ONCE
        | "H" -> HIST
        | "E" -> EVERY
        | "C" -> COMMON
        | "EB" -> EVERYB
        | "CB" -> COMMONB
        | _ -> IDENT text
      in
      push tok start
    end
    else begin
      let two = if !i + 1 < n then String.sub input !i 2 else "" in
      let three = if !i + 2 < n then String.sub input !i 3 else "" in
      if three = "<->" then (push IFF_TOK start; i := !i + 3)
      else if two = "->" then (push ARROW start; i := !i + 2)
      else if two = ">=" then (push (CMP Formula.Geq) start; i := !i + 2)
      else if two = "<=" then (push (CMP Formula.Leq) start; i := !i + 2)
      else
        match c with
        | '!' -> push NOT start; incr i
        | '&' -> push AND start; incr i
        | '|' -> push OR start; incr i
        | '>' -> push (CMP Formula.Gt) start; incr i
        | '<' -> push (CMP Formula.Lt) start; incr i
        | '=' -> push (CMP Formula.Eq) start; incr i
        | '[' -> push LBRACKET start; incr i
        | ']' -> push RBRACKET start; incr i
        | '(' -> push LPAREN start; incr i
        | ')' -> push RPAREN start; incr i
        | ',' -> push COMMA start; incr i
        | _ -> fail start (Printf.sprintf "unexpected character %C" c)
    end
  done;
  push EOF n;
  List.rev !tokens

(* Recursive-descent parser over the token list, threaded through a
   mutable cursor. [depth] tracks the live recursion depth (entered
   minus exited frames): input is untrusted and recursion depth is
   input-controlled, so without the cap a deeply nested formula
   overflows the OCaml stack instead of failing with a typed error. *)
type state = { mutable toks : (token * int) list; mutable depth : int }

let max_depth = 5000

let peek st = match st.toks with [] -> (EOF, 0) | t :: _ -> t

let enter st =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then
    let _, pos = peek st in
    fail pos (Printf.sprintf "formula nested deeper than %d" max_depth)

let leave st = st.depth <- st.depth - 1

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st tok msg =
  let got, pos = peek st in
  if got = tok then advance st else fail pos msg

let parse_int st =
  match peek st with
  | INT k, _ ->
    advance st;
    k
  | _, pos -> fail pos "agent index expected"

let parse_group st =
  expect st LBRACKET "'[' expected";
  let first = parse_int st in
  let rec rest acc =
    match peek st with
    | COMMA, _ ->
      advance st;
      rest (parse_int st :: acc)
    | _ -> List.rev acc
  in
  let grp = rest [ first ] in
  expect st RBRACKET "']' expected";
  grp

let parse_number st =
  match peek st with
  | NUMBER q, _ ->
    advance st;
    q
  | INT k, _ ->
    advance st;
    Q.of_int k
  | _, pos -> fail pos "rational number expected"

let parse_cmp st =
  match peek st with
  | CMP c, _ ->
    advance st;
    c
  | _, pos -> fail pos "comparison operator expected"

let parse_geq_number st =
  let _, pos = peek st in
  match parse_cmp st with
  | Formula.Geq -> parse_number st
  | _ -> fail pos "'>=' expected for group belief"

let rec parse_unary st : Formula.t =
  enter st;
  let f = parse_unary_body st in
  leave st;
  f

and parse_unary_body st : Formula.t =
  match peek st with
  | NOT, _ ->
    advance st;
    Formula.Not (parse_unary st)
  | FUT, _ ->
    advance st;
    Formula.Eventually (parse_unary st)
  | GLOB, _ ->
    advance st;
    Formula.Globally (parse_unary st)
  | NEXT, _ ->
    advance st;
    Formula.Next (parse_unary st)
  | ONCE, _ ->
    advance st;
    Formula.Once (parse_unary st)
  | HIST, _ ->
    advance st;
    Formula.Historically (parse_unary st)
  | KNOWS, _ ->
    advance st;
    expect st LBRACKET "'[' expected after K";
    let i = parse_int st in
    expect st RBRACKET "']' expected";
    Formula.Knows (i, parse_unary st)
  | BELIEF, _ ->
    advance st;
    expect st LBRACKET "'[' expected after B";
    let i = parse_int st in
    expect st RBRACKET "']' expected";
    let c = parse_cmp st in
    let q = parse_number st in
    Formula.Believes (i, c, q, parse_unary st)
  | EVERY, _ ->
    advance st;
    let grp = parse_group st in
    Formula.EveryoneKnows (grp, parse_unary st)
  | COMMON, _ ->
    advance st;
    let grp = parse_group st in
    Formula.CommonKnows (grp, parse_unary st)
  | EVERYB, _ ->
    advance st;
    let grp = parse_group st in
    let q = parse_geq_number st in
    Formula.EveryoneBelieves (grp, q, parse_unary st)
  | COMMONB, _ ->
    advance st;
    let grp = parse_group st in
    let q = parse_geq_number st in
    Formula.CommonBelief (grp, q, parse_unary st)
  | _ -> parse_primary st

and parse_primary st : Formula.t =
  match peek st with
  | TRUE, _ ->
    advance st;
    Formula.True
  | FALSE, _ ->
    advance st;
    Formula.False
  | IDENT s, _ ->
    advance st;
    Formula.Atom s
  | DOES, _ ->
    advance st;
    expect st LBRACKET "'[' expected after does";
    let i = parse_int st in
    expect st RBRACKET "']' expected";
    expect st LPAREN "'(' expected";
    let act =
      match peek st with
      | IDENT s, _ ->
        advance st;
        s
      | _, pos -> fail pos "action name expected"
    in
    expect st RPAREN "')' expected";
    Formula.Does (i, act)
  | LPAREN, _ ->
    advance st;
    let f = parse_formula st in
    expect st RPAREN "')' expected";
    f
  | _, pos -> fail pos "formula expected"

and parse_and st =
  let rec go acc =
    match peek st with
    | AND, _ ->
      advance st;
      go (Formula.And (acc, parse_unary st))
    | _ -> acc
  in
  go (parse_unary st)

and parse_or st =
  let rec go acc =
    match peek st with
    | OR, _ ->
      advance st;
      go (Formula.Or (acc, parse_and st))
    | _ -> acc
  in
  go (parse_and st)

and parse_implies st =
  let lhs = parse_or st in
  match peek st with
  | ARROW, _ ->
    advance st;
    enter st;
    let rhs = parse_implies st in
    leave st;
    Formula.Implies (lhs, rhs)
  | _ -> lhs

and parse_formula st =
  let lhs = parse_implies st in
  match peek st with
  | IFF_TOK, _ ->
    advance st;
    enter st;
    let rhs = parse_formula st in
    leave st;
    Formula.Iff (lhs, rhs)
  | _ -> lhs

let parse_exn input =
  let st = { toks = lex input; depth = 0 } in
  let f = parse_formula st in
  (match peek st with
   | EOF, _ -> ()
   | _, pos -> fail pos "trailing input after formula");
  f

(* The typed boundary for untrusted formula text: never raises.
   Rational-literal failures (e.g. the zero-denominator "B[0]>=1/0",
   which historically escaped the lexer as a division-by-zero) are
   parse errors here; budget exhaustion passes through typed. *)
let parse_result input =
  match parse_exn input with
  | f -> Ok f
  | exception Parse_error msg ->
    Result.Error (Error.with_context "Parser.parse" (Error.make Error.Parse msg))
  | exception Error.Division_by_zero ctx ->
    Result.Error
      (Error.with_context "Parser.parse" (Error.make Error.Parse ("invalid rational: " ^ ctx)))
  | exception Invalid_argument msg ->
    Result.Error
      (Error.with_context "Parser.parse" (Error.make Error.Parse ("invalid literal: " ^ msg)))
  | exception Error.Error e -> Result.Error (Error.with_context "Parser.parse" e)
  | exception Stack_overflow ->
    Result.Error
      (Error.with_context "Parser.parse"
         (Error.make Error.Budget_exceeded "stack overflow (formula nested too deeply)"))

(* Deprecated shim: all parse-kind failures surface as [Parse_error];
   budget exhaustion propagates as the typed error. *)
let parse input =
  match parse_result input with
  | Ok f -> f
  | Result.Error ({ Error.kind = Error.Budget_exceeded; _ } as e) -> raise (Error.Error e)
  | Result.Error e -> raise (Parse_error e.Error.msg)
