(* [Serve.Sexp.parse] as it was before frames were read with
   [Tree_io.Scan]: the whole payload becomes a token list first, each
   string through a growing [Buffer], and the value is built from the
   list. The tests require [Serve.Sexp.parse] to give the same value or
   the same error text on every input. *)

module Sexp = Pak_serve.Serve.Sexp

let max_nesting = 200

exception Bad of string

let tokenize input =
  let n = String.length input in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then begin
      toks := `Open :: !toks;
      incr i
    end
    else if c = ')' then begin
      toks := `Close :: !toks;
      incr i
    end
    else if c = '"' then begin
      (* Each run of plain bytes is copied with one blit. *)
      let buf = Buffer.create 16 in
      incr i;
      let start = ref !i in
      let closed = ref false in
      while (not !closed) && !i < n do
        match input.[!i] with
        | '"' ->
            Buffer.add_substring buf input !start (!i - !start);
            closed := true;
            incr i
        | '\\' ->
            if !i + 1 >= n then raise (Bad "dangling escape in string");
            Buffer.add_substring buf input !start (!i - !start);
            Buffer.add_char buf input.[!i + 1];
            i := !i + 2;
            start := !i
        | _ -> incr i
      done;
      if not !closed then raise (Bad "unterminated string");
      toks := `Str (Buffer.contents buf) :: !toks
    end
    else begin
      let start = !i in
      while
        !i < n
        &&
        let c = input.[!i] in
        not
          (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')'
         || c = '"')
      do
        incr i
      done;
      toks := `Atom (String.sub input start (!i - start)) :: !toks
    end
  done;
  List.rev !toks

let parse input =
  try
    let stack = ref [] in
    let depth = ref 0 in
    let result = ref None in
    let push v =
      match !stack with
      | items :: rest -> stack := (v :: items) :: rest
      | [] -> (
          match !result with
          | None -> result := Some v
          | Some _ -> raise (Bad "trailing data after toplevel form"))
    in
    List.iter
      (function
        | `Open ->
            if !depth >= max_nesting then raise (Bad "nesting too deep");
            incr depth;
            stack := [] :: !stack
        | `Close -> (
            match !stack with
            | items :: rest ->
                decr depth;
                stack := rest;
                push (Sexp.List (List.rev items))
            | [] -> raise (Bad "unbalanced ')'"))
        | `Atom s -> push (Sexp.Atom s)
        | `Str s -> push (Sexp.Str s))
      (tokenize input);
    if !stack <> [] then raise (Bad "unbalanced '('");
    match !result with None -> raise (Bad "empty frame") | Some v -> Ok v
  with Bad m -> Result.Error m
