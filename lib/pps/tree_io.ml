open Pak_rational
module Error = Pak_guard.Error
module Obs = Pak_obs.Obs

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let quote buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string tree =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "(pps (agents %d)\n" (Tree.n_agents tree));
  (* Emit nodes in id order, each with its incoming edge; initial
     nodes carry parent -1 and no actions. *)
  for id = 0 to Tree.n_nodes tree - 1 do
    let prob = Tree.node_prob tree id and acts = Tree.node_acts tree id in
    let parent = match Tree.node_parent tree id with Some p -> p | None -> -1 in
    let state = Tree.node_state tree id in
    Buffer.add_string buf
      (Printf.sprintf "  (node (parent %d) (prob %s) (acts" parent (Q.to_string prob));
    Array.iter
      (fun a ->
        Buffer.add_char buf ' ';
        quote buf a)
      acts;
    Buffer.add_string buf ") (env ";
    quote buf state.Gstate.env;
    Buffer.add_string buf ") (locals";
    Array.iter
      (fun l ->
        Buffer.add_char buf ' ';
        quote buf l)
      state.Gstate.locals;
    Buffer.add_string buf "))\n"
  done;
  Buffer.add_string buf ")\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The scanner of the dialect                                          *)
(* ------------------------------------------------------------------ *)

module Scan = struct
  type elem = Eof | Open | Close | Atom | Str

  type error = Unterminated_string | Dangling_escape | Unexpected_close | Too_deep | Unclosed

  exception Error of error

  type t = {
    input : string;
    len : int;
    max_nesting : int;
    mutable pos : int;
    mutable depth : int; (* lists open at [pos] *)
    mutable start : int; (* the last atom is input.[start .. pos - 1], the last string's
                            body input.[start .. pos - 2] *)
    mutable escapes : int; (* backslash pairs in the last string's body *)
  }

  (* Every loop below is tail-recursive or iterative, so neither depth
     nor list length can overflow the OCaml stack. *)
  let create ~max_nesting input =
    { input; len = String.length input; max_nesting; pos = 0; depth = 0; start = 0; escapes = 0 }

  let is_delimiter = function
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' -> true
    | _ -> false

  (* The index just past the closing quote of the string whose body
     goes on at [j]; counts the body's escapes. *)
  let rec string_end sc input len j =
    if j >= len then raise (Error Unterminated_string)
    else
      match String.unsafe_get input j with
      | '"' -> j + 1
      | '\\' ->
        if j + 1 >= len then raise (Error Dangling_escape);
        sc.escapes <- sc.escapes + 1;
        string_end sc input len (j + 2)
      | _ -> string_end sc input len (j + 1)

  let lex_rest sc =
    while sc.pos < sc.len do
      sc.pos <-
        (if String.unsafe_get sc.input sc.pos = '"' then string_end sc sc.input sc.len (sc.pos + 1)
         else sc.pos + 1)
    done

  (* After a structural error the rest of the input is still lexed, so a
     lexical error anywhere in the input takes precedence over it. *)
  let structural sc i e =
    sc.pos <- i;
    lex_rest sc;
    raise (Error e)

  let rec step sc =
    if sc.pos >= sc.len then if sc.depth > 0 then raise (Error Unclosed) else Eof
    else
      match String.unsafe_get sc.input sc.pos with
      | ' ' | '\t' | '\n' | '\r' ->
        sc.pos <- sc.pos + 1;
        step sc
      | '(' ->
        if sc.depth >= sc.max_nesting then structural sc (sc.pos + 1) Too_deep;
        sc.pos <- sc.pos + 1;
        sc.depth <- sc.depth + 1;
        Open
      | ')' ->
        if sc.depth = 0 then structural sc (sc.pos + 1) Unexpected_close;
        sc.pos <- sc.pos + 1;
        sc.depth <- sc.depth - 1;
        Close
      | '"' ->
        sc.start <- sc.pos + 1;
        sc.escapes <- 0;
        sc.pos <- string_end sc sc.input sc.len sc.start;
        Str
      | _ ->
        sc.start <- sc.pos;
        sc.pos <- sc.pos + 1;
        while sc.pos < sc.len && not (is_delimiter (String.unsafe_get sc.input sc.pos)) do
          sc.pos <- sc.pos + 1
        done;
        Atom

  let atom sc = String.sub sc.input sc.start (sc.pos - sc.start)

  let rec backslash_from s i stop =
    if i >= stop || String.unsafe_get s i = '\\' then i else backslash_from s (i + 1) stop

  (* The runs between escapes are copied into a string of the exact
     size. *)
  let string sc =
    let s = sc.input and stop = sc.pos - 1 in
    let b = Bytes.create (stop - sc.start - sc.escapes) in
    let rec copy i k =
      let j = backslash_from s i stop in
      Bytes.blit_string s i b k (j - i);
      if j < stop then begin
        Bytes.unsafe_set b (k + j - i) (String.unsafe_get s (j + 1));
        copy (j + 2) (k + j - i + 1)
      end
    in
    copy sc.start 0;
    Bytes.unsafe_to_string b
end

type elem = Scan.elem = Eof | Open | Close | Atom | Str

(* ------------------------------------------------------------------ *)
(* Reading: the scanner drives the builder                             *)
(* ------------------------------------------------------------------ *)

(* Nesting bound: documents are untrusted, and the depth of legitimate
   pps documents is constant (node fields), so any deeply-nested input
   is garbage. *)
let max_nesting = 1000

let scan_message = function
  | Scan.Unterminated_string -> "unterminated string"
  | Dangling_escape -> "dangling escape in string"
  | Unexpected_close -> "unexpected ')'"
  | Too_deep -> Printf.sprintf "nesting deeper than %d" max_nesting
  | Unclosed -> "unterminated '('"

(* Labels, interned per document: open addressing over the label's
   bytes, so an escape-free label already seen costs a hash and one
   comparison, and each distinct label is one string in the tree. The
   hash is not collision-resistant and documents are untrusted, so a
   lookup gives up after [max_probes] slots and the label is then
   simply not shared: crafted collisions cost a bounded amount per
   label, never a quadratic scan. *)
module Labels = struct
  type t = { mutable hashes : int array; (* -1 = vacant *) mutable keys : string array;
             mutable count : int }

  let create () = { hashes = Array.make 32 (-1); keys = Array.make 32 ""; count = 0 }

  let hash s a b =
    let h = ref 0 in
    for i = a to b - 1 do
      h := ((!h * 31) + Char.code (String.unsafe_get s i)) land max_int
    done;
    !h

  let rec same_from key s a b i =
    i >= b || (String.unsafe_get key (i - a) = String.unsafe_get s i && same_from key s a b (i + 1))

  let same key s a b = String.length key = b - a && same_from key s a b a

  let max_probes = 16

  (* The slot holding the label or the vacant one where it goes, or -1
     after [max_probes] occupied slots. *)
  let rec slot t h s a b i k =
    let hi = t.hashes.(i) in
    if hi < 0 || (hi = h && same t.keys.(i) s a b) then i
    else if k = max_probes then -1
    else slot t h s a b ((i + 1) land (Array.length t.hashes - 1)) (k + 1)

  let grow t =
    let hashes = t.hashes and keys = t.keys in
    let size = 2 * Array.length hashes in
    t.hashes <- Array.make size (-1);
    t.keys <- Array.make size "";
    Array.iteri
      (fun i h ->
        if h >= 0 then begin
          let key = keys.(i) in
          let j = slot t h key 0 (String.length key) (h land (size - 1)) 1 in
          if j >= 0 then begin
            t.hashes.(j) <- h;
            t.keys.(j) <- key
          end
        end)
      hashes

  (* The label [s.[a .. b - 1]]. *)
  let intern t s a b =
    let h = hash s a b in
    let i = slot t h s a b (h land (Array.length t.hashes - 1)) 1 in
    if i < 0 then String.sub s a (b - a)
    else if t.hashes.(i) >= 0 then t.keys.(i)
    else begin
      let key = if a = 0 && b = String.length s then s else String.sub s a (b - a) in
      t.hashes.(i) <- h;
      t.keys.(i) <- key;
      t.count <- t.count + 1;
      if 2 * t.count > Array.length t.hashes then grow t;
      key
    end
end

type reader = {
  sc : Scan.t;
  mutable vstart : int; (* a field value's atom is input.[vstart .. vstop - 1] *)
  mutable vstop : int;
  mutable label : string; (* a field value's string, interned *)
  labels : Labels.t;
  mutable scratch : string array; (* the labels of an (acts ...) or (locals ...) field *)
  mutable fields : int; (* elements of the current node after "node" *)
}

let step r = Scan.step r.sc

(* The last string's value, interned. *)
let label r =
  let sc = r.sc in
  if sc.escapes = 0 then Labels.intern r.labels sc.input sc.start (sc.pos - 1)
  else
    let s = Scan.string sc in
    Labels.intern r.labels s 0 (String.length s)

(* Skim to the end of the input, [tops] top-level elements begun so
   far: the first lexical or structural error is raised, and the one
   document must be all there is. *)
let rec skim r tops =
  let top = r.sc.depth = 0 in
  match step r with
  | Eof ->
    if tops = 0 then raise (Parse_error "unexpected end of input");
    if tops > 1 then raise (Parse_error "trailing input after document")
  | Open | Atom | Str -> skim r (if top then tops + 1 else tops)
  | Close -> skim r tops

(* An interpretation, builder or budget error is final only once the
   rest of the input holds no lexical or structural error. *)
let fail r e =
  skim r 1;
  raise e

(* Skim until only [d] lists are open. *)
let skim_to r d =
  while r.sc.depth > d do
    ignore (step r)
  done

(* Skim the rest of the innermost open list, its ')' included; returns
   how many elements it still had. *)
let close_list r =
  let d = r.sc.depth and n = ref 0 in
  while r.sc.depth >= d do
    let at_d = r.sc.depth = d in
    match step r with
    | Open | Atom | Str -> if at_d then incr n
    | Close | Eof -> ()
  done;
  !n

let atom_is r key = Labels.same key r.sc.input r.sc.start r.sc.pos

(* The value of the 1 to 18 decimal digits s.[a .. b - 1], or -1 for
   any other text; 18 digits stay below 10^18 < 2^62. *)
let digits s a b =
  if b <= a || b - a > 18 then -1
  else begin
    let v = ref 0 and i = ref a in
    while !i < b && s.[!i] >= '0' && s.[!i] <= '9' do
      v := (10 * !v) + (Char.code s.[!i] - Char.code '0');
      incr i
    done;
    if !i = b then !v else -1
  end

let negative s a b = b > a && s.[a] = '-'

exception Not_integer

(* An atom as an integer: "n" or "-n" with at most 18 digits is read in
   place; every other text is [int_of_string_opt]'s, which also takes
   signs, radix prefixes and underscores. *)
let int_atom r a b =
  let neg = negative r.sc.input a b in
  let v = digits r.sc.input (if neg then a + 1 else a) b in
  if v >= 0 then if neg then -v else v
  else
    match int_of_string_opt (String.sub r.sc.input a (b - a)) with
    | Some v -> v
    | None -> raise Not_integer

exception Not_rational

let rec slash_in s i b = if i >= b || s.[i] = '/' then i else slash_in s (i + 1) b

(* An atom as a rational: "n" or "n/d" with at most 18 digits a side
   (n optionally negative, d > 0) goes to [Q.of_ints], which is what
   [Q.of_string] does with it; every other text is [Q.of_string]'s. *)
let q_atom r a b =
  let s = r.sc.input in
  let slash = slash_in s a b in
  let neg = negative s a slash in
  let n = digits s (if neg then a + 1 else a) slash in
  let d = if slash = b then 1 else digits s (slash + 1) b in
  if n >= 0 && d > 0 then Q.of_ints (if neg then -n else n) d
  else try Q.of_string (String.sub s a (b - a)) with _ -> raise Not_rational

let e_top = Parse_error "expected (pps (agents n) (node ...) ...)"
let e_node = Parse_error "expected (node ...)"
let e_shape = Parse_error "node: expected (parent)(prob)(acts)(env)(locals)"

(* A node's element count is checked before its fields, and a field's
   element count before its value, so an error inside a field is only
   final once the enclosing list's count is known: it is raised as
   [Bad] and the node decides. [Shape] is a node with fewer or more
   than five fields, already read to its ')'. *)
exception Bad of string
exception Shape
exception Build of exn

(* After a field's '(': its key. *)
let field_key r key =
  match step r with
  | Atom when atom_is r key -> ()
  | _ -> raise (Bad ("expected (" ^ key ^ " ...)"))

(* The next field of a node, up to and including its key. *)
let next_field r key =
  match step r with
  | Open ->
    r.fields <- r.fields + 1;
    field_key r key
  | Atom | Str ->
    r.fields <- r.fields + 1;
    raise (Bad ("expected (" ^ key ^ " ...)"))
  | Close | Eof -> raise Shape

(* The one value of a field, read to the field's ')': [count] unless
   there is exactly one. Returns the value's kind; an atom's bytes are
   left at [r.vstart .. r.vstop - 1], a string's value in [r.label]. *)
let one_value r count =
  match step r with
  | Close -> raise (Bad count)
  | kind ->
    let a = r.sc.start and b = r.sc.pos in
    if kind = Str then r.label <- label r;
    if kind = Open then skim_to r (r.sc.depth - 1);
    if close_list r > 0 then raise (Bad count);
    r.vstart <- a;
    r.vstop <- b;
    kind

let int_value r ~count what =
  match one_value r count with
  | Atom -> (try int_atom r r.vstart r.vstop with Not_integer -> raise (Bad (what ^ ": not an integer")))
  | _ -> raise (Bad (what ^ ": not an integer"))

let q_value r =
  match one_value r "(prob q) expected" with
  | Atom -> (try q_atom r r.vstart r.vstop with Not_rational -> raise (Bad "prob: not a rational"))
  | _ -> raise (Bad "prob: not a rational")

let label_value r =
  match one_value r "(env label) expected" with
  | Str -> r.label
  | _ -> raise (Bad "env: not a string")

(* The strings of an (acts ...) or (locals ...) field, to its ')'. *)
let rec labels_value r what n =
  match step r with
  | Close -> Array.sub r.scratch 0 n
  | Str ->
    if n = Array.length r.scratch then begin
      let bigger = Array.make (2 * n) "" in
      Array.blit r.scratch 0 bigger 0 n;
      r.scratch <- bigger
    end;
    r.scratch.(n) <- label r;
    labels_value r what (n + 1)
  | Open | Atom | Eof -> raise (Bad (what ^ ": not a string"))

(* After a node's '(': its five fields, then the builder call. *)
let node r b =
  let dn = r.sc.depth in
  (match step r with
   | Atom when atom_is r "node" -> ()
   | _ -> fail r e_node);
  r.fields <- 0;
  match
    next_field r "parent";
    let parent = int_value r ~count:"(parent id) expected" "parent" in
    next_field r "prob";
    let prob = q_value r in
    next_field r "acts";
    let acts = labels_value r "acts" 0 in
    next_field r "env";
    let env = label_value r in
    next_field r "locals";
    let locals = labels_value r "locals" 0 in
    if close_list r > 0 then raise Shape;
    let state = { Gstate.env; locals } in
    try
      ignore
        (if parent = -1 then Tree.Builder.add_initial b ~prob state
         else Tree.Builder.add_child b ~parent ~prob ~acts state)
    with e -> raise (Build e)
  with
  | () -> ()
  | exception Shape -> fail r e_shape
  | exception Bad msg ->
    skim_to r dn;
    let rest = close_list r in
    fail r (if r.fields + rest = 5 then Parse_error msg else e_shape)
  | exception Build e -> fail r e

(* After "(pps": the (agents n) header. *)
let header r =
  match step r with
  | Open -> (
    match
      field_key r "agents";
      int_value r ~count:"(agents n) expected" "agents"
    with
    | n -> n
    | exception Bad msg -> fail r (Parse_error msg))
  | Atom | Str -> fail r (Parse_error "expected (agents ...)")
  | Close | Eof -> fail r e_top

let read input =
  let r =
    { sc = Scan.create ~max_nesting input; vstart = 0; vstop = 0; label = "";
      labels = Labels.create (); scratch = Array.make 8 ""; fields = 0 }
  in
  match step r with
  | Eof -> raise (Parse_error "unexpected end of input")
  | Atom | Str | Close -> fail r e_top
  | Open ->
    (match step r with
     | Atom when atom_is r "pps" -> ()
     | _ -> fail r e_top);
    let n_agents = header r in
    let b = try Tree.Builder.create ~n_agents with e -> fail r e in
    let rec nodes () =
      match step r with
      | Close -> ()
      | Open ->
        node r b;
        nodes ()
      | Atom | Str | Eof -> fail r e_node
    in
    nodes ();
    skim r 1;
    Tree.Builder.finalize b

(* The typed boundary. Lexical/grammatical failures are [Parse];
   well-formed documents violating a tree invariant (bad probabilities,
   duplicate joint actions, wrong arities — historically escaping as
   [Invalid_argument]) are [Invalid_system]; budget errors pass
   through. *)
let of_string_result input =
  match Obs.span "tree_io.read" (fun () -> read input) with
  | tree -> Ok tree
  | exception Parse_error msg ->
    Result.Error (Error.with_context "Tree_io.of_string" (Error.make Error.Parse msg))
  | exception Scan.Error e ->
    Result.Error (Error.with_context "Tree_io.of_string" (Error.make Error.Parse (scan_message e)))
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

(* Deprecated shim: every failure — including builder-invariant
   violations that used to escape as [Invalid_argument] — surfaces as
   [Parse_error], as the interface always documented callers should
   expect. Budget exhaustion still propagates as the typed error. *)
let of_string input =
  match of_string_result input with
  | Ok tree -> tree
  | Result.Error ({ Error.kind = Error.Budget_exceeded; _ } as e) -> raise (Error.Error e)
  | Result.Error e -> raise (Parse_error (Error.to_string e))
