open Pak_rational

type cmp = Geq | Gt | Leq | Lt | Eq

type t =
  | True
  | False
  | Atom of string
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Knows of int * t
  | Believes of int * cmp * Q.t * t
  | Does of int * string
  | Eventually of t
  | Globally of t
  | Next of t
  | Once of t
  | Historically of t
  | EveryoneKnows of int list * t
  | CommonKnows of int list * t
  | EveryoneBelieves of int list * Q.t * t
  | CommonBelief of int list * Q.t * t

let atom s = Atom s
let neg f = Not f
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let ( ==> ) a b = Implies (a, b)
let ( <=> ) a b = Iff (a, b)

let conj = function [] -> True | f :: fs -> List.fold_left ( &&& ) f fs
let disj = function [] -> False | f :: fs -> List.fold_left ( ||| ) f fs

let k i f = Knows (i, f)
let b_geq i q f = Believes (i, Geq, q, f)
let does i act = Does (i, act)

let rec size = function
  | True | False | Atom _ | Does _ -> 1
  | Not f | Knows (_, f) | Believes (_, _, _, f)
  | Eventually f | Globally f | Next f | Once f | Historically f
  | EveryoneKnows (_, f) | CommonKnows (_, f)
  | EveryoneBelieves (_, _, f) | CommonBelief (_, _, f) ->
    1 + size f
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) -> 1 + size a + size b

let rec collect_agents acc = function
  | True | False | Atom _ -> acc
  | Not f | Eventually f | Globally f | Next f | Once f | Historically f ->
    collect_agents acc f
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
    collect_agents (collect_agents acc a) b
  | Knows (i, f) | Believes (i, _, _, f) -> collect_agents (i :: acc) f
  | Does (i, _) -> i :: acc
  | EveryoneKnows (g, f) | CommonKnows (g, f)
  | EveryoneBelieves (g, _, f) | CommonBelief (g, _, f) ->
    collect_agents (g @ acc) f

let agents f = List.sort_uniq compare (collect_agents [] f)

let rec collect_atoms acc = function
  | True | False | Does _ -> acc
  | Atom s -> s :: acc
  | Not f | Eventually f | Globally f | Next f | Once f | Historically f
  | Knows (_, f) | Believes (_, _, _, f)
  | EveryoneKnows (_, f) | CommonKnows (_, f)
  | EveryoneBelieves (_, _, f) | CommonBelief (_, _, f) ->
    collect_atoms acc f
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
    collect_atoms (collect_atoms acc a) b

let atoms f = List.sort_uniq String.compare (collect_atoms [] f)

(* The operator's name, one per constructor: trace span labels
   ("semantics.eval_vec.<tag>") and the certificate's "kind" field. *)
let op_tag = function
  | True -> "true"
  | False -> "false"
  | Atom _ -> "atom"
  | Not _ -> "not"
  | And _ -> "and"
  | Or _ -> "or"
  | Implies _ -> "implies"
  | Iff _ -> "iff"
  | Does _ -> "does"
  | Eventually _ -> "eventually"
  | Globally _ -> "globally"
  | Next _ -> "next"
  | Once _ -> "once"
  | Historically _ -> "historically"
  | Knows _ -> "K"
  | Believes _ -> "B"
  | EveryoneKnows _ -> "E"
  | CommonKnows _ -> "C"
  | EveryoneBelieves _ -> "Ep"
  | CommonBelief _ -> "CB"

let equal = ( = )

let cmp_to_string = function
  | Geq -> ">="
  | Gt -> ">"
  | Leq -> "<="
  | Lt -> "<"
  | Eq -> "="

let group_to_string g = String.concat "," (List.map string_of_int g)

(* Precedence levels for minimal parenthesization (higher binds
   tighter): iff 1, implies 2, or 3, and 4, unary 5. *)
let rec prec = function
  | Iff _ -> 1
  | Implies _ -> 2
  | Or _ -> 3
  | And _ -> 4
  | _ -> 5

and to_buf buf level f =
  let open Printf in
  let paren needed body =
    if needed then Buffer.add_char buf '(';
    body ();
    if needed then Buffer.add_char buf ')'
  in
  let p = prec f in
  match f with
  | True -> Buffer.add_string buf "true"
  | False -> Buffer.add_string buf "false"
  | Atom s -> Buffer.add_string buf s
  | Not g ->
    Buffer.add_string buf "!";
    to_buf buf 5 g
  | And (a, b) ->
    paren (p < level) (fun () ->
        to_buf buf 4 a;
        Buffer.add_string buf " & ";
        to_buf buf 5 b)
  | Or (a, b) ->
    paren (p < level) (fun () ->
        to_buf buf 3 a;
        Buffer.add_string buf " | ";
        to_buf buf 4 b)
  | Implies (a, b) ->
    (* right associative *)
    paren (p < level) (fun () ->
        to_buf buf 3 a;
        Buffer.add_string buf " -> ";
        to_buf buf 2 b)
  | Iff (a, b) ->
    paren (p < level) (fun () ->
        to_buf buf 2 a;
        Buffer.add_string buf " <-> ";
        to_buf buf 1 b)
  | Knows (i, g) ->
    Buffer.add_string buf (sprintf "K[%d] " i);
    to_buf buf 5 g
  | Believes (i, c, q, g) ->
    Buffer.add_string buf (sprintf "B[%d]%s%s " i (cmp_to_string c) (Q.to_string q));
    to_buf buf 5 g
  | Does (i, act) -> Buffer.add_string buf (sprintf "does[%d](%s)" i act)
  | Eventually g ->
    Buffer.add_string buf "F ";
    to_buf buf 5 g
  | Globally g ->
    Buffer.add_string buf "G ";
    to_buf buf 5 g
  | Next g ->
    Buffer.add_string buf "X ";
    to_buf buf 5 g
  | Once g ->
    Buffer.add_string buf "P ";
    to_buf buf 5 g
  | Historically g ->
    Buffer.add_string buf "H ";
    to_buf buf 5 g
  | EveryoneKnows (grp, g) ->
    Buffer.add_string buf (sprintf "E[%s] " (group_to_string grp));
    to_buf buf 5 g
  | CommonKnows (grp, g) ->
    Buffer.add_string buf (sprintf "C[%s] " (group_to_string grp));
    to_buf buf 5 g
  | EveryoneBelieves (grp, q, g) ->
    Buffer.add_string buf (sprintf "EB[%s]>=%s " (group_to_string grp) (Q.to_string q));
    to_buf buf 5 g
  | CommonBelief (grp, q, g) ->
    Buffer.add_string buf (sprintf "CB[%s]>=%s " (group_to_string grp) (Q.to_string q));
    to_buf buf 5 g

let to_string f =
  let buf = Buffer.create 64 in
  to_buf buf 0 f;
  Buffer.contents buf

let pp fmt f = Format.pp_print_string fmt (to_string f)
