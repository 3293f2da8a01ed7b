(* Subformula closure with deterministic bit positions. Bits are
   assigned by a left-to-right depth-first post-order walk, so the
   assignment is a pure function of the formula: children always get
   smaller bits than their parents, the first occurrence of a repeated
   subformula fixes its bit, and the root ends up last. Hash-consing
   uses structural equality on Formula.t, so "one distinct
   subformula" means one structurally distinct formula. *)

module Obs = Pak_obs.Obs
module Q = Pak_rational.Q

let c_builds = Obs.counter "closure.builds"
let c_entries = Obs.counter "closure.entries"

type entry = { bit : int; formula : Formula.t; children : int array }

type t = {
  root : int;
  table : entry array;
  index : (Formula.t, int) Hashtbl.t;
  duplicates : int;
}

let of_formula formula =
  Obs.span "closure.build" @@ fun () ->
  Obs.incr c_builds;
  let index : (Formula.t, int) Hashtbl.t = Hashtbl.create 64 in
  let rev_entries = ref [] in
  let count = ref 0 in
  let dups = ref 0 in
  let rec go (f : Formula.t) =
    match Hashtbl.find_opt index f with
    | Some bit ->
      incr dups;
      bit
    | None ->
      let children =
        match f with
        | True | False | Atom _ | Does _ -> [||]
        | Not g | Eventually g | Globally g | Next g | Once g | Historically g
        | Knows (_, g)
        | Believes (_, _, _, g)
        | EveryoneKnows (_, g)
        | CommonKnows (_, g)
        | EveryoneBelieves (_, _, g)
        | CommonBelief (_, _, g) ->
          [| go g |]
        | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) ->
          (* Explicit lets: array-literal evaluation order is
             unspecified, and the left child must be visited first for
             the bit order to be deterministic. *)
          let ba = go a in
          let bb = go b in
          [| ba; bb |]
      in
      let bit = !count in
      incr count;
      Hashtbl.add index f bit;
      rev_entries := { bit; formula = f; children } :: !rev_entries;
      Obs.incr c_entries;
      bit
  in
  let root = go formula in
  { root; table = Array.of_list (List.rev !rev_entries); index; duplicates = !dups }

let size t = Array.length t.table
let root_bit t = t.root
let entries t = t.table

let entry t bit =
  if bit < 0 || bit >= Array.length t.table then
    invalid_arg (Printf.sprintf "Closure.entry: bit %d out of range" bit);
  t.table.(bit)

let bit_of t f = Hashtbl.find_opt t.index f
let duplicates t = t.duplicates

(* An entry renders its operator, its own data and its children's bits,
   not its subformulas' text (the bits name those), so the digest costs
   time linear in the closure. The own data is length-prefixed. *)
let render_entry buf (e : entry) =
  let ints l = String.concat "," (List.map string_of_int l) and q = Q.to_string in
  let own =
    match e.formula with
    | Atom s -> s
    | Does (i, act) -> ints [ i ] ^ "," ^ act
    | Knows (i, _) -> ints [ i ]
    | Believes (i, c, v, _) -> ints [ i ] ^ Formula.cmp_to_string c ^ q v
    | EveryoneKnows (g, _) | CommonKnows (g, _) -> ints g
    | EveryoneBelieves (g, v, _) | CommonBelief (g, v, _) -> ints g ^ ">=" ^ q v
    | _ -> ""
  in
  Printf.bprintf buf "%d|%s|%d:%s|%s\n" e.bit (Formula.op_tag e.formula) (String.length own) own
    (ints (Array.to_list e.children))

let digest t =
  let buf = Buffer.create 256 in
  Array.iter (render_entry buf) t.table;
  Digest.to_hex (Digest.string (Buffer.contents buf))
