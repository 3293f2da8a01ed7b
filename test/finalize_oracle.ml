(* [Tree.Builder] as it was before [finalize] worked on ints: every edge
   check a [Q] sum, every run measure a [Q] product kept per run, every
   run path its own array, every node's runs a bitset, and the
   local-state index a polymorphic hash table. The tests feed the same
   builder calls to [Tree.Builder] and to this builder and require the
   same runs, points, intervals, local states, measures and weights, or
   the same exception. *)

open Pak_rational
open Pak_pps
module Budget = Pak_guard.Budget

type node = {
  depth : int;
  state : Gstate.t;
  parent : int; (* -1 for initial states *)
  in_prob : Q.t;
  in_acts : string array; (* [||] for initial states *)
  mutable children : int list; (* in insertion order after finalize *)
}

type run = { nodes : int array; meas : Q.t }
type lkey = { agent : int; time : int; label : string }

type t = {
  n_agents : int;
  nodes : node array;
  runs : run array;
  n_points : int;
  run_first : int array;
  lstate_index : (lkey, Bitset.t) Hashtbl.t;
  node_runs : Bitset.t array;
  denom : int;
  weights : int array;
}

let weight_bound = 1 lsl 61

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let common_denominator (runs : run array) =
  Array.fold_left
    (fun d (r : run) ->
      match Bignat.to_int_opt (Q.den r.meas) with
      | Some rd when d > 0 && rd < weight_bound ->
        let m = rd / gcd_int d rd in
        if d > (weight_bound - 1) / m then 0 else d * m
      | _ -> 0)
    1 runs

let run_weights denom (runs : run array) =
  if denom = 0 then [||]
  else
    Array.map
      (fun (r : run) ->
        match (Bigint.to_int_opt (Q.num r.meas), Bignat.to_int_opt (Q.den r.meas)) with
        | Some n, Some d -> n * (denom / d)
        | _ -> assert false)
      runs

let of_ranges n ranges = Bitset.build_ranges n (fun add -> List.iter (fun (lo, hi) -> add lo hi) ranges)

module Builder = struct
  type tree = t

  type t = {
    b_n_agents : int;
    mutable b_nodes : node array;
    mutable b_count : int;
  }

  let dummy_node =
    { depth = 0; state = Gstate.make ~env:"" ~locals:[ "" ]; parent = -1;
      in_prob = Q.one; in_acts = [||]; children = [] }

  let create ~n_agents =
    if n_agents < 1 then invalid_arg "Tree.Builder.create: need at least one agent";
    { b_n_agents = n_agents; b_nodes = Array.make 16 dummy_node; b_count = 0 }

  let check_prob prob =
    if not (Q.gt prob Q.zero && Q.leq prob Q.one) then
      invalid_arg "Tree.Builder: edge probability must be in (0,1]"

  let check_state b state =
    if Gstate.n_agents state <> b.b_n_agents then
      invalid_arg "Tree.Builder: global state has wrong number of agents"

  let push b node =
    Budget.charge_nodes 1;
    if b.b_count = Array.length b.b_nodes then begin
      let bigger = Array.make (2 * b.b_count) dummy_node in
      Array.blit b.b_nodes 0 bigger 0 b.b_count;
      b.b_nodes <- bigger
    end;
    b.b_nodes.(b.b_count) <- node;
    b.b_count <- b.b_count + 1;
    b.b_count - 1

  let nth_node b id =
    if id < 0 || id >= b.b_count then invalid_arg "Tree.Builder: unknown node id";
    b.b_nodes.(id)

  let add_initial b ~prob state =
    check_prob prob;
    check_state b state;
    push b { depth = 0; state; parent = -1; in_prob = prob; in_acts = [||]; children = [] }

  let add_child b ~parent ~prob ~acts state =
    check_prob prob;
    check_state b state;
    if Array.length acts <> b.b_n_agents + 1 then
      invalid_arg "Tree.Builder.add_child: acts must have length n_agents + 1";
    let parent_node = nth_node b parent in
    List.iter
      (fun child_id ->
        let child = nth_node b child_id in
        if child.in_acts = acts then
          invalid_arg "Tree.Builder.add_child: duplicate joint action at this node")
      parent_node.children;
    let id =
      push b
        { depth = parent_node.depth + 1; state; parent; in_prob = prob; in_acts = acts;
          children = [] }
    in
    parent_node.children <- id :: parent_node.children;
    id

  let finalize b : tree =
    if b.b_count = 0 then invalid_arg "Tree.finalize: no initial states";
    let nodes = Array.sub b.b_nodes 0 b.b_count in
    Array.iter (fun n -> n.children <- List.rev n.children) nodes;
    let initial_mass = ref Q.zero in
    Array.iter (fun n -> if n.parent = -1 then initial_mass := Q.add !initial_mass n.in_prob) nodes;
    if not (Q.equal !initial_mass Q.one) then
      invalid_arg
        (Format.asprintf "Tree.finalize: initial probabilities sum to %a, not 1" Q.pp
           !initial_mass);
    Array.iteri
      (fun id n ->
        match n.children with
        | [] -> ()
        | children ->
          let mass = List.fold_left (fun m c -> Q.add m nodes.(c).in_prob) Q.zero children in
          if not (Q.equal mass Q.one) then
            invalid_arg
              (Format.asprintf
                 "Tree.finalize: node %d edge probabilities sum to %a, not 1" id Q.pp mass))
      nodes;
    let runs = ref [] and n_runs = ref 0 in
    let first = Array.make b.b_count 0 and last = Array.make b.b_count 0 in
    let path = Array.make (1 + Array.fold_left (fun d n -> max d n.depth) 0 nodes) 0 in
    let rec descend meas id =
      let n = nodes.(id) in
      path.(n.depth) <- id;
      let meas = Q.mul meas n.in_prob in
      first.(id) <- !n_runs;
      (match n.children with
       | [] ->
         runs := ({ nodes = Array.sub path 0 (n.depth + 1); meas } : run) :: !runs;
         incr n_runs
       | children -> List.iter (descend meas) children);
      last.(id) <- !n_runs - 1
    in
    Array.iteri (fun id n -> if n.parent = -1 then descend Q.one id) nodes;
    let runs = Array.of_list (List.rev !runs) in
    let n_runs = Array.length runs in
    let run_first = Array.make n_runs 0 and n_points = ref 0 in
    Array.iteri
      (fun r (run : run) ->
        run_first.(r) <- !n_points;
        n_points := !n_points + Array.length run.nodes)
      runs;
    let n_points = !n_points in
    Budget.charge_points n_points;
    let node_runs = Array.init b.b_count (fun id -> of_ranges n_runs [ (first.(id), last.(id)) ]) in
    let lstate_ranges = Hashtbl.create 64 in
    Array.iteri
      (fun id n ->
        for agent = 0 to b.b_n_agents - 1 do
          let key = { agent; time = n.depth; label = Gstate.local n.state agent } in
          let range = (first.(id), last.(id)) in
          match Hashtbl.find_opt lstate_ranges key with
          | Some ranges -> ranges := range :: !ranges
          | None -> Hashtbl.add lstate_ranges key (ref [ range ])
        done)
      nodes;
    let lstate_index = Hashtbl.create (Hashtbl.length lstate_ranges) in
    Hashtbl.iter
      (fun key ranges -> Hashtbl.add lstate_index key (of_ranges n_runs !ranges))
      lstate_ranges;
    let denom = common_denominator runs in
    { n_agents = b.b_n_agents; nodes; runs; n_points; run_first; lstate_index; node_runs; denom;
      weights = run_weights denom runs }
end

(* ------------------------------------------------------------------ *)
(* Builder calls, replayed into either builder                         *)
(* ------------------------------------------------------------------ *)

type op =
  | Initial of Q.t * Gstate.t
  | Child of int * Q.t * string array * Gstate.t

type spec = { n_agents : int; ops : op list }

(* The calls that build [tree], in node id order. *)
let spec_of_tree tree =
  { n_agents = Tree.n_agents tree;
    ops =
      List.init (Tree.n_nodes tree) (fun id ->
          let prob = Tree.node_prob tree id and state = Tree.node_state tree id in
          match Tree.node_parent tree id with
          | None -> Initial (prob, state)
          | Some parent -> Child (parent, prob, Tree.node_acts tree id, state))
  }

let outcome f = match f () with v -> Ok v | exception e -> Error e

let build_tree spec =
  outcome (fun () ->
      let b = Tree.Builder.create ~n_agents:spec.n_agents in
      List.iter
        (function
          | Initial (prob, state) -> ignore (Tree.Builder.add_initial b ~prob state)
          | Child (parent, prob, acts, state) ->
            ignore (Tree.Builder.add_child b ~parent ~prob ~acts state))
        spec.ops;
      Tree.Builder.finalize b)

let build_oracle spec =
  outcome (fun () ->
      let b = Builder.create ~n_agents:spec.n_agents in
      List.iter
        (function
          | Initial (prob, state) -> ignore (Builder.add_initial b ~prob state)
          | Child (parent, prob, acts, state) -> ignore (Builder.add_child b ~parent ~prob ~acts state))
        spec.ops;
      Builder.finalize b)

(* The spec as a pps document, in [Tree_io.to_string]'s layout. *)
let document spec =
  let buf = Buffer.create 1024 in
  let quoted l =
    let b = Buffer.create (String.length l + 2) in
    Buffer.add_char b '"';
    String.iter
      (function '"' | '\\' as c -> Buffer.add_char b '\\'; Buffer.add_char b c | c -> Buffer.add_char b c)
      l;
    Buffer.add_char b '"';
    Buffer.contents b
  in
  let labels ls = String.concat "" (List.map (fun l -> " " ^ quoted l) (Array.to_list ls)) in
  Printf.bprintf buf "(pps (agents %d)\n" spec.n_agents;
  List.iter
    (fun op ->
      let parent, prob, acts, (state : Gstate.t) =
        match op with
        | Initial (prob, state) -> (-1, prob, [||], state)
        | Child (parent, prob, acts, state) -> (parent, prob, acts, state)
      in
      Printf.bprintf buf "  (node (parent %d) (prob %s) (acts%s) (env %s) (locals%s))\n" parent
        (Q.to_string prob) (labels acts) (quoted state.env) (labels state.locals))
    spec.ops;
  Buffer.add_string buf ")\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(* The first difference between the tree and the oracle's, if any. *)
let difference tree (o : t) =
  let fail fmt = Printf.ksprintf (fun s -> Some s) fmt in
  let n_runs = Array.length o.runs in
  let rec runs r =
    if r = n_runs then None
    else
      let run = o.runs.(r) in
      let len = Array.length run.nodes in
      if Tree.run_length tree r <> len then fail "run %d length" r
      else if Tree.run_offset tree r <> o.run_first.(r) then fail "run %d offset" r
      else if
        not (List.for_all (fun time -> Tree.run_node tree ~run:r ~time = run.nodes.(time))
               (List.init len Fun.id))
      then fail "run %d nodes" r
      else if not (Q.equal (Tree.run_measure tree r) run.meas) then fail "run %d measure" r
      else if not (Q.equal (Tree.measure tree (Bitset.singleton n_runs r)) run.meas) then
        fail "run %d weight" r
      else runs (r + 1)
  in
  let rec nodes id =
    if id = Array.length o.nodes then None
    else
      let expected = Bitset.to_list o.node_runs.(id) in
      let lo = Tree.node_first_run tree id and hi = Tree.node_last_run tree id in
      if expected <> List.init (hi - lo + 1) (fun k -> lo + k) then fail "node %d interval" id
      else if not (Bitset.equal (Tree.node_runs tree id) o.node_runs.(id)) then
        fail "node %d runs" id
      else nodes (id + 1)
  in
  let lstates agent =
    let expected =
      Hashtbl.fold (fun k _ acc -> if k.agent = agent then k :: acc else acc) o.lstate_index []
      |> List.sort compare
    in
    let got = Tree.lstates tree ~agent in
    List.map (fun k -> (k.time, k.label)) expected
    = List.map (fun k -> (Tree.lkey_time k, Tree.lkey_label k)) got
    && List.for_all2
         (fun k lk -> Bitset.equal (Hashtbl.find o.lstate_index k) (Tree.lstate_runs tree lk))
         expected got
  in
  let all = Bitset.full n_runs in
  let every_other = Bitset.init n_runs (fun r -> r mod 2 = 0) in
  let q_sum ev = Bitset.fold (fun r acc -> Q.add acc o.runs.(r).meas) ev Q.zero in
  if Tree.n_agents tree <> o.n_agents then fail "n_agents"
  else if Tree.n_nodes tree <> Array.length o.nodes then fail "n_nodes"
  else if Tree.n_runs tree <> n_runs then fail "n_runs"
  else if Tree.n_points tree <> o.n_points then fail "n_points"
  else if Tree.weight_denominator tree <> (if o.denom > 0 then Some o.denom else None) then
    fail "weight_denominator"
  else if not (Q.equal (Tree.measure tree all) (q_sum all)) then fail "measure of all runs"
  else if not (Q.equal (Tree.measure tree every_other) (q_sum every_other)) then
    fail "measure of the even runs"
  else
    match runs 0 with
    | Some _ as d -> d
    | None -> (
      match nodes 0 with
      | Some _ as d -> d
      | None ->
        List.find_map
          (fun agent -> if lstates agent then None else fail "lstates of agent %d" agent)
          (List.init o.n_agents Fun.id))

(* [None] when both builders agree on [spec]: the same tree, or the
   same exception and message. *)
let compare_spec spec =
  match (build_tree spec, build_oracle spec) with
  | Ok tree, Ok o -> difference tree o
  | Error e, Error e' ->
    let e = Printexc.to_string e and e' = Printexc.to_string e' in
    if String.equal e e' then None else Some (Printf.sprintf "exceptions differ: %s vs %s" e e')
  | Ok _, Error e -> Some ("only the oracle raised: " ^ Printexc.to_string e)
  | Error e, Ok _ -> Some ("only the new builder raised: " ^ Printexc.to_string e)
