open Pak_rational

module Obs = Pak_obs.Obs
module Error = Pak_guard.Error
module Budget = Pak_guard.Budget

let c_measure_calls = Obs.counter "tree.measure_calls"
let c_measure_runs = Obs.counter "tree.measure_runs"
let c_points_visited = Obs.counter "tree.points_visited"
let c_node_lookups = Obs.counter "tree.node_lookups"

(* Nodes store their incoming edge (probability and joint action), so a
   finalized tree is a flat array. Runs are enumerated at finalize time
   as root-to-leaf node paths, and local states are indexed into events
   (bitsets of run indices) keyed by (agent, time, label). *)

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
  id : int;
  n_agents : int;
  nodes : node array;
  runs : run array;
  n_points : int;
  run_first : int array; (* dense index of each run's time-0 point *)
  lstate_index : (lkey, Bitset.t) Hashtbl.t;
  node_runs : Bitset.t array; (* runs passing through each node *)
  denom : int; (* D, the lcm of the run-measure denominators; 0 if D >= 2^61 *)
  weights : int array; (* µ(r)·D per run when denom > 0, else [||] *)
}

(* Integer run weights. With D < 2^61 every run measure is
   weights.(r)/D, and since the measures sum to one every subset sum of
   weights is at most D, so a measure is an int sum and one division.
   Trees whose D does not fit fall back to summing the Q measures. *)
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
        | _ -> assert false (* both below D, which fits *))
      runs

let next_id = ref 0

module Builder = struct
  type tree = t

  type t = {
    b_n_agents : int;
    mutable b_nodes : node array; (* growable; first b_count slots live *)
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
    (* A joint action tuple determines a unique successor (Section 2.2). *)
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
    (* Edge probabilities must sum to one at the root and at every
       internal node. *)
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
    (* Enumerate runs: depth-first, [path] holding the nodes from the
       root down to the current one. The runs through a node are
       therefore the interval [first.(id), last.(id)] of run indices. *)
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
    (* Points get dense indices run by run: (r, t) is run_first.(r) + t. *)
    let run_first = Array.make n_runs 0 and n_points = ref 0 in
    Array.iteri
      (fun r (run : run) ->
        run_first.(r) <- !n_points;
        n_points := !n_points + Array.length run.nodes)
      runs;
    let n_points = !n_points in
    (* The local-state index covers every point once; charge them all. *)
    Budget.charge_points n_points;
    (* Index: node -> event of runs passing through it; and local state
       -> event of runs in which it occurs, the union of the intervals
       of the nodes carrying it, grouped per key and packed once. *)
    let node_runs =
      Array.init b.b_count (fun id -> Bitset.of_ranges n_runs [ (first.(id), last.(id)) ])
    in
    let lstate_ranges = Hashtbl.create 64 in
    Array.iteri
      (fun id n ->
        for agent = 0 to b.b_n_agents - 1 do
          let key = { agent; time = n.depth; label = Gstate.local n.state agent } in
          let prev = Option.value ~default:[] (Hashtbl.find_opt lstate_ranges key) in
          Hashtbl.replace lstate_ranges key ((first.(id), last.(id)) :: prev)
        done)
      nodes;
    let lstate_index = Hashtbl.create (Hashtbl.length lstate_ranges) in
    Hashtbl.iter
      (fun key ranges -> Hashtbl.add lstate_index key (Bitset.of_ranges n_runs ranges))
      lstate_ranges;
    let denom = common_denominator runs in
    incr next_id;
    { id = !next_id;
      n_agents = b.b_n_agents;
      nodes;
      runs;
      n_points;
      run_first;
      lstate_index;
      node_runs;
      denom;
      weights = run_weights denom runs
    }
end

let tree_id t = t.id
let n_agents t = t.n_agents
let n_nodes t = Array.length t.nodes
let n_runs t = Array.length t.runs
let n_points t = t.n_points

let check_node t id name =
  if id < 0 || id >= Array.length t.nodes then invalid_arg (name ^ ": unknown node id")

let check_run t r name =
  if r < 0 || r >= Array.length t.runs then invalid_arg (name ^ ": unknown run index")

let node_state t id = check_node t id "Tree.node_state"; t.nodes.(id).state
let node_depth t id = check_node t id "Tree.node_depth"; t.nodes.(id).depth

let node_parent t id =
  check_node t id "Tree.node_parent";
  match t.nodes.(id).parent with -1 -> None | p -> Some p

let node_children t id =
  check_node t id "Tree.node_children";
  List.map
    (fun c -> (t.nodes.(c).in_prob, t.nodes.(c).in_acts, c))
    t.nodes.(id).children

let initial_nodes t =
  Array.to_list t.nodes
  |> List.mapi (fun id n -> (id, n))
  |> List.filter_map (fun (id, n) -> if n.parent = -1 then Some (n.in_prob, id) else None)

let run_length t r = check_run t r "Tree.run_length"; Array.length t.runs.(r).nodes
let run_offset t r = check_run t r "Tree.run_offset"; t.run_first.(r)
let run_measure t r = check_run t r "Tree.run_measure"; t.runs.(r).meas

let run_node t ~run ~time =
  Obs.incr c_node_lookups;
  check_run t run "Tree.run_node";
  let nodes = t.runs.(run).nodes in
  if time < 0 || time >= Array.length nodes then
    invalid_arg "Tree.run_node: time out of range for run";
  nodes.(time)

let runs_agree_upto t r1 r2 ~time =
  check_run t r1 "Tree.runs_agree_upto";
  check_run t r2 "Tree.runs_agree_upto";
  let n1 = t.runs.(r1).nodes and n2 = t.runs.(r2).nodes in
  time < Array.length n1 && time < Array.length n2 && n1.(time) = n2.(time)

let iter_points t f =
  Obs.add c_points_visited t.n_points;
  Budget.charge_points t.n_points;
  Array.iteri
    (fun run (r : run) ->
      for time = 0 to Array.length r.nodes - 1 do
        f ~run ~time
      done)
    t.runs

let fold_points t ~init ~f =
  let acc = ref init in
  iter_points t (fun ~run ~time -> acc := f !acc ~run ~time);
  !acc

let weight_denominator t = if t.denom > 0 then Some t.denom else None

let all_runs t = Bitset.full (Array.length t.runs)
let empty_event t = Bitset.create (Array.length t.runs)

(* The checks, counters and budget charge of one measure. *)
let account t ev =
  if Bitset.capacity ev <> Array.length t.runs then
    invalid_arg "Tree.measure: event capacity does not match run count";
  Obs.incr c_measure_calls;
  if !Obs.on || !Budget.active then begin
    let card = Bitset.cardinal ev in
    if !Obs.on then Obs.add c_measure_runs card;
    if !Budget.active then Budget.charge_points card
  end

(* µ(ev)·D on an integer-weight tree. *)
let weight t ev = account t ev; Bitset.weighted_sum ev t.weights

let measure t ev =
  if t.denom > 0 then Q.of_ints (weight t ev) t.denom
  else begin
    account t ev;
    Bitset.fold (fun r acc -> Q.add acc t.runs.(r).meas) ev Q.zero
  end

let zero_condition () =
  raise (Error.Division_by_zero "Tree.cond: conditioning event has measure zero")

let cond t a ~given =
  if t.denom > 0 then begin
    let wb = weight t given in
    if wb = 0 then zero_condition ();
    Q.of_ints (weight t (Bitset.inter a given)) wb
  end
  else begin
    let mb = measure t given in
    if Q.is_zero mb then zero_condition ();
    Q.div (measure t (Bitset.inter a given)) mb
  end

let lkey t ~agent ~run ~time =
  if agent < 0 || agent >= t.n_agents then invalid_arg "Tree.lkey: agent out of range";
  let node = run_node t ~run ~time in
  { agent; time; label = Gstate.local t.nodes.(node).state agent }

let lkey_make ~agent ~time ~label = { agent; time; label }
let lkey_agent k = k.agent
let lkey_time k = k.time
let lkey_label k = k.label
let lkey_equal a b = a = b

let pp_lkey fmt k = Format.fprintf fmt "agent %d @@ t=%d: %s" k.agent k.time k.label

let lstate_runs t key =
  match Hashtbl.find_opt t.lstate_index key with
  | Some s -> s
  | None -> empty_event t

let lstates t ~agent =
  Hashtbl.fold (fun k _ acc -> if k.agent = agent then k :: acc else acc) t.lstate_index []
  |> List.sort compare

let action_at t ~agent ~run ~time =
  if agent < 0 || agent >= t.n_agents then invalid_arg "Tree.action_at: agent out of range";
  check_run t run "Tree.action_at";
  let nodes = t.runs.(run).nodes in
  if time < 0 || time >= Array.length nodes then
    invalid_arg "Tree.action_at: time out of range for run";
  if time = Array.length nodes - 1 then None
  else Some t.nodes.(nodes.(time + 1)).in_acts.(agent + 1)

let env_action_at t ~run ~time =
  check_run t run "Tree.env_action_at";
  let nodes = t.runs.(run).nodes in
  if time < 0 || time >= Array.length nodes then
    invalid_arg "Tree.env_action_at: time out of range for run";
  if time = Array.length nodes - 1 then None else Some t.nodes.(nodes.(time + 1)).in_acts.(0)

let agent_actions t ~agent =
  if agent < 0 || agent >= t.n_agents then invalid_arg "Tree.agent_actions: agent out of range";
  let acc = Hashtbl.create 16 in
  Array.iter
    (fun n -> if Array.length n.in_acts > 0 then Hashtbl.replace acc n.in_acts.(agent + 1) ())
    t.nodes;
  Hashtbl.fold (fun a () l -> a :: l) acc [] |> List.sort String.compare

let check_protocol_consistency t =
  (* Per-node conditional action distribution for an agent: sum of
     outgoing edge probabilities by the agent's action label; [None] at
     leaves (no action performed). *)
  let node_dist node agent =
    match t.nodes.(node).children with
    | [] -> None
    | children ->
      let acc = Hashtbl.create 4 in
      List.iter
        (fun c ->
          let child = t.nodes.(c) in
          let a = child.in_acts.(agent + 1) in
          let prev = match Hashtbl.find_opt acc a with Some q -> q | None -> Q.zero in
          Hashtbl.replace acc a (Q.add prev child.in_prob))
        children;
      Some (Hashtbl.fold (fun a q l -> (a, q) :: l) acc [] |> List.sort compare)
  in
  (* Nodes grouped by (agent, lkey). *)
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun id n ->
      for agent = 0 to t.n_agents - 1 do
        let key = { agent; time = n.depth; label = Gstate.local n.state agent } in
        let prev = match Hashtbl.find_opt groups key with Some l -> l | None -> [] in
        Hashtbl.replace groups key (id :: prev)
      done)
    t.nodes;
  let violations = ref [] in
  Hashtbl.iter
    (fun key nodes ->
      let agent = key.agent in
      match List.map (fun id -> node_dist id agent) nodes with
      | [] | [ _ ] -> ()
      | first :: rest ->
        List.iter
          (fun d ->
            if d <> first then begin
              (* Name one action on which they differ, or <none> when a
                 final point mixes with non-final ones. *)
              let offending =
                match (first, d) with
                | Some xs, Some ys ->
                  let labels = List.sort_uniq compare (List.map fst (xs @ ys)) in
                  (try
                     List.find
                       (fun a -> List.assoc_opt a xs <> List.assoc_opt a ys)
                       labels
                   with Not_found -> "<none>")
                | _ -> "<none>"
              in
              if
                not
                  (List.exists
                     (fun (ag, k, a) -> ag = agent && k = key && a = offending)
                     !violations)
              then violations := (agent, key, offending) :: !violations
            end)
          rest)
    groups;
  List.sort compare !violations

let check_labels_synchronous t =
  (* Report (agent, label) pairs appearing at more than one depth. *)
  let seen = Hashtbl.create 64 in
  let offenders = Hashtbl.create 8 in
  Hashtbl.iter
    (fun k _ ->
      match Hashtbl.find_opt seen (k.agent, k.label) with
      | Some time when time <> k.time -> Hashtbl.replace offenders (k.agent, k.label) ()
      | Some _ -> ()
      | None -> Hashtbl.add seen (k.agent, k.label) k.time)
    t.lstate_index;
  Hashtbl.fold (fun k () acc -> k :: acc) offenders [] |> List.sort compare

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph pps {\n  rankdir=TB;\n  lambda [label=\"λ\", shape=point];\n";
  Array.iteri
    (fun id n ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\nt=%d\", shape=box];\n" id
           (String.concat "|" (n.state.Gstate.env :: Array.to_list n.state.Gstate.locals))
           n.depth))
    t.nodes;
  Array.iteri
    (fun id n ->
      let src = if n.parent = -1 then "lambda" else Printf.sprintf "n%d" n.parent in
      let acts =
        if Array.length n.in_acts = 0 then ""
        else "\\n" ^ String.concat "," (Array.to_list n.in_acts)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s -> n%d [label=\"%s%s\"];\n" src id (Q.to_string n.in_prob) acts))
    t.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Used by the node-constancy test for past-based facts. *)
let node_runs t id = check_node t id "Tree.node_runs"; t.node_runs.(id)
