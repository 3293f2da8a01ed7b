open Pak_rational

module Obs = Pak_obs.Obs
module Error = Pak_guard.Error
module Budget = Pak_guard.Budget

let c_measure_calls = Obs.counter "tree.measure_calls"
let c_measure_runs = Obs.counter "tree.measure_runs"
let c_points_visited = Obs.counter "tree.points_visited"
let c_node_lookups = Obs.counter "tree.node_lookups"

(* Nodes store their incoming edge (probability and joint action), so a
   finalized tree is a flat array. A node's children form a list
   threaded through [first_child] and [next_sibling] in insertion
   order; the initial states form one more such list. Runs are
   enumerated at finalize time depth-first, so the runs through a node
   are an interval of run indices, and the points of all runs sit in
   one flat point -> node array. *)

type node = {
  depth : int;
  state : Gstate.t;
  parent : int; (* -1 for initial states *)
  in_prob : Q.t;
  in_acts : string array; (* [||] for initial states *)
}

type lkey = { agent : int; time : int; label : string }

type t = {
  id : int;
  n_agents : int;
  nodes : node array;
  first_child : int array; (* -1 at leaves *)
  next_sibling : int array; (* -1 after the last child *)
  first_initial : int;
  n_runs : int;
  run_first : int array; (* n_runs + 1 offsets: run r's points end before run_first.(r+1) *)
  point_node : int array; (* the node at each point *)
  first : int array; (* the runs through node id are first.(id) .. last.(id) *)
  last : int array;
  lkeys : lkey array; (* every local state, one per (agent, time, label) met *)
  lruns : Bitset.t array; (* the runs in which each occurs *)
  lslots : int array; (* open addressing over lkeys: 1 + index, 0 when free *)
  denom : int; (* D, the lcm of the run-measure denominators; 0 if D >= 2^61 *)
  weights : int array; (* µ(r)·D per run when denom > 0, else [||] *)
  meas : Q.t array; (* µ(r) per run when the Q walk computed them, else [||] *)
}

(* Integer run weights. With D < 2^61 every run measure is
   weights.(r)/D, and since the measures sum to one every subset sum of
   weights is at most D, so a measure is an int sum and one division.
   Trees whose D does not fit fall back to summing the Q measures. *)
let weight_bound = 1 lsl 61

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* ------------------------------------------------------------------ *)
(* Finalize on ints                                                    *)
(* ------------------------------------------------------------------ *)

(* An edge probability's parts are read with [Q.small_num] and
   [Q.small_den], which allocate nothing and give 0 when a part is
   2^30 or more; such an edge sends its check to [Q]. *)

(* Whether the probabilities on the sibling list from [c] sum to one:
   1 if they do, 0 if not, -1 if the sum left the int range. [s/l] is
   the sum so far over [l], the lcm of the denominators so far, kept
   below 2^31 so that no product below overflows. A partial sum above
   one already decides: every probability is positive. *)
let mass_bound = 1 lsl 31

let rec sums_to_one nodes next c s l =
  if c < 0 then if s = l then 1 else 0
  else
    let p = nodes.(c).in_prob in
    let n = Q.small_num p and d = Q.small_den p in
    if n <= 0 || d <= 0 then -1
    else
      let g = gcd_int l d in
      let l' = l * (d / g) in
      if l' >= mass_bound then -1
      else
        let s' = (s * (d / g)) + (n * (l / g)) in
        if s' > l' then 0 else sums_to_one nodes next next.(c) s' l'

let rec q_mass nodes next c acc =
  if c < 0 then acc else q_mass nodes next next.(c) (Q.add acc nodes.(c).in_prob)

let mass_error id mass =
  invalid_arg
    (if id < 0 then
       Format.asprintf "Tree.finalize: initial probabilities sum to %a, not 1" Q.pp mass
     else
       Format.asprintf "Tree.finalize: node %d edge probabilities sum to %a, not 1" id Q.pp
         mass)

(* The edge check of node [id] (-1 for the root), whose children start
   at [c]; the message always prints the exact [Q] sum. *)
let check_mass nodes next id c =
  match sums_to_one nodes next c 0 1 with
  | 1 -> ()
  | 0 -> mass_error id (q_mass nodes next c Q.zero)
  | _ ->
    let mass = q_mass nodes next c Q.zero in
    if not (Q.equal mass Q.one) then mass_error id mass

(* [mn/md · p] for an edge probability [p], in lowest terms: each
   factor is reduced against the other's denominator first, so each
   gcd has an edge part (below 2^30) as one operand and the product
   needs no gcd of its own. [out.(0)/out.(1)] receives it; [out.(1)]
   is 0 when the product does not fit, or already did not ([md = 0]),
   or [p] has a large part. The numerator is at most the denominator,
   so it fits whenever the denominator does. *)
let mul_frac out mn md p =
  let pn = Q.small_num p and pd = Q.small_den p in
  if md <= 0 || pn <= 0 || pd <= 0 then out.(1) <- 0
  else begin
    let g1 = gcd_int pd (mn mod pd) and g2 = gcd_int pn (md mod pn) in
    let dl = md / g2 and dr = pd / g1 in
    if dl < 1 lsl 32 || dl <= max_int / dr then begin
      out.(0) <- mn / g1 * (pn / g2);
      out.(1) <- dl * dr
    end
    else out.(1) <- 0
  end

(* The lcm fold of the run denominators: 0 as soon as the next step
   would reach 2^61 or a denominator does not fit (0 stands for that
   too). *)
let lcm_step d rd =
  if d > 0 && rd > 0 && rd < weight_bound then
    let m = rd / gcd_int d rd in
    if d > (weight_bound - 1) / m then 0 else d * m
  else 0

(* ------------------------------------------------------------------ *)
(* The Q fallback: run measures as exact products                      *)
(* ------------------------------------------------------------------ *)

let q_measures nodes first_child next first_initial n_runs =
  let meas = Array.make n_runs Q.zero and r = ref 0 in
  let rec descend m id =
    let m = Q.mul m nodes.(id).in_prob in
    if first_child.(id) < 0 then begin
      meas.(!r) <- m;
      incr r
    end
    else siblings m first_child.(id)
  and siblings m c =
    if c >= 0 then begin
      descend m c;
      siblings m next.(c)
    end
  in
  siblings Q.one first_initial;
  meas

let q_denominator meas =
  Array.fold_left
    (fun d m ->
      match Q.small_den m with
      | 0 -> (match Bignat.to_int_opt (Q.den m) with Some rd -> lcm_step d rd | None -> 0)
      | rd -> lcm_step d rd)
    1 meas

let q_weights denom meas =
  if denom = 0 then [||]
  else
    Array.map
      (fun m ->
        match Q.small_den m with
        | 0 -> (
          match (Bigint.to_int_opt (Q.num m), Bignat.to_int_opt (Q.den m)) with
          | Some n, Some d -> n * (denom / d)
          | _ -> assert false (* both below D, which fits *))
        | d -> Q.small_num m * (denom / d))
      meas

(* ------------------------------------------------------------------ *)
(* The local-state index                                               *)
(* ------------------------------------------------------------------ *)

(* One group per (agent, time, label), found by open addressing on a
   hash of the three parts: grouping allocates one key per group, not
   one per node and agent. [slots] holds 1 + the index of a key in
   [keys], 0 when free, and doubles when half full. *)
type groups = { mutable slots : int array; mutable keys : lkey array; mutable count : int }

let lkey_hash agent time label =
  (Hashtbl.hash (label : string) + (agent * 0x9E3779B1) + (time * 0x85EBCA6B)) land max_int

(* The slot holding the group of (agent, time, label), or the free slot
   where it belongs. *)
let rec probe slots keys agent time label s =
  match slots.(s) with
  | 0 -> s
  | k ->
    let key = keys.(k - 1) in
    if key.agent = agent && key.time = time && String.equal key.label label then s
    else probe slots keys agent time label ((s + 1) land (Array.length slots - 1))

let find_slot slots keys agent time label =
  probe slots keys agent time label (lkey_hash agent time label land (Array.length slots - 1))

let dummy_key = { agent = -1; time = -1; label = "" }

let grow gs =
  let slots = Array.make (2 * Array.length gs.slots) 0 in
  let keys = Array.make (Array.length slots / 2) dummy_key in
  Array.blit gs.keys 0 keys 0 gs.count;
  for g = 0 to gs.count - 1 do
    let k = keys.(g) in
    slots.(find_slot slots keys k.agent k.time k.label) <- g + 1
  done;
  gs.slots <- slots;
  gs.keys <- keys

let group_of gs agent time label =
  let s = find_slot gs.slots gs.keys agent time label in
  match gs.slots.(s) with
  | 0 ->
    let g = gs.count in
    gs.keys.(g) <- { agent; time; label };
    gs.slots.(s) <- g + 1;
    gs.count <- g + 1;
    if 2 * gs.count >= Array.length gs.slots then grow gs;
    g
  | k -> k - 1

(* Group every (node, agent) cell, then pack all the groups' events
   from their nodes' run intervals in one pass. *)
let index_lstates ~n_agents ~n_runs nodes first last =
  let gs = { slots = Array.make 16 0; keys = Array.make 8 dummy_key; count = 0 } in
  let cells = Array.length nodes * n_agents in
  let group = Array.make cells 0 in
  Array.iteri
    (fun id { depth; state; _ } ->
      for agent = 0 to n_agents - 1 do
        group.((id * n_agents) + agent) <- group_of gs agent depth (Gstate.local state agent)
      done)
    nodes;
  let lruns =
    Bitset.build_ranges_n n_runs gs.count (fun add ->
        for cell = 0 to cells - 1 do
          let id = cell / n_agents in
          add group.(cell) first.(id) last.(id)
        done)
  in
  (Array.sub gs.keys 0 gs.count, lruns, gs.slots)

let next_id = ref 0

module Builder = struct
  type tree = t

  type t = {
    b_n_agents : int;
    mutable b_nodes : node array; (* growable; first b_count slots live *)
    mutable b_last : int array; (* last child added, -1 for none *)
    mutable b_prev : int array; (* sibling added before, -1 for none *)
    mutable b_count : int;
  }

  let dummy_node =
    { depth = 0; state = Gstate.make ~env:"" ~locals:[ "" ]; parent = -1;
      in_prob = Q.one; in_acts = [||] }

  let create ~n_agents =
    if n_agents < 1 then invalid_arg "Tree.Builder.create: need at least one agent";
    { b_n_agents = n_agents; b_nodes = Array.make 16 dummy_node; b_last = Array.make 16 (-1);
      b_prev = Array.make 16 (-1); b_count = 0 }

  let check_prob prob =
    if not (Q.gt prob Q.zero && Q.leq prob Q.one) then
      invalid_arg "Tree.Builder: edge probability must be in (0,1]"

  let check_state b state =
    if Gstate.n_agents state <> b.b_n_agents then
      invalid_arg "Tree.Builder: global state has wrong number of agents"

  let grow a fill =
    let bigger = Array.make (2 * Array.length a) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  let push b node =
    Budget.charge_nodes 1;
    if b.b_count = Array.length b.b_nodes then begin
      b.b_nodes <- grow b.b_nodes dummy_node;
      b.b_last <- grow b.b_last (-1);
      b.b_prev <- grow b.b_prev (-1)
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
    push b { depth = 0; state; parent = -1; in_prob = prob; in_acts = [||] }

  let acts_equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec from i = i >= n || (String.equal a.(i) b.(i) && from (i + 1)) in
    from 0

  let add_child b ~parent ~prob ~acts state =
    check_prob prob;
    check_state b state;
    if Array.length acts <> b.b_n_agents + 1 then
      invalid_arg "Tree.Builder.add_child: acts must have length n_agents + 1";
    let parent_node = nth_node b parent in
    (* A joint action tuple determines a unique successor (Section 2.2). *)
    let rec check c =
      if c >= 0 then begin
        if acts_equal b.b_nodes.(c).in_acts acts then
          invalid_arg "Tree.Builder.add_child: duplicate joint action at this node";
        check b.b_prev.(c)
      end
    in
    check b.b_last.(parent);
    let id =
      push b { depth = parent_node.depth + 1; state; parent; in_prob = prob; in_acts = acts }
    in
    b.b_prev.(id) <- b.b_last.(parent);
    b.b_last.(parent) <- id;
    id

  let finalize b : tree =
    Obs.span "tree.finalize" @@ fun () ->
    if b.b_count = 0 then invalid_arg "Tree.finalize: no initial states";
    let count = b.b_count in
    let nodes = Array.sub b.b_nodes 0 count in
    (* The children lists in insertion order, which is id order:
       prepending from the highest id down. *)
    let first_child = Array.make count (-1) and next = Array.make count (-1) in
    let first_initial = ref (-1) in
    for id = count - 1 downto 0 do
      match nodes.(id).parent with
      | -1 ->
        next.(id) <- !first_initial;
        first_initial := id
      | p ->
        next.(id) <- first_child.(p);
        first_child.(p) <- id
    done;
    let first_initial = !first_initial in
    (* Edge probabilities must sum to one at the root and at every
       internal node. *)
    check_mass nodes next (-1) first_initial;
    for id = 0 to count - 1 do
      if first_child.(id) >= 0 then check_mass nodes next id first_child.(id)
    done;
    (* Every run ends at a leaf, so the leaves give the run and point
       counts before the walk. *)
    let n_runs = ref 0 and n_points = ref 0 and max_depth = ref 0 in
    for id = 0 to count - 1 do
      if first_child.(id) < 0 then begin
        let depth = nodes.(id).depth in
        incr n_runs;
        n_points := !n_points + depth + 1;
        max_depth := max !max_depth depth
      end
    done;
    let n_runs = !n_runs and n_points = !n_points in
    (* Enumerate runs: depth-first, [path] holding the nodes from the
       root down to the current one, which a leaf copies into
       [point_node] as its run's points. The runs through a node are
       therefore the interval [first.(id), last.(id)]. Each run's
       measure is carried down as [num/den] on ints; [den] is 0 where
       it did not fit. *)
    let run_first = Array.make (n_runs + 1) n_points and point_node = Array.make n_points 0 in
    let first = Array.make count 0 and last = Array.make count 0 in
    let num = Array.make n_runs 0 and den = Array.make n_runs 0 in
    let path = Array.make (!max_depth + 1) 0 and frac = [| 0; 0 |] in
    let r = ref 0 and p = ref 0 in
    let rec descend mn md id =
      let n = nodes.(id) in
      path.(n.depth) <- id;
      mul_frac frac mn md n.in_prob;
      let mn = frac.(0) and md = frac.(1) in
      first.(id) <- !r;
      if first_child.(id) < 0 then begin
        let run = !r in
        run_first.(run) <- !p;
        Array.blit path 0 point_node !p (n.depth + 1);
        p := !p + n.depth + 1;
        num.(run) <- mn;
        den.(run) <- md;
        r := run + 1
      end
      else siblings mn md first_child.(id);
      last.(id) <- !r - 1
    and siblings mn md c =
      if c >= 0 then begin
        descend mn md c;
        siblings mn md next.(c)
      end
    in
    siblings 1 1 first_initial;
    (* The local-state index covers every point once; charge them all. *)
    Budget.charge_points n_points;
    let lkeys, lruns, lslots = index_lstates ~n_agents:b.b_n_agents ~n_runs nodes first last in
    (* The weights are [num] rescaled in place when every run fit and D
       is below 2^61; otherwise the run measures are products of [Q]s,
       and D and the weights are read off them. *)
    let denom = Array.fold_left lcm_step 1 den in
    let denom, weights, meas =
      if denom > 0 then begin
        for run = 0 to n_runs - 1 do
          num.(run) <- num.(run) * (denom / den.(run))
        done;
        (denom, num, [||])
      end
      else
        let meas = q_measures nodes first_child next first_initial n_runs in
        let denom = q_denominator meas in
        (denom, q_weights denom meas, meas)
    in
    incr next_id;
    { id = !next_id;
      n_agents = b.b_n_agents;
      nodes;
      first_child;
      next_sibling = next;
      first_initial;
      n_runs;
      run_first;
      point_node;
      first;
      last;
      lkeys;
      lruns;
      lslots;
      denom;
      weights;
      meas
    }
end

let tree_id t = t.id
let n_agents t = t.n_agents
let n_nodes t = Array.length t.nodes
let n_runs t = t.n_runs
let n_points t = Array.length t.point_node

let check_node t id name =
  if id < 0 || id >= Array.length t.nodes then invalid_arg (name ^ ": unknown node id")

let check_run t r name =
  if r < 0 || r >= t.n_runs then invalid_arg (name ^ ": unknown run index")

let node_state t id = check_node t id "Tree.node_state"; t.nodes.(id).state
let node_depth t id = check_node t id "Tree.node_depth"; t.nodes.(id).depth

let node_parent t id =
  check_node t id "Tree.node_parent";
  match t.nodes.(id).parent with -1 -> None | p -> Some p

let node_acts t id = check_node t id "Tree.node_acts"; t.nodes.(id).in_acts
let node_prob t id = check_node t id "Tree.node_prob"; t.nodes.(id).in_prob
let first_child t id = check_node t id "Tree.first_child"; t.first_child.(id)
let next_sibling t id = check_node t id "Tree.next_sibling"; t.next_sibling.(id)
let first_initial t = t.first_initial

let node_children t id =
  check_node t id "Tree.node_children";
  let rec from c =
    if c < 0 then []
    else
      let n = t.nodes.(c) in
      (n.in_prob, n.in_acts, c) :: from t.next_sibling.(c)
  in
  from t.first_child.(id)

let initial_nodes t =
  let rec from c = if c < 0 then [] else (t.nodes.(c).in_prob, c) :: from t.next_sibling.(c) in
  from t.first_initial

let run_length t r = check_run t r "Tree.run_length"; t.run_first.(r + 1) - t.run_first.(r)
let run_offset t r = check_run t r "Tree.run_offset"; t.run_first.(r)

let run_measure t r =
  check_run t r "Tree.run_measure";
  if Array.length t.meas > 0 then t.meas.(r) else Q.of_ints t.weights.(r) t.denom

(* The point of [(run, time)], or -1 when [time] is out of the run. *)
let point t run time =
  let o = t.run_first.(run) in
  if time < 0 || o + time >= t.run_first.(run + 1) then -1 else o + time

let run_node t ~run ~time =
  Obs.incr c_node_lookups;
  check_run t run "Tree.run_node";
  match point t run time with
  | -1 -> invalid_arg "Tree.run_node: time out of range for run"
  | pt -> t.point_node.(pt)

let runs_agree_upto t r1 r2 ~time =
  check_run t r1 "Tree.runs_agree_upto";
  check_run t r2 "Tree.runs_agree_upto";
  let p1 = point t r1 time and p2 = point t r2 time in
  p1 >= 0 && p2 >= 0 && t.point_node.(p1) = t.point_node.(p2)

let iter_points t f =
  let n_points = Array.length t.point_node in
  Obs.add c_points_visited n_points;
  Budget.charge_points n_points;
  for run = 0 to t.n_runs - 1 do
    for time = 0 to t.run_first.(run + 1) - t.run_first.(run) - 1 do
      f ~run ~time
    done
  done

let fold_points t ~init ~f =
  let acc = ref init in
  iter_points t (fun ~run ~time -> acc := f !acc ~run ~time);
  !acc

let weight_denominator t = if t.denom > 0 then Some t.denom else None

let all_runs t = Bitset.full t.n_runs
let empty_event t = Bitset.create t.n_runs

(* The checks, counters and budget charge of one measure. *)
let account t ev =
  if Bitset.capacity ev <> t.n_runs then
    invalid_arg "Tree.measure: event capacity does not match run count";
  Obs.incr c_measure_calls;
  let budget = Atomic.get Budget.live_scopes > 0 in
  if !Obs.on || budget then begin
    let card = Bitset.cardinal ev in
    if !Obs.on then Obs.add c_measure_runs card;
    if budget then Budget.charge_points card
  end

(* µ(ev)·D on an integer-weight tree. *)
let weight t ev = account t ev; Bitset.weighted_sum ev t.weights

let measure t ev =
  if t.denom > 0 then Q.of_ints (weight t ev) t.denom
  else begin
    account t ev;
    Bitset.fold (fun r acc -> Q.add acc t.meas.(r)) ev Q.zero
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
  match t.lslots.(find_slot t.lslots t.lkeys key.agent key.time key.label) with
  | 0 -> empty_event t
  | k -> t.lruns.(k - 1)

(* The order of [compare] on keys of one agent. *)
let compare_lkey a b =
  match Int.compare a.time b.time with 0 -> String.compare a.label b.label | c -> c

let lstates t ~agent =
  let acc = ref [] in
  for g = Array.length t.lkeys - 1 downto 0 do
    if t.lkeys.(g).agent = agent then acc := t.lkeys.(g) :: !acc
  done;
  List.sort compare_lkey !acc

let node_first_run t id = check_node t id "Tree.node_first_run"; t.first.(id)
let node_last_run t id = check_node t id "Tree.node_last_run"; t.last.(id)

let node_runs t id =
  check_node t id "Tree.node_runs";
  Bitset.build_ranges t.n_runs (fun add -> add t.first.(id) t.last.(id))

(* The action at [(run, time)] is on the incoming edge of the run's
   next node; none at the final point. *)
let action_slot t name ~run ~time slot =
  check_run t run name;
  match point t run time with
  | -1 -> invalid_arg (name ^ ": time out of range for run")
  | pt ->
    if pt + 1 = t.run_first.(run + 1) then None
    else Some t.nodes.(t.point_node.(pt + 1)).in_acts.(slot)

let action_at t ~agent ~run ~time =
  if agent < 0 || agent >= t.n_agents then invalid_arg "Tree.action_at: agent out of range";
  action_slot t "Tree.action_at" ~run ~time (agent + 1)

let env_action_at t ~run ~time = action_slot t "Tree.env_action_at" ~run ~time 0

let action_nodes t ~agent ~act =
  if agent < 0 || agent >= t.n_agents then invalid_arg "Tree.action_nodes: agent out of range";
  let acc = ref [] in
  for id = Array.length t.nodes - 1 downto 0 do
    let acts = t.nodes.(id).in_acts in
    if Array.length acts > 0 && String.equal acts.(agent + 1) act then acc := id :: !acc
  done;
  !acc

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
    match t.first_child.(node) with
    | -1 -> None
    | c ->
      let acc = Hashtbl.create 4 in
      let rec add c =
        if c >= 0 then begin
          let child = t.nodes.(c) in
          let a = child.in_acts.(agent + 1) in
          let prev = match Hashtbl.find_opt acc a with Some q -> q | None -> Q.zero in
          Hashtbl.replace acc a (Q.add prev child.in_prob);
          add t.next_sibling.(c)
        end
      in
      add c;
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
  Array.iter
    (fun k ->
      match Hashtbl.find_opt seen (k.agent, k.label) with
      | Some time when time <> k.time -> Hashtbl.replace offenders (k.agent, k.label) ()
      | Some _ -> ()
      | None -> Hashtbl.add seen (k.agent, k.label) k.time)
    t.lkeys;
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
