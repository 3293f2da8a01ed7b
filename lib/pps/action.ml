exception Not_proper of string

(* Queries read the action's nodes (Tree.action_nodes): a run passing
   through one of them at depth d performs the action at time d - 1,
   and those are all its occurrences. An agent out of range is
   reported as the per-point reader Tree.action_at reports it. *)
let nodes tree ~agent ~act =
  if agent < 0 || agent >= Tree.n_agents tree then
    invalid_arg "Tree.action_at: agent out of range";
  Tree.action_nodes tree ~agent ~act

let time_of tree id = Tree.node_depth tree id - 1

let runs_through tree ids =
  Bitset.build_ranges (Tree.n_runs tree) (fun add ->
      List.iter (fun id -> add (Tree.node_first_run tree id) (Tree.node_last_run tree id)) ids)

(* The runs through node [id] are [node_first_run .. node_last_run]. *)
let through tree id run = Tree.node_first_run tree id <= run && run <= Tree.node_last_run tree id

let n_through tree id = Tree.node_last_run tree id - Tree.node_first_run tree id + 1

(* [by_time.(t)]: the runs performing the action at time [t]. *)
let performing_by_time tree ids =
  Array.init
    (List.fold_left (fun n id -> max n (time_of tree id + 1)) 0 ids)
    (fun time -> runs_through tree (List.filter (fun id -> time_of tree id = time) ids))

(* The action's nodes on the run, shallowest first: a child's id is
   above its parent's. *)
let nodes_on_run tree ~agent ~act ~run =
  ignore (Tree.run_length tree run : int) (* an unknown run is reported first *);
  List.filter (fun id -> through tree id run) (nodes tree ~agent ~act)

let iter_occurrences tree ~agent ~act f =
  List.iter
    (fun id ->
      let time = time_of tree id in
      for run = Tree.node_first_run tree id to Tree.node_last_run tree id do
        f ~run ~time
      done)
    (nodes tree ~agent ~act)

let compare_points (r1, t1) (r2, t2) = if r1 <> r2 then Int.compare r1 r2 else Int.compare t1 t2

let occurrences tree ~agent ~act =
  let acc = ref [] in
  iter_occurrences tree ~agent ~act (fun ~run ~time -> acc := (run, time) :: !acc);
  List.sort compare_points !acc

let runs_performing tree ~agent ~act = runs_through tree (nodes tree ~agent ~act)

let count_in_run tree ~agent ~act ~run = List.length (nodes_on_run tree ~agent ~act ~run)

let time_performed tree ~agent ~act ~run =
  match nodes_on_run tree ~agent ~act ~run with
  | [] -> None
  | id :: _ -> Some (time_of tree id)

let is_performed tree ~agent ~act = nodes tree ~agent ~act <> []

(* No run passes through two of the action's nodes exactly when their
   run sets are disjoint, i.e. when their sizes add up to the size of
   their union. *)
let is_proper tree ~agent ~act =
  match nodes tree ~agent ~act with
  | [] -> false
  | ids ->
    List.fold_left (fun n id -> n + n_through tree id) 0 ids
    = Bitset.cardinal (runs_through tree ids)

let check_proper tree ~agent ~act =
  if not (is_proper tree ~agent ~act) then
    raise (Not_proper (Printf.sprintf "agent %d, action %s" agent act))

(* All runs through a local state must agree on performing the action
   there. An agent out of range has no local states, so nothing to
   disagree on. *)
let is_deterministic tree ~agent ~act =
  match Tree.lstates tree ~agent with
  | [] -> true
  | keys ->
    let by_time = performing_by_time tree (nodes tree ~agent ~act) in
    List.for_all
      (fun key ->
        let time = Tree.lkey_time key in
        time >= Array.length by_time
        ||
        let occ = Tree.lstate_runs tree key in
        let performing = Bitset.inter occ by_time.(time) in
        Bitset.is_empty performing || Bitset.equal performing occ)
      keys

(* The local state at an occurrence is the agent's label at the
   parent of the action's node. *)
let performing_lstates tree ~agent ~act =
  nodes tree ~agent ~act
  |> List.map (fun id ->
         let parent = Option.get (Tree.node_parent tree id) in
         Tree.lkey_make ~agent ~time:(time_of tree id)
           ~label:(Gstate.local (Tree.node_state tree parent) agent))
  |> List.sort_uniq compare

(* One local state's runs, each checked at the node it reaches next:
   callers ask this for many local states, and a run lookup costs less
   than a scan of every node per local state. A local state that never
   occurs, one of an agent out of range included, has no runs. *)
let performed_at_lstate tree ~agent ~act key =
  if Tree.lkey_agent key <> agent then
    invalid_arg "Action.performed_at_lstate: local state belongs to another agent";
  let next = Tree.lkey_time key + 1 in
  Bitset.filter
    (fun run ->
      next < Tree.run_length tree run
      && String.equal (Tree.node_acts tree (Tree.run_node tree ~run ~time:next)).(agent + 1) act)
    (Tree.lstate_runs tree key)
