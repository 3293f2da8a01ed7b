
type t = { tree : Tree.t; table : bool array array (* [run].(time) *) }

let tree t = t.tree

let of_pred tree pred =
  let table =
    Array.init (Tree.n_runs tree) (fun run ->
        Array.init (Tree.run_length tree run) (fun time -> pred ~run ~time))
  in
  { tree; table }

let of_state_pred tree pred =
  (* Memoize per node: a state predicate has one value per node. *)
  let cache = Array.make (Tree.n_nodes tree) None in
  of_pred tree (fun ~run ~time ->
      let node = Tree.run_node tree ~run ~time in
      match cache.(node) with
      | Some v -> v
      | None ->
        let v = pred (Tree.node_state tree node) in
        cache.(node) <- Some v;
        v)

let of_run_pred tree pred =
  let per_run = Array.init (Tree.n_runs tree) pred in
  of_pred tree (fun ~run ~time:_ -> per_run.(run))

let tt tree = of_pred tree (fun ~run:_ ~time:_ -> true)
let ff tree = of_pred tree (fun ~run:_ ~time:_ -> false)

let does tree ~agent ~act =
  of_pred tree (fun ~run ~time ->
      match Tree.action_at tree ~agent ~run ~time with
      | Some a -> a = act
      | None -> false)

let does_env tree ~act =
  of_pred tree (fun ~run ~time ->
      match Tree.env_action_at tree ~run ~time with Some a -> a = act | None -> false)

let local_label_is tree ~agent ~label =
  of_state_pred tree (fun g -> Gstate.local g agent = label)

let check_same a b =
  if Tree.tree_id a.tree <> Tree.tree_id b.tree then
    invalid_arg "Fact: combining facts from different trees"

let map2 f a b =
  check_same a b;
  { tree = a.tree;
    table = Array.init (Array.length a.table) (fun run ->
        Array.init (Array.length a.table.(run)) (fun time ->
            f a.table.(run).(time) b.table.(run).(time)))
  }

let map1 f a =
  { tree = a.tree;
    table = Array.map (Array.map f) a.table }

let not_ a = map1 not a
let and_ a b = map2 ( && ) a b
let or_ a b = map2 ( || ) a b
let implies a b = map2 (fun x y -> (not x) || y) a b
let iff a b = map2 ( = ) a b

let conj tree = List.fold_left and_ (tt tree)
let disj tree = List.fold_left or_ (ff tree)

let holds t ~run ~time =
  if run < 0 || run >= Array.length t.table then invalid_arg "Fact.holds: unknown run";
  let row = t.table.(run) in
  if time < 0 || time >= Array.length row then
    invalid_arg "Fact.holds: time out of range for run";
  row.(time)

let eventually a =
  let per_run = Array.map (Array.exists Fun.id) a.table in
  { tree = a.tree;
    table = Array.mapi (fun run row -> Array.map (fun _ -> per_run.(run)) row) a.table }

let globally a =
  let per_run = Array.map (Array.for_all Fun.id) a.table in
  { tree = a.tree;
    table = Array.mapi (fun run row -> Array.map (fun _ -> per_run.(run)) row) a.table }

let once a =
  { tree = a.tree;
    table =
      Array.map
        (fun row ->
          let acc = ref false in
          Array.map (fun v -> acc := !acc || v; !acc) row)
        a.table }

let historically a =
  { tree = a.tree;
    table =
      Array.map
        (fun row ->
          let acc = ref true in
          Array.map (fun v -> acc := !acc && v; !acc) row)
        a.table }

let next a =
  { tree = a.tree;
    table =
      Array.map
        (fun row ->
          let n = Array.length row in
          Array.init n (fun time -> time + 1 < n && row.(time + 1)))
        a.table }

let at_time tree k a =
  if Tree.tree_id tree <> Tree.tree_id a.tree then
    invalid_arg "Fact.at_time: fact from a different tree";
  of_run_pred tree (fun run -> k < Array.length a.table.(run) && a.table.(run).(k))

let is_about_runs t =
  Array.for_all
    (fun row -> Array.length row = 0 || Array.for_all (fun v -> v = row.(0)) row)
    t.table

let is_past_based t =
  (* Two runs agree up to time [time] iff they pass through the same
     node; so past-based = constant on the runs through each node. Each
     node is checked once, so the scans visit each point at most twice. *)
  let tr = t.tree in
  Pak_guard.Budget.charge_points (Tree.n_points tr);
  let rec from node =
    node >= Tree.n_nodes tr
    ||
    let time = Tree.node_depth tr node in
    let runs = Tree.node_runs tr node in
    let holds run = t.table.(run).(time) in
    (Bitset.for_all holds runs || not (Bitset.exists holds runs)) && from (node + 1)
  in
  from 0

let event_of_run_fact t =
  if not (is_about_runs t) then
    invalid_arg "Fact.event_of_run_fact: fact is not a fact about runs";
  Bitset.init (Array.length t.table) (fun run ->
      Array.length t.table.(run) > 0 && t.table.(run).(0))

let at_lstate t key =
  let tr = t.tree in
  let time = Tree.lkey_time key in
  Bitset.filter (fun run -> t.table.(run).(time)) (Tree.lstate_runs tr key)

let and_action_at_lstate t ~agent ~act key =
  Bitset.inter (at_lstate t key) (Action.performed_at_lstate t.tree ~agent ~act key)

let at_action t ~agent ~act =
  Action.check_proper t.tree ~agent ~act;
  Action.occurrences t.tree ~agent ~act
  |> List.filter_map (fun (run, time) -> if t.table.(run).(time) then Some run else None)
  |> Bitset.of_list (Tree.n_runs t.tree)

let prob t ev = Tree.measure t.tree ev

let pp fmt t =
  Format.fprintf fmt "@[<hov 1>{";
  let first = ref true in
  Array.iteri
    (fun run row ->
      Array.iteri
        (fun time v ->
          if v then begin
            if not !first then Format.fprintf fmt ";@ ";
            first := false;
            Format.fprintf fmt "(r%d,t%d)" run time
          end)
        row)
    t.table;
  Format.fprintf fmt "}@]"
