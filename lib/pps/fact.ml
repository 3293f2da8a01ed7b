(* A fact is a point-indexed bitset: point (r, t) is bit
   [Tree.run_offset tree r + t], so the points of one run form one
   contiguous interval of bits. Connectives are word operations on the
   bitsets; temporal operators rebuild the set run by run. *)
type t = { tree : Tree.t; bits : Bitset.t }

let tree t = t.tree
let points t = t.bits

let build tree fill = { tree; bits = Bitset.build (Tree.n_points tree) fill }

(* Every run as (index, first point index, length). *)
let iter_runs tree f =
  for run = 0 to Tree.n_runs tree - 1 do
    f run (Tree.run_offset tree run) (Tree.run_length tree run)
  done

let of_pred tree pred =
  build tree (fun add ->
      iter_runs tree (fun run off len ->
          for time = 0 to len - 1 do
            if pred ~run ~time then add (off + time)
          done))

let of_state_pred tree pred =
  (* Memoize per node: a state predicate has one value per node.
     0 = not yet asked, 1 = false, 2 = true. *)
  let cache = Bytes.make (Tree.n_nodes tree) '\000' in
  of_pred tree (fun ~run ~time ->
      let node = Tree.run_node tree ~run ~time in
      match Bytes.get cache node with
      | '\001' -> false
      | '\002' -> true
      | _ ->
        let v = pred (Tree.node_state tree node) in
        Bytes.set cache node (if v then '\002' else '\001');
        v)

let of_run_pred tree pred =
  build tree (fun add ->
      iter_runs tree (fun run off len ->
          if pred run then for i = off to off + len - 1 do add i done))

let of_lstates tree keys =
  build tree (fun add ->
      List.iter
        (fun key ->
          let time = Tree.lkey_time key in
          Bitset.iter
            (fun run -> add (Tree.run_offset tree run + time))
            (Tree.lstate_runs tree key))
        keys)

let tt tree = { tree; bits = Bitset.full (Tree.n_points tree) }
let ff tree = { tree; bits = Bitset.create (Tree.n_points tree) }

let does tree ~agent ~act =
  build tree (fun add ->
      Action.iter_occurrences tree ~agent ~act (fun ~run ~time ->
          add (Tree.run_offset tree run + time)))

let does_env tree ~act =
  of_pred tree (fun ~run ~time -> Tree.env_action_at tree ~run ~time = Some act)

let local_label_is tree ~agent ~label =
  of_state_pred tree (fun g -> Gstate.local g agent = label)

let check_same a b =
  if Tree.tree_id a.tree <> Tree.tree_id b.tree then
    invalid_arg "Fact: combining facts from different trees"

let map2 f a b =
  check_same a b;
  { a with bits = f a.bits b.bits }

let not_ a = { a with bits = Bitset.complement a.bits }
let and_ a b = map2 Bitset.inter a b
let or_ a b = map2 Bitset.union a b
let implies a b = map2 (fun x y -> Bitset.union (Bitset.complement x) y) a b
let iff a b = map2 (fun x y -> Bitset.complement (Bitset.symdiff x y)) a b

let conj tree = List.fold_left and_ (tt tree)
let disj tree = List.fold_left or_ (ff tree)

let holds t ~run ~time =
  if run < 0 || run >= Tree.n_runs t.tree then invalid_arg "Fact.holds: unknown run";
  if time < 0 || time >= Tree.run_length t.tree run then
    invalid_arg "Fact.holds: time out of range for run";
  Bitset.mem t.bits (Tree.run_offset t.tree run + time)

(* Rebuild a fact run by run: [f len get add] reads the run's truth
   values by time with [get] and sets output points by time with
   [add]. *)
let map_runs a f =
  build a.tree (fun add ->
      iter_runs a.tree (fun _ off len ->
          f len (fun time -> Bitset.mem a.bits (off + time)) (fun time -> add (off + time))))

let rec exists_from get len time = time < len && (get time || exists_from get len (time + 1))
let rec for_all_from get len time = time >= len || (get time && for_all_from get len (time + 1))

let fill_run len add = for time = 0 to len - 1 do add time done

let eventually a = map_runs a (fun len get add -> if exists_from get len 0 then fill_run len add)
let globally a = map_runs a (fun len get add -> if for_all_from get len 0 then fill_run len add)

let once a =
  map_runs a (fun len get add ->
      let seen = ref false in
      for time = 0 to len - 1 do
        if get time then seen := true;
        if !seen then add time
      done)

let historically a =
  map_runs a (fun len get add ->
      let sofar = ref true in
      for time = 0 to len - 1 do
        if not (get time) then sofar := false;
        if !sofar then add time
      done)

let next a =
  map_runs a (fun len get add ->
      for time = 0 to len - 2 do
        if get (time + 1) then add time
      done)

let at_time tree k a =
  if Tree.tree_id tree <> Tree.tree_id a.tree then
    invalid_arg "Fact.at_time: fact from a different tree";
  if k < 0 then invalid_arg "Fact.at_time: negative time";
  of_run_pred tree (fun run ->
      k < Tree.run_length tree run && Bitset.mem a.bits (Tree.run_offset tree run + k))

let is_about_runs t =
  let rec from run =
    run >= Tree.n_runs t.tree
    ||
    let off = Tree.run_offset t.tree run in
    let get time = Bitset.mem t.bits (off + time) in
    let first = get 0 in
    for_all_from (fun time -> get time = first) (Tree.run_length t.tree run) 1 && from (run + 1)
  in
  from 0

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
    let holds run = Bitset.mem t.bits (Tree.run_offset tr run + time) in
    (Bitset.for_all holds runs || not (Bitset.exists holds runs)) && from (node + 1)
  in
  from 0

let event_of_run_fact t =
  if not (is_about_runs t) then
    invalid_arg "Fact.event_of_run_fact: fact is not a fact about runs";
  Bitset.init (Tree.n_runs t.tree) (fun run -> Bitset.mem t.bits (Tree.run_offset t.tree run))

let at_lstate t key =
  let tr = t.tree in
  let time = Tree.lkey_time key in
  Bitset.filter
    (fun run -> Bitset.mem t.bits (Tree.run_offset tr run + time))
    (Tree.lstate_runs tr key)

let and_action_at_lstate t ~agent ~act key =
  Bitset.inter (at_lstate t key) (Action.performed_at_lstate t.tree ~agent ~act key)

let at_action t ~agent ~act =
  Action.check_proper t.tree ~agent ~act;
  Bitset.build (Tree.n_runs t.tree) (fun add ->
      Action.iter_occurrences t.tree ~agent ~act (fun ~run ~time ->
          if Bitset.mem t.bits (Tree.run_offset t.tree run + time) then add run))

let prob t ev = Tree.measure t.tree ev

let to_list t =
  let acc = ref [] in
  for run = Tree.n_runs t.tree - 1 downto 0 do
    let off = Tree.run_offset t.tree run in
    for time = Tree.run_length t.tree run - 1 downto 0 do
      if Bitset.mem t.bits (off + time) then acc := (run, time) :: !acc
    done
  done;
  !acc

let pp fmt t =
  Format.fprintf fmt "@[<hov 1>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ";@ ")
       (fun f (run, time) -> Format.fprintf f "(r%d,t%d)" run time))
    (to_list t)
