(* [Action] as it was before it read nodes: every query walks the
   points with [Tree.action_at]. The tests compare [Action] against it
   function by function, results and exceptions alike. *)

open Pak_pps

let occurrences tree ~agent ~act =
  Tree.fold_points tree ~init:[] ~f:(fun acc ~run ~time ->
      match Tree.action_at tree ~agent ~run ~time with
      | Some a when a = act -> (run, time) :: acc
      | Some _ | None -> acc)
  |> List.rev

let runs_performing tree ~agent ~act =
  Bitset.of_list (Tree.n_runs tree) (List.map fst (occurrences tree ~agent ~act))

let count_in_run tree ~agent ~act ~run =
  let n = ref 0 in
  for time = 0 to Tree.run_length tree run - 1 do
    match Tree.action_at tree ~agent ~run ~time with
    | Some a when a = act -> incr n
    | Some _ | None -> ()
  done;
  !n

let time_performed tree ~agent ~act ~run =
  let len = Tree.run_length tree run in
  let rec go time =
    if time >= len then None
    else
      match Tree.action_at tree ~agent ~run ~time with
      | Some a when a = act -> Some time
      | Some _ | None -> go (time + 1)
  in
  go 0

let is_performed tree ~agent ~act = occurrences tree ~agent ~act <> []

let is_proper tree ~agent ~act =
  is_performed tree ~agent ~act
  && (let ok = ref true in
      for run = 0 to Tree.n_runs tree - 1 do
        if count_in_run tree ~agent ~act ~run > 1 then ok := false
      done;
      !ok)

let check_proper tree ~agent ~act =
  if not (is_proper tree ~agent ~act) then
    raise (Action.Not_proper (Printf.sprintf "agent %d, action %s" agent act))

let is_deterministic tree ~agent ~act =
  List.for_all
    (fun key ->
      let time = Tree.lkey_time key in
      let occ = Tree.lstate_runs tree key in
      let performs run =
        match Tree.action_at tree ~agent ~run ~time with
        | Some a -> a = act
        | None -> false
      in
      (* All runs through this local state must agree. *)
      match Bitset.to_list occ with
      | [] -> true
      | first :: rest ->
        let v = performs first in
        List.for_all (fun r -> performs r = v) rest)
    (Tree.lstates tree ~agent)

let performing_lstates tree ~agent ~act =
  occurrences tree ~agent ~act
  |> List.map (fun (run, time) -> Tree.lkey tree ~agent ~run ~time)
  |> List.sort_uniq compare

let performed_at_lstate tree ~agent ~act key =
  if Tree.lkey_agent key <> agent then
    invalid_arg "Action.performed_at_lstate: local state belongs to another agent";
  let time = Tree.lkey_time key in
  Bitset.filter
    (fun run ->
      match Tree.action_at tree ~agent ~run ~time with
      | Some a -> a = act
      | None -> false)
    (Tree.lstate_runs tree key)
