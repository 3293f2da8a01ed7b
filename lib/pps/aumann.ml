open Pak_rational

type agreement = {
  run : int;
  time : int;
  beliefs : (int * Q.t) list;
  equal : bool;
}

(* Common knowledge at a synchronous time slice is truth on the whole
   cell of the meet (finest common coarsening) of the agents'
   information partitions. We compute the meet once per time with a
   union–find over the runs alive at that time, joining runs that share
   any group member's local state; a fact is then common knowledge at
   (r,t) iff it holds at every run in r's meet cell. *)

module Slice = struct
  type t = {
    time : int;
    beliefs : (int * int, Q.t) Hashtbl.t; (* (agent, run) -> posterior *)
    cell_repr : int array;                (* run -> meet-cell representative; -1 = dead *)
    members : (int, int list) Hashtbl.t;  (* representative -> cell members *)
  }

  let rec find parent i = if parent.(i) = i then i else find parent parent.(i)

  let union parent a b =
    let ra = find parent a and rb = find parent b in
    if ra <> rb then parent.(ra) <- rb

  let make fact ~group ~time =
    let tree = Fact.tree fact in
    let n = Tree.n_runs tree in
    let alive run = Tree.run_length tree run > time in
    let beliefs = Hashtbl.create 64 in
    let parent = Array.init n Fun.id in
    List.iter
      (fun agent ->
        let keys =
          List.filter
            (fun k -> Tree.lkey_time k = time)
            (Tree.lstates tree ~agent)
        in
        List.iter
          (fun key ->
            let cell = Tree.lstate_runs tree key in
            let belief = Belief.degree_at_lstate fact key in
            let first = ref (-1) in
            Bitset.iter
              (fun run ->
                Hashtbl.replace beliefs (agent, run) belief;
                if !first = -1 then first := run else union parent !first run)
              cell)
          keys)
      group;
    let cell_repr =
      Array.init n (fun run -> if alive run then find parent run else -1)
    in
    let members = Hashtbl.create 32 in
    Array.iteri
      (fun run repr ->
        if repr >= 0 then
          Hashtbl.replace members repr
            (run :: (Option.value ~default:[] (Hashtbl.find_opt members repr))))
      cell_repr;
    { time; beliefs; cell_repr; members }

  let profile t ~group run = List.map (fun agent -> (agent, Hashtbl.find t.beliefs (agent, run))) group

  let premise_holds t ~group run =
    (* The agents' belief profile is common knowledge iff it is
       constant on the meet cell. *)
    t.cell_repr.(run) >= 0
    &&
    let mine = profile t ~group run in
    List.for_all
      (fun run' -> profile t ~group run' = mine)
      (Hashtbl.find t.members t.cell_repr.(run))
end

let check_group = function
  | [] -> invalid_arg "Aumann: empty group"
  | g -> List.sort_uniq compare g

let common_knowledge_of_beliefs fact ~group ~run ~time =
  let group = check_group group in
  let slice = Slice.make fact ~group ~time in
  Slice.premise_holds slice ~group run

let report_of slice ~group ~run ~time =
  let beliefs = Slice.profile slice ~group run in
  let equal =
    match beliefs with
    | [] -> true
    | (_, first) :: rest -> List.for_all (fun (_, v) -> Q.equal v first) rest
  in
  { run; time; beliefs; equal }

let check_point fact ~group ~run ~time =
  let group = check_group group in
  let slice = Slice.make fact ~group ~time in
  if Slice.premise_holds slice ~group run then Some (report_of slice ~group ~run ~time)
  else None

let check fact ~group =
  let group = check_group group in
  let tree = Fact.tree fact in
  let max_time =
    let m = ref 0 in
    for run = 0 to Tree.n_runs tree - 1 do
      m := max !m (Tree.run_length tree run - 1)
    done;
    !m
  in
  List.concat_map
    (fun time ->
      let slice = Slice.make fact ~group ~time in
      let acc = ref [] in
      for run = Tree.n_runs tree - 1 downto 0 do
        if Tree.run_length tree run > time && Slice.premise_holds slice ~group run then
          acc := report_of slice ~group ~run ~time :: !acc
      done;
      !acc)
    (List.init (max_time + 1) Fun.id)

let disagreement_points fact ~group =
  check fact ~group
  |> List.filter_map (fun r -> if r.equal then None else Some (r.run, r.time))

(* ------------------------------------------------------------------ *)
(* Monderer–Samet p-agreement                                          *)
(* ------------------------------------------------------------------ *)

type p_agreement = {
  p_run : int;
  p_time : int;
  p : Q.t;
  p_beliefs : (int * Q.t) list;
  spread : Q.t;
  bound : Q.t;
  within_bound : bool;
}

let p_agreement_slice fact ~group ~p ~time =
  let tree = Fact.tree fact in
  let n = Tree.n_runs tree in
  let alive run = Tree.run_length tree run > time in
  let slice = Slice.make fact ~group ~time in
  (* Per agent, the information cell of each alive run at this time. *)
  let cell agent run = Tree.lstate_runs tree (Tree.lkey tree ~agent ~run ~time) in
  (* p-belief of a run set Y at run r for one agent. *)
  let p_believes agent y run =
    let c = cell agent run in
    Q.geq (Tree.cond tree (Bitset.inter y c) ~given:c) p
  in
  (* Common p-belief of S (as a run set) = gfp X. E^p(S) ∧ E^p(X). *)
  let common_p_belief s =
    let base =
      Bitset.filter
        (fun run -> alive run && List.for_all (fun i -> p_believes i s run) group)
        (Tree.all_runs tree)
    in
    let x = ref base in
    let stable = ref false in
    while not !stable do
      let x' =
        Bitset.filter
          (fun run -> List.for_all (fun i -> p_believes i !x run) group)
          base
      in
      if Bitset.equal x' !x then stable := true else x := x'
    done;
    !x
  in
  (* Group the alive runs by belief profile and evaluate each profile's
     common p-belief event once. *)
  let profiles = Hashtbl.create 16 in
  for run = 0 to n - 1 do
    if alive run then begin
      let prof = Slice.profile slice ~group run in
      Hashtbl.replace profiles prof
        (Bitset.add
           (Option.value ~default:(Tree.empty_event tree) (Hashtbl.find_opt profiles prof))
           run)
    end
  done;
  Hashtbl.fold
    (fun prof members acc ->
      let ck = common_p_belief members in
      let values = List.map snd prof in
      let spread =
        match values with
        | [] -> Q.zero
        | v :: rest ->
          let mx = List.fold_left Q.max v rest and mn = List.fold_left Q.min v rest in
          Q.sub mx mn
      in
      let bound = Q.mul (Q.of_int 2) (Q.one_minus p) in
      Bitset.fold
        (fun run acc ->
          if Bitset.mem ck run then
            { p_run = run;
              p_time = time;
              p;
              p_beliefs = prof;
              spread;
              bound;
              within_bound = Q.leq spread bound
            }
            :: acc
          else acc)
        members acc)
    profiles []

let p_agreement fact ~group ~p =
  if not (Q.gt p Q.half && Q.leq p Q.one) then
    invalid_arg "Aumann.p_agreement: p must lie in (1/2, 1]";
  let group = check_group group in
  let tree = Fact.tree fact in
  let max_time =
    let m = ref 0 in
    for run = 0 to Tree.n_runs tree - 1 do
      m := max !m (Tree.run_length tree run - 1)
    done;
    !m
  in
  (* By run within a slice: the profiles' table is keyed on [Q] values,
     so its fold order is not one to expose. *)
  List.concat_map
    (fun time ->
      List.sort (fun a b -> Int.compare a.p_run b.p_run) (p_agreement_slice fact ~group ~p ~time))
    (List.init (max_time + 1) Fun.id)

let p_disagreements fact ~group ~p =
  p_agreement fact ~group ~p
  |> List.filter_map (fun r -> if r.within_bound then None else Some (r.p_run, r.p_time))
