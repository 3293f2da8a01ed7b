(* [Cert.check] as it was before it checked point bitsets: each node's
   points go into a [Hashtbl] of (run, time) pairs, every connective is
   re-derived by a closure call per point over [Tree.iter_points], and
   K/B evidence is looked up in hashed per-agent tables. The tests
   require [Cert.check] to give the same verdict, the same violation
   text and the same budget outcome on every certificate. *)

open Pak_rational
open Pak_pps
open Pak_logic
open Pak_cert.Cert
module Budget = Pak_guard.Budget

exception Violation of violation

let kind_of : Formula.t -> string = function
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

let group_agents grp = List.sort_uniq Stdlib.compare grp

let expected_children : Formula.t -> Formula.t list = function
  | True | False | Atom _ | Does _ -> []
  | Not g | Eventually g | Globally g | Next g | Once g | Historically g
  | Knows (_, g)
  | Believes (_, _, _, g)
  | EveryoneKnows (_, g)
  | CommonKnows (_, g)
  | EveryoneBelieves (_, _, g)
  | CommonBelief (_, _, g) ->
    [ g ]
  | And (a, b) | Or (a, b) | Implies (a, b) | Iff (a, b) -> [ a; b ]

let check ?valuation tree cert =
  let fail path formula reason =
    raise (Violation { path; formula = Formula.to_string formula; reason })
  in
  let failf path formula fmt = Printf.ksprintf (fail path formula) fmt in
  let n_runs = Tree.n_runs tree in
  let validate_points path f pts =
    let rec go prev = function
      | [] -> ()
      | (r, t) :: rest ->
        if r < 0 || r >= n_runs then
          failf path f "point (%d,%d): run index out of range" r t;
        if t < 0 || t >= Tree.run_length tree r then
          failf path f "point (%d,%d): time out of range for the run" r t;
        (match prev with
        | Some (pr, pt) when not (pr < r || (pr = r && pt < t)) ->
          failf path f "point list not strictly increasing at (%d,%d)" r t
        | _ -> ());
        go (Some (r, t)) rest
    in
    go None pts
  in
  let pset_of pts =
    let h = Hashtbl.create (List.length pts * 2 + 1) in
    List.iter (fun p -> Hashtbl.replace h p ()) pts;
    h
  in
  let pmem h run time = Hashtbl.mem h (run, time) in
  let assert_pointwise path f pset pred =
    Tree.iter_points tree (fun ~run ~time ->
        let recorded = pmem pset run time in
        let derived = pred ~run ~time in
        if recorded <> derived then
          failf path f
            "point (%d,%d): certificate records the subformula as %s but re-derivation says %s"
            run time
            (if recorded then "holding" else "not holding")
            (if derived then "holding" else "not holding"))
  in
  let check_agent path f i =
    if i < 0 || i >= Tree.n_agents tree then
      failf path f "agent %d out of range (system has %d agents)" i (Tree.n_agents tree)
  in
  let check_group path f grp =
    if grp = [] then failf path f "empty agent group";
    List.iter (check_agent path f) grp;
    group_agents grp
  in
  (* Exact coverage: one cell per (agent, local state), no extras. *)
  let check_coverage path f agents keys =
    let seen = Hashtbl.create 16 in
    List.iter
      (fun ((a, time, label) as key) ->
        if Hashtbl.mem seen key then
          failf path f "duplicate evidence cell for agent %d local state (t=%d, %S)" a time
            label;
        Hashtbl.add seen key ())
      keys;
    List.iter
      (fun i ->
        List.iter
          (fun lk ->
            let key = (i, Tree.lkey_time lk, Tree.lkey_label lk) in
            if not (Hashtbl.mem seen key) then
              failf path f "missing evidence cell for agent %d local state (t=%d, %S)" i
                (Tree.lkey_time lk) (Tree.lkey_label lk);
            Hashtbl.remove seen key)
          (Tree.lstates tree ~agent:i))
      agents;
    Hashtbl.iter
      (fun (a, time, label) () ->
        failf path f "evidence cell for unknown agent/local state: agent %d, (t=%d, %S)" a
          time label)
      seen
  in
  (* Truth of a per-local-state table at a point: look the agent's local
     state up. The coverage check above guarantees presence. *)
  let table_pred tables ~run ~time =
    List.for_all
      (fun (i, h) ->
        let key = Tree.lkey tree ~agent:i ~run ~time in
        match Hashtbl.find_opt h (Tree.lkey_time key, Tree.lkey_label key) with
        | Some b -> b
        | None -> false)
      tables
  in
  (* Re-derived evidence tables for one fixpoint step. *)
  let know_tables agents member =
    List.map
      (fun i ->
        let h = Hashtbl.create 16 in
        List.iter
          (fun lk ->
            let time = Tree.lkey_time lk in
            let ok =
              Bitset.for_all (fun r -> member ~run:r ~time) (Tree.lstate_runs tree lk)
            in
            Hashtbl.replace h (time, Tree.lkey_label lk) ok)
          (Tree.lstates tree ~agent:i);
        (i, h))
      agents
  in
  let believe_tables agents threshold member =
    List.map
      (fun i ->
        let h = Hashtbl.create 16 in
        List.iter
          (fun lk ->
            let time = Tree.lkey_time lk in
            let cell = Tree.lstate_runs tree lk in
            let sat = Bitset.filter (fun r -> member ~run:r ~time) cell in
            let degree = Q.div (Tree.measure tree sat) (Tree.measure tree cell) in
            Hashtbl.replace h (time, Tree.lkey_label lk) (Q.geq degree threshold))
          (Tree.lstates tree ~agent:i);
        (i, h))
      agents
  in
  let all_points =
    List.rev
      (Tree.fold_points tree ~init:[] ~f:(fun acc ~run ~time -> (run, time) :: acc))
  in
  let check_kcells path f agents child_pset cells =
    check_coverage path f agents
      (List.map (fun kc -> (kc.kc_agent, kc.kc_time, kc.kc_label)) cells);
    let tables = List.map (fun i -> (i, Hashtbl.create 16)) agents in
    List.iter
      (fun kc ->
        let lk = Tree.lkey_make ~agent:kc.kc_agent ~time:kc.kc_time ~label:kc.kc_label in
        let cell = Tree.lstate_runs tree lk in
        if Bitset.to_list cell <> kc.kc_cell then
          failf path f
            "K-cell for agent %d (t=%d, %S): recorded runs do not match the tree's indistinguishability cell"
            kc.kc_agent kc.kc_time kc.kc_label;
        let holds = Bitset.for_all (fun r -> pmem child_pset r kc.kc_time) cell in
        if holds <> kc.kc_holds then
          failf path f
            "K-cell for agent %d (t=%d, %S): recorded holds=%b but the inner formula %s at every run of the cell"
            kc.kc_agent kc.kc_time kc.kc_label kc.kc_holds
            (if holds then "does hold" else "does not hold");
        Hashtbl.replace (List.assoc kc.kc_agent tables) (kc.kc_time, kc.kc_label)
          kc.kc_holds)
      cells;
    tables
  in
  let check_bcells path f agents ~cmp ~threshold child_pset cells =
    check_coverage path f agents
      (List.map (fun bc -> (bc.bc_agent, bc.bc_time, bc.bc_label)) cells);
    let tables = List.map (fun i -> (i, Hashtbl.create 16)) agents in
    List.iter
      (fun bc ->
        let lk = Tree.lkey_make ~agent:bc.bc_agent ~time:bc.bc_time ~label:bc.bc_label in
        let cell = Tree.lstate_runs tree lk in
        if Bitset.to_list cell <> bc.bc_cell then
          failf path f
            "B-cell for agent %d (t=%d, %S): recorded conditioning cell does not match the tree"
            bc.bc_agent bc.bc_time bc.bc_label;
        let sat = Bitset.filter (fun r -> pmem child_pset r bc.bc_time) cell in
        if Bitset.to_list sat <> bc.bc_sat then
          failf path f
            "B-cell for agent %d (t=%d, %S): recorded satisfying runs do not match the inner formula"
            bc.bc_agent bc.bc_time bc.bc_label;
        let cell_measure = Tree.measure tree cell in
        let sat_measure = Tree.measure tree sat in
        if not (Q.equal cell_measure bc.bc_cell_measure) then
          failf path f "B-cell for agent %d (t=%d, %S): µ(cell) is %s, certificate says %s"
            bc.bc_agent bc.bc_time bc.bc_label (Q.to_string cell_measure)
            (Q.to_string bc.bc_cell_measure);
        if not (Q.equal sat_measure bc.bc_sat_measure) then
          failf path f "B-cell for agent %d (t=%d, %S): µ(ϕ@ℓ) is %s, certificate says %s"
            bc.bc_agent bc.bc_time bc.bc_label (Q.to_string sat_measure)
            (Q.to_string bc.bc_sat_measure);
        let degree = Q.div sat_measure cell_measure in
        if not (Q.equal degree bc.bc_degree) then
          failf path f
            "B-cell for agent %d (t=%d, %S): degree of belief is %s, certificate says %s"
            bc.bc_agent bc.bc_time bc.bc_label (Q.to_string degree)
            (Q.to_string bc.bc_degree);
        let holds = Semantics.satisfies_cmp cmp degree threshold in
        if holds <> bc.bc_holds then
          failf path f
            "B-cell for agent %d (t=%d, %S): threshold comparison re-derives to %b, certificate says %b"
            bc.bc_agent bc.bc_time bc.bc_label holds bc.bc_holds;
        Hashtbl.replace (List.assoc bc.bc_agent tables) (bc.bc_time, bc.bc_label)
          bc.bc_holds)
      cells;
    tables
  in
  let check_fixpoint path f node_pts iters step =
    if iters = [] then failf path f "fixpoint evidence records no iterations";
    List.iter (validate_points path f) iters;
    let prev = ref (pset_of all_points) in
    List.iteri
      (fun k pts ->
        Budget.charge_iters 1;
        let pset = pset_of pts in
        let derived = step (fun ~run ~time -> pmem !prev run time) in
        Tree.iter_points tree (fun ~run ~time ->
            if pmem pset run time <> derived ~run ~time then
              failf path f
                "fixpoint iteration %d: recorded approximant differs from the re-computed step at point (%d,%d)"
                (k + 1) run time);
        prev := pset)
      iters;
    let n = List.length iters in
    let last = List.nth iters (n - 1) in
    let before_last = if n = 1 then all_points else List.nth iters (n - 2) in
    if last <> before_last then
      failf path f
        "fixpoint evidence is not terminated: the last two approximants differ (not a fixed point)";
    if node_pts <> last then
      failf path f "node point set differs from the final fixpoint approximant"
  in
  let checked : (Formula.t, node * (int * int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let rec check_node path (n : node) : (int * int, unit) Hashtbl.t =
    match Hashtbl.find_opt checked n.formula with
    (* Certify shares subtrees for repeated subformulas; re-checking a
       physically identical node would repeat identical work. A node
       that merely *claims* an already-checked formula is still checked
       in full. *)
    | Some (n0, pset) when n0 == n -> pset
    | _ ->
      let pset = check_node_uncached path n in
      Hashtbl.replace checked n.formula (n, pset);
      pset
  and check_node_uncached path (n : node) =
    let f = n.formula in
    validate_points path f n.points;
    let expected = expected_children f in
    if List.length n.children <> List.length expected then
      failf path f "expected %d children, certificate has %d" (List.length expected)
        (List.length n.children);
    List.iteri
      (fun i ((child : node), ef) ->
        if not (Formula.equal child.formula ef) then
          failf path f "child %d carries formula %s, expected subformula %s" i
            (Formula.to_string child.formula)
            (Formula.to_string ef))
      (List.combine n.children expected);
    let child_psets =
      List.mapi (fun i c -> check_node (path ^ "." ^ string_of_int i) c) n.children
    in
    let pset = pset_of n.points in
    let direct pred =
      (match n.evidence with
      | Direct -> ()
      | _ -> failf path f "unexpected evidence kind for a %s node" (kind_of f));
      match pred with Some pred -> assert_pointwise path f pset pred | None -> ()
    in
    let child_pset i = List.nth child_psets i in
    (match f with
    | True -> direct (Some (fun ~run:_ ~time:_ -> true))
    | False -> direct (Some (fun ~run:_ ~time:_ -> false))
    | Atom a ->
      direct
        (match valuation with
        | None -> None (* leaf trusted when the valuation is not supplied *)
        | Some v ->
          Some
            (fun ~run ~time ->
              v a (Tree.node_state tree (Tree.run_node tree ~run ~time))))
    | Not _ ->
      let c = child_pset 0 in
      direct (Some (fun ~run ~time -> not (pmem c run time)))
    | And _ ->
      let a = child_pset 0 and b = child_pset 1 in
      direct (Some (fun ~run ~time -> pmem a run time && pmem b run time))
    | Or _ ->
      let a = child_pset 0 and b = child_pset 1 in
      direct (Some (fun ~run ~time -> pmem a run time || pmem b run time))
    | Implies _ ->
      let a = child_pset 0 and b = child_pset 1 in
      direct (Some (fun ~run ~time -> (not (pmem a run time)) || pmem b run time))
    | Iff _ ->
      let a = child_pset 0 and b = child_pset 1 in
      direct (Some (fun ~run ~time -> pmem a run time = pmem b run time))
    | Does (i, act) ->
      check_agent path f i;
      direct
        (Some (fun ~run ~time -> Tree.action_at tree ~agent:i ~run ~time = Some act))
    | Eventually _ ->
      let c = child_pset 0 in
      let flags =
        Array.init n_runs (fun r ->
            let len = Tree.run_length tree r in
            let rec ex t = t < len && (pmem c r t || ex (t + 1)) in
            ex 0)
      in
      direct (Some (fun ~run ~time:_ -> flags.(run)))
    | Globally _ ->
      let c = child_pset 0 in
      let flags =
        Array.init n_runs (fun r ->
            let len = Tree.run_length tree r in
            let rec all t = t >= len || (pmem c r t && all (t + 1)) in
            all 0)
      in
      direct (Some (fun ~run ~time:_ -> flags.(run)))
    | Next _ ->
      let c = child_pset 0 in
      direct
        (Some
           (fun ~run ~time ->
             time + 1 < Tree.run_length tree run && pmem c run (time + 1)))
    | Once _ ->
      let c = child_pset 0 in
      direct
        (Some
           (fun ~run ~time ->
             let rec ex t = t >= 0 && (pmem c run t || ex (t - 1)) in
             ex time))
    | Historically _ ->
      let c = child_pset 0 in
      direct
        (Some
           (fun ~run ~time ->
             let rec all t = t < 0 || (pmem c run t && all (t - 1)) in
             all time))
    | Knows _ | EveryoneKnows _ -> (
      let agents =
        match f with
        | Knows (i, _) ->
          check_agent path f i;
          [ i ]
        | EveryoneKnows (grp, _) -> check_group path f grp
        | _ -> assert false
      in
      match n.evidence with
      | Knowledge cells ->
        let tables = check_kcells path f agents (child_pset 0) cells in
        assert_pointwise path f pset (table_pred tables)
      | _ -> failf path f "expected knowledge-cell evidence for a %s node" (kind_of f))
    | Believes (_, _, _, _) | EveryoneBelieves (_, _, _) -> (
      let agents, cmp, threshold =
        match f with
        | Believes (i, cmp, q, _) ->
          check_agent path f i;
          ([ i ], cmp, q)
        | EveryoneBelieves (grp, q, _) -> (check_group path f grp, Formula.Geq, q)
        | _ -> assert false
      in
      match n.evidence with
      | Belief cells ->
        let tables = check_bcells path f agents ~cmp ~threshold (child_pset 0) cells in
        assert_pointwise path f pset (table_pred tables)
      | _ -> failf path f "expected belief-cell evidence for a %s node" (kind_of f))
    | CommonKnows (grp, _) -> (
      let agents = check_group path f grp in
      match n.evidence with
      | Fixpoint iters ->
        let c = child_pset 0 in
        check_fixpoint path f n.points iters (fun x ->
            let tables =
              know_tables agents (fun ~run ~time -> pmem c run time && x ~run ~time)
            in
            table_pred tables)
      | _ -> failf path f "expected fixpoint evidence for a C node")
    | CommonBelief (grp, threshold, _) -> (
      let agents = check_group path f grp in
      match n.evidence with
      | Fixpoint iters ->
        let c = child_pset 0 in
        let base =
          let tables =
            believe_tables agents threshold (fun ~run ~time -> pmem c run time)
          in
          let pred = table_pred tables in
          let h = Hashtbl.create 64 in
          Tree.iter_points tree (fun ~run ~time ->
              if pred ~run ~time then Hashtbl.replace h (run, time) ());
          h
        in
        check_fixpoint path f n.points iters (fun x ->
            let tables = believe_tables agents threshold x in
            let pred = table_pred tables in
            fun ~run ~time -> pmem base run time && pred ~run ~time)
      | _ -> failf path f "expected fixpoint evidence for a CB node"));
    pset
  in
  try
    if cert.version <> schema_version then
      failf "root" cert.root.formula "certificate schema version %d, this checker expects %d"
        cert.version schema_version;
    if cert.n_agents <> Tree.n_agents tree then
      failf "root" cert.root.formula "certificate is for %d agents, the system has %d"
        cert.n_agents (Tree.n_agents tree);
    if cert.n_runs <> Tree.n_runs tree then
      failf "root" cert.root.formula "certificate is for %d runs, the system has %d"
        cert.n_runs (Tree.n_runs tree);
    if cert.n_points <> Tree.n_points tree then
      failf "root" cert.root.formula "certificate is for %d points, the system has %d"
        cert.n_points (Tree.n_points tree);
    ignore (check_node "root" cert.root);
    Ok ()
  with Violation v -> Result.Error v
