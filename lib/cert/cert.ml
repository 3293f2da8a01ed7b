open Pak_rational
open Pak_pps
open Pak_logic

module Obs = Pak_obs.Obs
module Budget = Pak_guard.Budget
module Error = Pak_guard.Error

let schema_version = 1

let c_certify = Obs.counter "cert.certify_calls"
let c_nodes = Obs.counter "cert.nodes"
let c_points = Obs.counter "cert.points"
let c_gfp = Obs.counter "cert.gfp_iters"
let c_checks = Obs.counter "cert.checks"
let c_check_violations = Obs.counter "cert.check_violations"
let c_claims = Obs.counter "cert.claims"
let c_claim_checks = Obs.counter "cert.claim_checks"
let c_claim_violations = Obs.counter "cert.claim_violations"

type points = (int * int) list

type kcell = {
  kc_agent : int;
  kc_time : int;
  kc_label : string;
  kc_cell : int list;
  kc_holds : bool;
}

type bcell = {
  bc_agent : int;
  bc_time : int;
  bc_label : string;
  bc_cell : int list;
  bc_sat : int list;
  bc_cell_measure : Q.t;
  bc_sat_measure : Q.t;
  bc_degree : Q.t;
  bc_holds : bool;
}

type evidence =
  | Direct
  | Knowledge of kcell list
  | Belief of bcell list
  | Fixpoint of points list

type node = {
  formula : Formula.t;
  points : points;
  evidence : evidence;
  children : node list;
}

type t = {
  version : int;
  n_agents : int;
  n_runs : int;
  n_points : int;
  root : node;
}

type violation = { path : string; formula : string; reason : string }

let pp_violation fmt v =
  Format.fprintf fmt "certificate violation at %s (%s): %s" v.path v.formula v.reason

let violation_to_string v = Format.asprintf "%a" pp_violation v

let group_agents grp = List.sort_uniq Stdlib.compare grp

(* Cells of one K/B/E/EB entry, as the walk reported them (per agent of
   the group, in group order), to evidence order: one cell per
   (agent, local state), sorted — an agent repeated in the group
   reports identical cells, which the de-duplication drops. *)
let evidence_cells cells =
  let key (k, _) = (Tree.lkey_agent k, Tree.lkey_time k, Tree.lkey_label k) in
  List.sort_uniq (fun a b -> Stdlib.compare (key a) (key b)) cells

(* Certification is evaluation with a sink: [Semantics.walk] reports
   every closure entry's fact, every K/B cell outcome of a K/B/E/EB
   entry and every C/CB approximant, and the sink turns what each entry
   reported into its node. Children are the nodes of the entry's child
   bits, so repeated subformulas share one node. *)
let certify tree ~valuation formula =
  Obs.incr c_certify;
  Obs.span "cert.certify" @@ fun () ->
  let nodes = Hashtbl.create 32 in
  let root = ref None in
  let kcells = ref [] and bcells = ref [] and steps = ref [] in
  let kcell key holds = kcells := (key, holds) :: !kcells in
  let bcell key ~sat ~degree holds = bcells := (key, (sat, degree, holds)) :: !bcells in
  let step x =
    Obs.incr c_gfp;
    steps := Fact.to_list x :: !steps
  in
  let knowledge () =
    Knowledge
      (List.map
         (fun (key, holds) ->
           {
             kc_agent = Tree.lkey_agent key;
             kc_time = Tree.lkey_time key;
             kc_label = Tree.lkey_label key;
             kc_cell = Bitset.to_list (Tree.lstate_runs tree key);
             kc_holds = holds;
           })
         (evidence_cells !kcells))
  in
  let belief () =
    Belief
      (List.map
         (fun (key, (sat, degree, holds)) ->
           let cell = Tree.lstate_runs tree key in
           {
             bc_agent = Tree.lkey_agent key;
             bc_time = Tree.lkey_time key;
             bc_label = Tree.lkey_label key;
             bc_cell = Bitset.to_list cell;
             bc_sat = Bitset.to_list sat;
             bc_cell_measure = Tree.measure tree cell;
             bc_sat_measure = Tree.measure tree sat;
             bc_degree = degree;
             bc_holds = holds;
           })
         (evidence_cells !bcells))
  in
  let entry (e : Closure.entry) fact =
    let evidence =
      match e.formula with
      | Knows _ | EveryoneKnows _ -> knowledge ()
      | Believes _ | EveryoneBelieves _ -> belief ()
      | CommonKnows _ | CommonBelief _ -> Fixpoint (List.rev !steps)
      | _ -> Direct
    in
    kcells := [];
    bcells := [];
    steps := [];
    let points = Fact.to_list fact in
    Obs.incr c_nodes;
    Obs.add c_points (List.length points);
    let children = Array.to_list (Array.map (Hashtbl.find nodes) e.children) in
    let node = { formula = e.formula; points; evidence; children } in
    Hashtbl.replace nodes e.bit node;
    root := Some node
  in
  ignore (Semantics.walk ~sink:{ entry; kcell; bcell; step } tree ~valuation formula);
  {
    version = schema_version;
    n_agents = Tree.n_agents tree;
    n_runs = Tree.n_runs tree;
    n_points = Tree.n_points tree;
    root = Option.get !root;
  }

let certify_result tree ~valuation formula =
  match certify tree ~valuation formula with
  | c -> Ok c
  | exception Invalid_argument msg -> Result.Error (Error.make Error.Invalid_system msg)

(* ------------------------------------------------------------------ *)
(* Independent checking                                                *)
(* ------------------------------------------------------------------ *)

exception Violation of violation

let holds_at cert ~run ~time = List.mem (run, time) cert.root.points

let size cert =
  let rec count (n : node) = List.fold_left (fun acc c -> acc + count c) 1 n.children in
  count cert.root

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

(* The least member of a non-empty set. *)
let least s =
  let exception Found of int in
  match Bitset.iter_members (fun i -> raise_notrace (Found i)) s with
  | () -> invalid_arg "Cert.least: empty set"
  | exception Found i -> i

(* Whether the set's members, in increasing order, are the list. *)
let same_members s l =
  let rest = ref l and ok = ref true in
  Bitset.iter_members
    (fun i ->
      match !rest with
      | x :: tl when x = i -> rest := tl
      | _ -> ok := false)
    s;
  !ok && !rest = []

(* Point sets are point-indexed bitsets, as in [Fact]: (r, t) is bit
   [Tree.run_offset tree r + t], so (run, time) order is bit order and
   the first point where two sets differ is the least member of their
   symmetric difference. Each node's validated list becomes one set;
   every connective is re-derived as a whole set and compared with
   [Bitset.equal]; only a mismatch looks for the point to report. *)
let check ?valuation tree cert =
  Obs.incr c_checks;
  Obs.span "cert.check" @@ fun () ->
  let fail path formula reason =
    raise (Violation { path; formula = Formula.to_string formula; reason })
  in
  let failf path formula fmt = Printf.ksprintf (fail path formula) fmt in
  let n_runs = Tree.n_runs tree and n_points = Tree.n_points tree in
  let off = Array.init n_runs (Tree.run_offset tree) in
  let len = Array.init n_runs (Tree.run_length tree) in
  (* The (run, time) of the first point where two unequal sets differ:
     the run is the last one starting at or before that point. *)
  let first_difference a b =
    let i = least (Bitset.symdiff a b) in
    let rec run lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if off.(mid) <= i then run mid hi else run lo mid
    in
    let r = run 0 n_runs in
    (i, r, i - off.(r))
  in
  (* A point list as a set, validated as it is read. *)
  let point_set path f pts =
    Bitset.build n_points (fun add ->
        let rec go pr pt = function
          | [] -> ()
          | (r, t) :: rest ->
            if r < 0 || r >= n_runs then
              failf path f "point (%d,%d): run index out of range" r t;
            if t < 0 || t >= len.(r) then
              failf path f "point (%d,%d): time out of range for the run" r t;
            if not (pr < r || (pr = r && pt < t)) then
              failf path f "point list not strictly increasing at (%d,%d)" r t;
            add (off.(r) + t);
            go r t rest
        in
        go (-1) 0 pts)
  in
  (* One pass over the points is charged wherever the checker compares
     or builds a whole point set, as a walk over the points would be. *)
  let charge_pass () = Budget.charge_points n_points in
  let holding b = if b then "holding" else "not holding" in
  let assert_equal path f recorded derived =
    if not (Bitset.equal recorded derived) then begin
      let i, run, time = first_difference recorded derived in
      let r = Bitset.mem recorded i in
      failf path f
        "point (%d,%d): certificate records the subformula as %s but re-derivation says %s"
        run time (holding r) (holding (not r))
    end
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
  (* Each agent's local states, in [Tree.lstates] order, and their
     cells as (time, runs). *)
  let lstates_of = Array.init (Tree.n_agents tree) (fun i -> lazy (Tree.lstates tree ~agent:i)) in
  let cells_of =
    Array.map
      (fun lks ->
        lazy
          (Array.of_list
             (List.map (fun lk -> (Tree.lkey_time lk, Tree.lstate_runs tree lk)) (Lazy.force lks))))
      lstates_of
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
          (Lazy.force lstates_of.(i)))
      agents;
    Hashtbl.iter
      (fun (a, time, label) () ->
        failf path f "evidence cell for unknown agent/local state: agent %d, (t=%d, %S)" a
          time label)
      seen
  in
  (* Whether the set holds at every run of a cell at the cell's time. *)
  let throughout set time cell =
    Bitset.for_all (fun r -> Bitset.mem set (off.(r) + time)) cell
  in
  (* [ϕ@ℓ]: the cell's runs whose point at the cell's time is in the
     set. *)
  let sat_runs set time cell = Bitset.filter (fun r -> Bitset.mem set (off.(r) + time)) cell in
  (* The points of the holding cells of one agent, intersected over the
     agents: what K/B/E/EB derive from their per-cell outcomes. *)
  let from_cells agents cells =
    let per_agent i =
      Bitset.build n_points (fun add ->
          List.iter
            (fun (agent, time, cell) ->
              if agent = i then Bitset.iter_members (fun r -> add (off.(r) + time)) cell)
            cells)
    in
    match agents with
    | [] -> Bitset.full n_points
    | i :: rest -> List.fold_left (fun acc j -> Bitset.inter acc (per_agent j)) (per_agent i) rest
  in
  (* One step's derived cells: every local state of every agent of the
     group whose cell passes [holds]. *)
  let step_cells agents holds =
    let acc = ref [] in
    List.iter
      (fun i ->
        Array.iter
          (fun (time, cell) -> if holds time cell then acc := (i, time, cell) :: !acc)
          (Lazy.force cells_of.(i)))
      agents;
    !acc
  in
  let check_kcells path f agents child cells =
    check_coverage path f agents
      (List.map (fun kc -> (kc.kc_agent, kc.kc_time, kc.kc_label)) cells);
    List.filter_map
      (fun kc ->
        let lk = Tree.lkey_make ~agent:kc.kc_agent ~time:kc.kc_time ~label:kc.kc_label in
        let cell = Tree.lstate_runs tree lk in
        if not (same_members cell kc.kc_cell) then
          failf path f
            "K-cell for agent %d (t=%d, %S): recorded runs do not match the tree's indistinguishability cell"
            kc.kc_agent kc.kc_time kc.kc_label;
        let holds = throughout child kc.kc_time cell in
        if holds <> kc.kc_holds then
          failf path f
            "K-cell for agent %d (t=%d, %S): recorded holds=%b but the inner formula %s at every run of the cell"
            kc.kc_agent kc.kc_time kc.kc_label kc.kc_holds
            (if holds then "does hold" else "does not hold");
        if holds then Some (kc.kc_agent, kc.kc_time, cell) else None)
      cells
  in
  let check_bcells path f agents ~cmp ~threshold child cells =
    check_coverage path f agents
      (List.map (fun bc -> (bc.bc_agent, bc.bc_time, bc.bc_label)) cells);
    List.filter_map
      (fun bc ->
        let lk = Tree.lkey_make ~agent:bc.bc_agent ~time:bc.bc_time ~label:bc.bc_label in
        let cell = Tree.lstate_runs tree lk in
        if not (same_members cell bc.bc_cell) then
          failf path f
            "B-cell for agent %d (t=%d, %S): recorded conditioning cell does not match the tree"
            bc.bc_agent bc.bc_time bc.bc_label;
        let sat = sat_runs child bc.bc_time cell in
        if not (same_members sat bc.bc_sat) then
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
        if holds then Some (bc.bc_agent, bc.bc_time, cell) else None)
      cells
  in
  (* [E^p_G] of a set, from the measures of every cell. *)
  let everyone_believes agents threshold set =
    from_cells agents
      (step_cells agents (fun time cell ->
           let sat = sat_runs set time cell in
           let degree = Q.div (Tree.measure tree sat) (Tree.measure tree cell) in
           Q.geq degree threshold))
  in
  let check_fixpoint path f node_set iters step =
    if iters = [] then failf path f "fixpoint evidence records no iterations";
    let sets = List.map (point_set path f) iters in
    let last =
      List.fold_left
        (fun (k, prev) set ->
          Budget.charge_iters 1;
          let derived = step prev in
          charge_pass ();
          if not (Bitset.equal set derived) then begin
            let _, run, time = first_difference set derived in
            failf path f
              "fixpoint iteration %d: recorded approximant differs from the re-computed step at point (%d,%d)"
              (k + 1) run time
          end;
          (k + 1, set))
        (0, Bitset.full n_points) sets
      |> snd
    in
    let before_last =
      match List.rev sets with _ :: prev :: _ -> prev | _ -> Bitset.full n_points
    in
    if not (Bitset.equal last before_last) then
      failf path f
        "fixpoint evidence is not terminated: the last two approximants differ (not a fixed point)";
    if not (Bitset.equal node_set last) then
      failf path f "node point set differs from the final fixpoint approximant"
  in
  let checked : (Formula.t, node * Bitset.t) Hashtbl.t = Hashtbl.create 32 in
  let rec check_node path (n : node) : Bitset.t =
    match Hashtbl.find_opt checked n.formula with
    (* Certify shares subtrees for repeated subformulas; re-checking a
       physically identical node would repeat identical work. A node
       that merely *claims* an already-checked formula is still checked
       in full. *)
    | Some (n0, set) when n0 == n -> set
    | _ ->
      let set = check_node_uncached path n in
      Hashtbl.replace checked n.formula (n, set);
      set
  and check_node_uncached path (n : node) =
    let f = n.formula in
    let set = point_set path f n.points in
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
    let child_sets =
      List.mapi (fun i c -> check_node (path ^ "." ^ string_of_int i) c) n.children
    in
    let child i = List.nth child_sets i in
    (* A node whose set follows from its children (or the valuation). *)
    let direct derive =
      (match n.evidence with
      | Direct -> ()
      | _ -> failf path f "unexpected evidence kind for a %s node" (Formula.op_tag f));
      match derive with
      | Some derive ->
        charge_pass ();
        assert_equal path f set (derive ())
      | None -> ()
    in
    (* A temporal operator, run by run: [g o l mem add] reads the run
       starting at point [o] of length [l]. *)
    let per_run g () =
      let c = child 0 in
      Bitset.build n_points (fun add ->
          for r = 0 to n_runs - 1 do
            g off.(r) len.(r) (Bitset.mem c) add
          done)
    in
    let fill o l add = for i = o to o + l - 1 do add i done in
    (match f with
    | True -> direct (Some (fun () -> Bitset.full n_points))
    | False -> direct (Some (fun () -> Bitset.create n_points))
    | Atom a ->
      direct
        (match valuation with
        | None -> None (* leaf trusted when the valuation is not supplied *)
        | Some v ->
          Some
            (fun () ->
              let holds = v a in
              Bitset.build n_points (fun add ->
                  for id = 0 to Tree.n_nodes tree - 1 do
                    if holds (Tree.node_state tree id) then begin
                      let time = Tree.node_depth tree id in
                      for r = Tree.node_first_run tree id to Tree.node_last_run tree id do
                        add (off.(r) + time)
                      done
                    end
                  done)))
    | Not _ -> direct (Some (fun () -> Bitset.complement (child 0)))
    | And _ -> direct (Some (fun () -> Bitset.inter (child 0) (child 1)))
    | Or _ -> direct (Some (fun () -> Bitset.union (child 0) (child 1)))
    | Implies _ -> direct (Some (fun () -> Bitset.union (Bitset.complement (child 0)) (child 1)))
    | Iff _ -> direct (Some (fun () -> Bitset.complement (Bitset.symdiff (child 0) (child 1))))
    | Does (i, act) ->
      check_agent path f i;
      direct
        (Some
           (fun () ->
             Bitset.build n_points (fun add ->
                 List.iter
                   (fun id ->
                     let time = Tree.node_depth tree id - 1 in
                     for r = Tree.node_first_run tree id to Tree.node_last_run tree id do
                       add (off.(r) + time)
                     done)
                   (Tree.action_nodes tree ~agent:i ~act))))
    | Eventually _ ->
      direct
        (Some
           (per_run (fun o l mem add ->
                let rec ex i = i < o + l && (mem i || ex (i + 1)) in
                if ex o then fill o l add)))
    | Globally _ ->
      direct
        (Some
           (per_run (fun o l mem add ->
                let rec all i = i >= o + l || (mem i && all (i + 1)) in
                if all o then fill o l add)))
    | Next _ ->
      direct
        (Some
           (per_run (fun o l mem add ->
                for i = o to o + l - 2 do
                  if mem (i + 1) then add i
                done)))
    | Once _ ->
      direct
        (Some
           (per_run (fun o l mem add ->
                let seen = ref false in
                for i = o to o + l - 1 do
                  if mem i then seen := true;
                  if !seen then add i
                done)))
    | Historically _ ->
      direct
        (Some
           (per_run (fun o l mem add ->
                let sofar = ref true in
                for i = o to o + l - 1 do
                  if not (mem i) then sofar := false;
                  if !sofar then add i
                done)))
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
        let holding = check_kcells path f agents (child 0) cells in
        charge_pass ();
        assert_equal path f set (from_cells agents holding)
      | _ -> failf path f "expected knowledge-cell evidence for a %s node" (Formula.op_tag f))
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
        let holding = check_bcells path f agents ~cmp ~threshold (child 0) cells in
        charge_pass ();
        assert_equal path f set (from_cells agents holding)
      | _ -> failf path f "expected belief-cell evidence for a %s node" (Formula.op_tag f))
    | CommonKnows (grp, _) -> (
      let agents = check_group path f grp in
      match n.evidence with
      | Fixpoint iters ->
        let c = child 0 in
        (* X ↦ E_G(ϕ ∧ X) *)
        check_fixpoint path f set iters (fun x ->
            let inner = Bitset.inter c x in
            from_cells agents (step_cells agents (throughout inner)))
      | _ -> failf path f "expected fixpoint evidence for a C node")
    | CommonBelief (grp, threshold, _) -> (
      let agents = check_group path f grp in
      match n.evidence with
      | Fixpoint iters ->
        (* X ↦ E^p_G(ϕ) ∧ E^p_G(X) *)
        let base = everyone_believes agents threshold (child 0) in
        charge_pass ();
        check_fixpoint path f set iters (fun x ->
            Bitset.inter base (everyone_believes agents threshold x))
      | _ -> failf path f "expected fixpoint evidence for a CB node"));
    set
  in
  charge_pass ();
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
  with Violation v ->
    Obs.incr c_check_violations;
    Result.Error v

(* ------------------------------------------------------------------ *)
(* JSON serialization                                                  *)
(* ------------------------------------------------------------------ *)

let add_jstring buf s =
  Buffer.add_char buf '"';
  Obs.Json.add_escaped buf s;
  Buffer.add_char buf '"'

(* [string_of_int], written into the buffer. *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))
  end

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let add_ints buf l =
  Buffer.add_char buf '[';
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char buf ',';
      add_int buf n)
    l;
  Buffer.add_char buf ']'

let add_points buf pts =
  Buffer.add_char buf '[';
  List.iteri
    (fun i (r, t) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      add_int buf r;
      Buffer.add_char buf ',';
      add_int buf t;
      Buffer.add_char buf ']')
    pts;
  Buffer.add_char buf ']'

(* {"agent":a,"time":t,"label": *)
let add_cell_head buf agent time =
  Buffer.add_string buf "{\"agent\":";
  add_int buf agent;
  Buffer.add_string buf ",\"time\":";
  add_int buf time;
  Buffer.add_string buf ",\"label\":"

let add_q buf q = add_jstring buf (Q.to_string q)

let to_json cert =
  Obs.span "cert.to_json" @@ fun () ->
  let buf = Buffer.create 4096 in
  let rec add_node (n : node) =
    Buffer.add_string buf "{\"formula\":";
    add_jstring buf (Formula.to_string n.formula);
    Buffer.add_string buf ",\"kind\":";
    add_jstring buf (Formula.op_tag n.formula);
    Buffer.add_string buf ",\"points\":";
    add_points buf n.points;
    (match n.evidence with
    | Direct -> ()
    | Knowledge cells ->
      Buffer.add_string buf ",\"evidence\":{\"type\":\"knowledge\",\"cells\":[";
      List.iteri
        (fun i kc ->
          if i > 0 then Buffer.add_char buf ',';
          add_cell_head buf kc.kc_agent kc.kc_time;
          add_jstring buf kc.kc_label;
          Buffer.add_string buf ",\"cell\":";
          add_ints buf kc.kc_cell;
          Buffer.add_string buf ",\"holds\":";
          add_bool buf kc.kc_holds;
          Buffer.add_char buf '}')
        cells;
      Buffer.add_string buf "]}"
    | Belief cells ->
      Buffer.add_string buf ",\"evidence\":{\"type\":\"belief\",\"cells\":[";
      List.iteri
        (fun i bc ->
          if i > 0 then Buffer.add_char buf ',';
          add_cell_head buf bc.bc_agent bc.bc_time;
          add_jstring buf bc.bc_label;
          Buffer.add_string buf ",\"cell\":";
          add_ints buf bc.bc_cell;
          Buffer.add_string buf ",\"sat\":";
          add_ints buf bc.bc_sat;
          Buffer.add_string buf ",\"cell_measure\":";
          add_q buf bc.bc_cell_measure;
          Buffer.add_string buf ",\"sat_measure\":";
          add_q buf bc.bc_sat_measure;
          Buffer.add_string buf ",\"degree\":";
          add_q buf bc.bc_degree;
          Buffer.add_string buf ",\"holds\":";
          add_bool buf bc.bc_holds;
          Buffer.add_char buf '}')
        cells;
      Buffer.add_string buf "]}"
    | Fixpoint iters ->
      Buffer.add_string buf ",\"evidence\":{\"type\":\"fixpoint\",\"iterations\":[";
      List.iteri
        (fun i pts ->
          if i > 0 then Buffer.add_char buf ',';
          add_points buf pts)
        iters;
      Buffer.add_string buf "]}");
    Buffer.add_string buf ",\"children\":[";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char buf ',';
        add_node c)
      n.children;
    Buffer.add_string buf "]}"
  in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema_version\":%d,\"system\":{\"agents\":%d,\"runs\":%d,\"points\":%d},\"root\":"
       cert.version cert.n_agents cert.n_runs cert.n_points);
  add_node cert.root;
  Buffer.add_char buf '}';
  Buffer.contents buf

module J = Pak_obs.Obs.Json

exception Decode of string

let jfield o name =
  match List.assoc_opt name o with
  | Some v -> v
  | None -> raise (Decode (Printf.sprintf "missing field %S" name))

let jint = function
  | J.Num f when Float.is_integer f -> int_of_float f
  | _ -> raise (Decode "expected an integer")

let jstr = function J.Str s -> s | _ -> raise (Decode "expected a string")
let jbool = function J.Bool b -> b | _ -> raise (Decode "expected a boolean")
let jarr = function J.Arr l -> l | _ -> raise (Decode "expected an array")
let jobj = function J.Obj o -> o | _ -> raise (Decode "expected an object")

let jq v =
  let s = jstr v in
  try Q.of_string s with
  | Invalid_argument _ -> raise (Decode (Printf.sprintf "malformed rational %S" s))
  | Error.Division_by_zero _ -> raise (Decode (Printf.sprintf "malformed rational %S" s))

let jpoint = function
  | J.Arr [ a; b ] -> (jint a, jint b)
  | _ -> raise (Decode "expected a [run,time] pair")

let jpoints v = List.map jpoint (jarr v)

let kcell_of v =
  let o = jobj v in
  {
    kc_agent = jint (jfield o "agent");
    kc_time = jint (jfield o "time");
    kc_label = jstr (jfield o "label");
    kc_cell = List.map jint (jarr (jfield o "cell"));
    kc_holds = jbool (jfield o "holds");
  }

let bcell_of v =
  let o = jobj v in
  {
    bc_agent = jint (jfield o "agent");
    bc_time = jint (jfield o "time");
    bc_label = jstr (jfield o "label");
    bc_cell = List.map jint (jarr (jfield o "cell"));
    bc_sat = List.map jint (jarr (jfield o "sat"));
    bc_cell_measure = jq (jfield o "cell_measure");
    bc_sat_measure = jq (jfield o "sat_measure");
    bc_degree = jq (jfield o "degree");
    bc_holds = jbool (jfield o "holds");
  }

let rec node_of v =
  let o = jobj v in
  let text = jstr (jfield o "formula") in
  let formula =
    match Parser.parse_result text with
    | Ok f -> f
    | Result.Error e -> raise (Decode (Printf.sprintf "unparseable formula %S: %s" text (Error.to_string e)))
  in
  let kind = jstr (jfield o "kind") in
  let tag = Formula.op_tag formula in
  if kind <> tag then
    raise (Decode (Printf.sprintf "node kind %S does not match formula %S (%s)" kind text tag));
  let points = jpoints (jfield o "points") in
  let evidence =
    match List.assoc_opt "evidence" o with
    | None -> Direct
    | Some ev -> (
      let eo = jobj ev in
      match jstr (jfield eo "type") with
      | "knowledge" -> Knowledge (List.map kcell_of (jarr (jfield eo "cells")))
      | "belief" -> Belief (List.map bcell_of (jarr (jfield eo "cells")))
      | "fixpoint" -> Fixpoint (List.map jpoints (jarr (jfield eo "iterations")))
      | s -> raise (Decode (Printf.sprintf "unknown evidence type %S" s)))
  in
  let children = List.map node_of (jarr (jfield o "children")) in
  { formula; points; evidence; children }

let of_json_string s =
  match J.parse s with
  | exception J.Bad msg -> Result.Error ("Cert.of_json_string: " ^ msg)
  | v -> (
    try
      let o = jobj v in
      let version = jint (jfield o "schema_version") in
      if version <> schema_version then
        raise
          (Decode (Printf.sprintf "unsupported schema version %d (expected %d)" version schema_version));
      let sys = jobj (jfield o "system") in
      Ok
        {
          version;
          n_agents = jint (jfield sys "agents");
          n_runs = jint (jfield sys "runs");
          n_points = jint (jfield sys "points");
          root = node_of (jfield o "root");
        }
    with Decode msg -> Result.Error ("Cert.of_json_string: " ^ msg))

(* ------------------------------------------------------------------ *)
(* Text rendering                                                      *)
(* ------------------------------------------------------------------ *)

let truncate_text s =
  if String.length s <= 72 then s else String.sub s 0 69 ^ "..."

let pp_int_list fmt l =
  List.iteri (fun i n -> Format.fprintf fmt "%s%d" (if i > 0 then " " else "") n) l

let pp ?depth ?at fmt cert =
  Format.fprintf fmt "certificate (schema %d): system with %d agents, %d runs, %d points@\n"
    cert.version cert.n_agents cert.n_runs cert.n_points;
  (match at with
  | Some (r, t) ->
    Format.fprintf fmt "verdict at (run %d, time %d): %s@\n" r t
      (if List.mem (r, t) cert.root.points then "HOLDS" else "DOES NOT HOLD")
  | None -> ());
  let max_cells = 12 in
  let rec go level (n : node) =
    let indent = String.make (2 * level) ' ' in
    let mark =
      match at with
      | None -> ""
      | Some (r, t) -> if List.mem (r, t) n.points then "  [holds here]" else "  [fails here]"
    in
    Format.fprintf fmt "%s%s  [%d/%d]%s@\n" indent
      (truncate_text (Formula.to_string n.formula))
      (List.length n.points) cert.n_points mark;
    (match n.evidence with
    | Direct -> ()
    | Knowledge cells ->
      let cells' =
        match at with
        | Some (r, t) ->
          List.filter (fun kc -> kc.kc_time = t && List.mem r kc.kc_cell) cells
        | None -> cells
      in
      let total = List.length cells' in
      let shown = List.filteri (fun i _ -> i < max_cells) cells' in
      List.iter
        (fun kc ->
          Format.fprintf fmt "%s  cell agent %d (t=%d, %S): runs {%a} - inner %s@\n" indent
            kc.kc_agent kc.kc_time kc.kc_label pp_int_list kc.kc_cell
            (if kc.kc_holds then "holds throughout" else "fails somewhere"))
        shown;
      if total > max_cells then
        Format.fprintf fmt "%s  ... (%d more cells)@\n" indent (total - max_cells)
    | Belief cells ->
      let cells' =
        match at with
        | Some (r, t) ->
          List.filter (fun bc -> bc.bc_time = t && List.mem r bc.bc_cell) cells
        | None -> cells
      in
      let total = List.length cells' in
      let shown = List.filteri (fun i _ -> i < max_cells) cells' in
      List.iter
        (fun bc ->
          Format.fprintf fmt
            "%s  cell agent %d (t=%d, %S): µ(cell)=%s µ(ϕ@cell)=%s degree=%s - %s@\n" indent
            bc.bc_agent bc.bc_time bc.bc_label
            (Q.to_string bc.bc_cell_measure)
            (Q.to_string bc.bc_sat_measure)
            (Q.to_string bc.bc_degree)
            (if bc.bc_holds then "meets the threshold" else "misses the threshold"))
        shown;
      if total > max_cells then
        Format.fprintf fmt "%s  ... (%d more cells)@\n" indent (total - max_cells)
    | Fixpoint iters ->
      Format.fprintf fmt "%s  fixpoint: %d iteration(s), |X| = %s@\n" indent
        (List.length iters)
        (String.concat " -> " (List.map (fun l -> string_of_int (List.length l)) iters)));
    let elide = match depth with Some d -> level >= d | None -> false in
    if elide && n.children <> [] then
      Format.fprintf fmt "%s  ... (children elided at depth %d)@\n" indent level
    else List.iter (go (level + 1)) n.children
  in
  go 0 cert.root

(* ------------------------------------------------------------------ *)
(* Theorem certificates                                                *)
(* ------------------------------------------------------------------ *)

module Theorem = struct
  type cell_line = {
    cl_time : int;
    cl_label : string;
    cl_cell : int list;
    cl_weight_event : int list;
    cl_weight : Q.t;
    cl_belief_event : int list;
    cl_belief : Q.t;
  }

  type t = {
    version : int;
    kind : string;
    paper : string;
    agent : int;
    act : string;
    p : Q.t option;
    eps : Q.t option;
    r_alpha : int list;
    mu_event : int list;
    mu : Q.t;
    cells : cell_line list;
    independent : bool;
    deterministic : bool;
    past_based : bool;
    verdict : bool;
  }

  let certify fact ~check ~agent ~act ?p ~eps () =
    Obs.incr c_claims;
    Obs.span "cert.theorem" @@ fun () ->
    let tree = Fact.tree fact in
    Action.check_proper tree ~agent ~act;
    let r_alpha = Action.runs_performing tree ~agent ~act in
    let mu_event = Fact.at_action fact ~agent ~act in
    let mu = Tree.cond tree mu_event ~given:r_alpha in
    let cells =
      List.map
        (fun key ->
          let cell = Tree.lstate_runs tree key in
          let wev = Action.performed_at_lstate tree ~agent ~act key in
          let bev = Fact.at_lstate fact key in
          {
            cl_time = Tree.lkey_time key;
            cl_label = Tree.lkey_label key;
            cl_cell = Bitset.to_list cell;
            cl_weight_event = Bitset.to_list wev;
            cl_weight = Tree.cond tree wev ~given:r_alpha;
            cl_belief_event = Bitset.to_list bev;
            cl_belief = Q.div (Tree.measure tree bev) (Tree.measure tree cell);
          })
        (Action.performing_lstates tree ~agent ~act)
    in
    let independent = Independence.holds fact ~agent ~act in
    let deterministic = Action.is_deterministic tree ~agent ~act in
    let past_based = Fact.is_past_based fact in
    let p_used, eps_used, verdict =
      match check with
      | Sweep.Expectation ->
        let r = Theorems.expectation_identity fact ~agent ~act in
        (None, None, r.Theorems.respected)
      | Sweep.Sufficiency ->
        let p =
          match p with
          | Some p -> p
          | None -> (
            match Belief.min_at_action fact ~agent ~act with
            | Some m -> m
            | None -> Q.one)
        in
        let r = Theorems.sufficiency fact ~agent ~act ~p in
        (Some p, None, r.Theorems.respected)
      | Sweep.Lemma43 ->
        let r = Theorems.lemma43 fact ~agent ~act in
        (None, None, r.Theorems.respected)
      | Sweep.Necessity ->
        let p = match p with Some p -> p | None -> mu in
        let r = Theorems.necessity_exists fact ~agent ~act ~p in
        (Some p, None, r.Theorems.respected)
      | Sweep.Pak_corollary ->
        let r = Theorems.pak_corollary fact ~agent ~act ~eps in
        (None, Some eps, r.Theorems.respected)
      | Sweep.Kop ->
        let r = Theorems.kop fact ~agent ~act in
        (None, None, r.Theorems.respected)
    in
    {
      version = schema_version;
      kind = Sweep.check_name check;
      paper = Sweep.paper_result check;
      agent;
      act;
      p = p_used;
      eps = eps_used;
      r_alpha = Bitset.to_list r_alpha;
      mu_event = Bitset.to_list mu_event;
      mu;
      cells;
      independent;
      deterministic;
      past_based;
      verdict;
    }

  let check tree ?fact (tc : t) =
    Obs.incr c_claim_checks;
    Obs.span "cert.theorem.check" @@ fun () ->
    let formula_text = Printf.sprintf "%s: agent %d, action %S" tc.kind tc.agent tc.act in
    let fail reason = raise (Violation { path = "theorem"; formula = formula_text; reason }) in
    let failf fmt = Printf.ksprintf fail fmt in
    try
      let check_kind =
        match Sweep.of_name tc.kind with
        | Some c -> c
        | None -> failf "unknown theorem kind %S" tc.kind
      in
      if tc.version <> schema_version then
        failf "certificate schema version %d, this checker expects %d" tc.version
          schema_version;
      if tc.paper <> Sweep.paper_result check_kind then
        failf "paper reference %S does not match kind %s (%s)" tc.paper tc.kind
          (Sweep.paper_result check_kind);
      if tc.agent < 0 || tc.agent >= Tree.n_agents tree then
        failf "agent %d out of range" tc.agent;
      let agent = tc.agent and act = tc.act in
      if not (Action.is_proper tree ~agent ~act) then
        failf "action %S is not proper for agent %d in this system" act agent;
      (match fact with
      | Some f when Tree.tree_id (Fact.tree f) <> Tree.tree_id tree ->
        failf "the supplied fact belongs to a different tree"
      | _ -> ());
      let n_runs = Tree.n_runs tree in
      let of_runs l = Bitset.of_list n_runs l in
      let r_alpha = Action.runs_performing tree ~agent ~act in
      if Bitset.to_list r_alpha <> tc.r_alpha then
        failf "recorded R_alpha does not match the runs performing the action";
      (* Cell coverage: exactly the performing local states. *)
      let perf = Action.performing_lstates tree ~agent ~act in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun cl ->
          let key = (cl.cl_time, cl.cl_label) in
          if Hashtbl.mem seen key then
            failf "duplicate cell for local state (t=%d, %S)" cl.cl_time cl.cl_label;
          Hashtbl.add seen key ())
        tc.cells;
      List.iter
        (fun lk ->
          let key = (Tree.lkey_time lk, Tree.lkey_label lk) in
          if not (Hashtbl.mem seen key) then
            failf "missing cell for performing local state (t=%d, %S)" (Tree.lkey_time lk)
              (Tree.lkey_label lk);
          Hashtbl.remove seen key)
        perf;
      Hashtbl.iter
        (fun (time, label) () ->
          failf "cell for (t=%d, %S), which is not a performing local state" time label)
        seen;
      (* Per-cell re-derivation. *)
      List.iter
        (fun cl ->
          let lk = Tree.lkey_make ~agent ~time:cl.cl_time ~label:cl.cl_label in
          let cell = Tree.lstate_runs tree lk in
          if Bitset.to_list cell <> cl.cl_cell then
            failf "cell (t=%d, %S): recorded runs do not match the tree" cl.cl_time
              cl.cl_label;
          let wev = Action.performed_at_lstate tree ~agent ~act lk in
          if Bitset.to_list wev <> cl.cl_weight_event then
            failf "cell (t=%d, %S): recorded weight event differs from alpha@l" cl.cl_time
              cl.cl_label;
          let w = Tree.cond tree wev ~given:r_alpha in
          if not (Q.equal w cl.cl_weight) then
            failf "cell (t=%d, %S): weight is %s, certificate says %s" cl.cl_time
              cl.cl_label (Q.to_string w) (Q.to_string cl.cl_weight);
          let bev = of_runs cl.cl_belief_event in
          if not (Bitset.subset bev cell) then
            failf "cell (t=%d, %S): belief event is not contained in the cell" cl.cl_time
              cl.cl_label;
          (match fact with
          | Some f ->
            if Bitset.to_list (Fact.at_lstate f lk) <> cl.cl_belief_event then
              failf "cell (t=%d, %S): recorded belief event differs from phi@l" cl.cl_time
                cl.cl_label
          | None -> ());
          let beta = Q.div (Tree.measure tree bev) (Tree.measure tree cell) in
          if not (Q.equal beta cl.cl_belief) then
            failf "cell (t=%d, %S): degree of belief is %s, certificate says %s" cl.cl_time
              cl.cl_label (Q.to_string beta) (Q.to_string cl.cl_belief))
        tc.cells;
      (* Weights form a distribution over R_alpha. *)
      let weight_sum = Q.sum (List.map (fun cl -> cl.cl_weight) tc.cells) in
      if not (Q.equal weight_sum Q.one) then
        failf "cell weights sum to %s, not 1" (Q.to_string weight_sum);
      (* Lemma B.1: phi@alpha decomposes over the performing local
         states as the union of alpha@l inter phi@l. *)
      let mu_event = of_runs tc.mu_event in
      let decomposed =
        List.fold_left
          (fun acc cl ->
            Bitset.union acc
              (Bitset.inter (of_runs cl.cl_weight_event) (of_runs cl.cl_belief_event)))
          (Tree.empty_event tree) tc.cells
      in
      if not (Bitset.equal mu_event decomposed) then
        failf
          "recorded phi@alpha does not equal the union of (alpha@l inter phi@l) over the cells (Lemma B.1)";
      (match fact with
      | Some f ->
        if Bitset.to_list (Fact.at_action f ~agent ~act) <> tc.mu_event then
          failf "recorded phi@alpha differs from the fact's at-action event"
      | None -> ());
      let mu = Tree.cond tree mu_event ~given:r_alpha in
      if not (Q.equal mu tc.mu) then
        failf "mu(phi@alpha | alpha) is %s, certificate says %s" (Q.to_string mu)
          (Q.to_string tc.mu);
      let deterministic = Action.is_deterministic tree ~agent ~act in
      if deterministic <> tc.deterministic then
        failf "action determinism re-derives to %b, certificate says %b" deterministic
          tc.deterministic;
      let independent =
        match fact with
        | Some f ->
          let ind = Independence.holds f ~agent ~act in
          if ind <> tc.independent then
            failf "local-state independence re-derives to %b, certificate says %b" ind
              tc.independent;
          ind
        | None -> tc.independent
      in
      let past_based =
        match fact with
        | Some f ->
          let pb = Fact.is_past_based f in
          if pb <> tc.past_based then
            failf "past-basedness re-derives to %b, certificate says %b" pb tc.past_based;
          pb
        | None -> tc.past_based
      in
      let imp a b = (not a) || b in
      let require_p () =
        match tc.p with Some p -> p | None -> failf "kind %s requires a threshold p" tc.kind
      in
      let mass pred =
        (* µ({r ∈ R_α : β at r's acting cell satisfies pred} | R_α) *)
        let ev =
          List.fold_left
            (fun acc cl ->
              if pred cl.cl_belief then Bitset.union acc (of_runs cl.cl_weight_event)
              else acc)
            (Tree.empty_event tree) tc.cells
        in
        Tree.cond tree ev ~given:r_alpha
      in
      let verdict =
        match check_kind with
        | Sweep.Expectation ->
          let expected =
            Q.sum (List.map (fun cl -> Q.mul cl.cl_weight cl.cl_belief) tc.cells)
          in
          imp independent (Q.equal mu expected)
        | Sweep.Sufficiency ->
          let p = require_p () in
          let min_belief =
            List.fold_left (fun acc cl -> Q.min acc cl.cl_belief) Q.one tc.cells
          in
          imp (independent && Q.geq min_belief p) (Q.geq mu p)
        | Sweep.Lemma43 -> imp (deterministic || past_based) independent
        | Sweep.Necessity ->
          let p = require_p () in
          imp
            (independent && Q.geq mu p)
            (List.exists (fun cl -> Q.geq cl.cl_belief p) tc.cells)
        | Sweep.Pak_corollary ->
          let eps =
            match tc.eps with
            | Some e -> e
            | None -> failf "kind cor72 requires an epsilon"
          in
          let premise = Q.geq mu (Q.one_minus (Q.mul eps eps)) in
          let strong = mass (fun beta -> Q.geq beta (Q.one_minus eps)) in
          imp (independent && premise) (Q.geq strong (Q.one_minus eps))
        | Sweep.Kop ->
          let premise = Q.equal mu Q.one in
          let certain = mass (fun beta -> Q.equal beta Q.one) in
          imp (independent && premise) (Q.equal certain Q.one)
      in
      if verdict <> tc.verdict then
        failf "verdict re-derives to %b, certificate says %b" verdict tc.verdict;
      Ok ()
    with Violation v ->
      Obs.incr c_claim_violations;
      Result.Error v

  let pp fmt (tc : t) =
    Format.fprintf fmt "%s (%s) certificate: agent %d, action %S@\n" tc.kind tc.paper
      tc.agent tc.act;
    (match tc.p with
    | Some p -> Format.fprintf fmt "  threshold p = %s@\n" (Q.to_string p)
    | None -> ());
    (match tc.eps with
    | Some e -> Format.fprintf fmt "  epsilon = %s@\n" (Q.to_string e)
    | None -> ());
    Format.fprintf fmt "  R_alpha = {%a}, mu(phi@@alpha | alpha) = %s@\n" pp_int_list
      tc.r_alpha (Q.to_string tc.mu);
    Format.fprintf fmt "  independent=%b deterministic=%b past_based=%b@\n" tc.independent
      tc.deterministic tc.past_based;
    List.iter
      (fun cl ->
        Format.fprintf fmt "  cell (t=%d, %S): w=%s beta=%s@\n" cl.cl_time cl.cl_label
          (Q.to_string cl.cl_weight) (Q.to_string cl.cl_belief))
      tc.cells;
    Format.fprintf fmt "  verdict: %s@\n" (if tc.verdict then "respected" else "VIOLATED")
end

(* ------------------------------------------------------------------ *)
(* Sweep certification                                                 *)
(* ------------------------------------------------------------------ *)

type sweep_report = {
  sw_check : Sweep.check;
  sw_eps : Q.t;
  sw_first_seed : int;
  sw_count : int;
  sw_certified : int;
  sw_skipped : int;
  sw_failures : (int * violation) list;
}

type sweep_outcome = Certified | Skip | Failed of violation

let certify_sweep ?pool ?(params = Gen.default_params) ?(eps = Q.of_ints 1 10) check
    ~first_seed ~count =
  if count < 0 then invalid_arg "Cert.certify_sweep: negative count";
  Obs.span "cert.sweep" @@ fun () ->
  let certify seed =
    match Sweep.seed_instance ~params seed with
    | None -> Skip
    | Some (tree, (agent, act), fact) -> (
      let tc = Theorem.certify fact ~check ~agent ~act ~eps () in
      match Theorem.check tree ~fact tc with
      | Ok () -> Certified
      | Result.Error v -> Failed v)
  in
  let certified, skipped, failures =
    Sweep.fold_seeds ?pool ~first_seed ~count certify ~init:(0, 0, [])
      (fun (certified, skipped, failures) seed -> function
        | Skip -> (certified, skipped + 1, failures)
        | Certified -> (certified + 1, skipped, failures)
        | Failed v -> (certified, skipped, (seed, v) :: failures))
  in
  {
    sw_check = check;
    sw_eps = eps;
    sw_first_seed = first_seed;
    sw_count = count;
    sw_certified = certified;
    sw_skipped = skipped;
    sw_failures = List.rev failures;
  }

let sweep_passed r = r.sw_failures = [] && r.sw_certified > 0

let pp_sweep_report fmt r =
  Format.fprintf fmt
    "%-8s (%s) certificates: seeds %d..%d: %d certified, %d skipped, %d rejected  %s"
    (Sweep.check_name r.sw_check)
    (Sweep.paper_result r.sw_check)
    r.sw_first_seed
    (r.sw_first_seed + r.sw_count - 1)
    r.sw_certified r.sw_skipped
    (List.length r.sw_failures)
    (if sweep_passed r then "OK" else "FAIL");
  List.iter
    (fun (seed, v) -> Format.fprintf fmt "@\n  seed %d: %s" seed (violation_to_string v))
    r.sw_failures
