open Pak_rational
open Pak_pps

module Obs = Pak_obs.Obs
module Budget = Pak_guard.Budget

let c_memo_hits = Obs.counter "semantics.memo_hits"
let c_memo_misses = Obs.counter "semantics.memo_misses"
let c_gfp_iters = Obs.counter "semantics.gfp_iters"
let c_gfp_iters_ck = Obs.counter "semantics.gfp_iters.common_knowledge"
let c_gfp_iters_cb = Obs.counter "semantics.gfp_iters.common_belief"

(* Memo effectiveness as a sampled gauge: hits / (hits + misses).
   Deterministic — both inputs are exact work counters — so snapshot
   diffs can hold it to tolerance like any other gauge. Reported only
   once any lookup happened, so unrelated workloads snapshot clean. *)
let () =
  Obs.register_gauges (fun () ->
      let hits = Obs.value c_memo_hits and misses = Obs.value c_memo_misses in
      let total = hits + misses in
      if total = 0 then []
      else [ ("semantics.memo_hit_rate", float_of_int hits /. float_of_int total) ])

(* Span label per syntactic operator, so traces show where evaluation
   time goes by connective rather than by (unbounded) formula text. *)
let op_tag : Formula.t -> string = function
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

type valuation = string -> Gstate.t -> bool

let generic_valuation atom =
  (* generic atoms: "a<i>_<label>" tests agent i's label. The agent
     index is every digit up to the first underscore, so the valuation
     works for systems with any number of agents. The atom is parsed
     once per partial application; the returned test allocates
     nothing. *)
  match String.index_opt atom '_' with
  | Some sep when sep > 1 && atom.[0] = 'a' ->
    (match int_of_string_opt (String.sub atom 1 (sep - 1)) with
     | Some i when i >= 0 ->
       let label = String.sub atom (sep + 1) (String.length atom - sep - 1) in
       fun g -> i < Gstate.n_agents g && String.equal (Gstate.local g i) label
     | _ -> fun _ -> false)
  | _ -> fun _ -> false

let satisfies_cmp (c : Formula.cmp) degree threshold =
  match c with
  | Formula.Geq -> Q.geq degree threshold
  | Formula.Gt -> Q.gt degree threshold
  | Formula.Leq -> Q.leq degree threshold
  | Formula.Lt -> Q.lt degree threshold
  | Formula.Eq -> Q.equal degree threshold

let check_group = function
  | [] -> invalid_arg "Semantics: empty agent group"
  | g -> g

(* ------------------------------------------------------------------ *)
(* The closure walk                                                     *)
(* ------------------------------------------------------------------ *)

module Pool = Pak_par.Pool

let c_vec_evals = Obs.counter "eval_vec.evals"
let c_vec_entries = Obs.counter "eval_vec.entries"
let c_vec_cells = Obs.counter "eval_vec.cells"

type sink = {
  entry : Closure.entry -> Fact.t -> unit;
  kcell : Tree.lkey -> bool -> unit;
  bcell : Tree.lkey -> sat:Bitset.t -> degree:Q.t -> bool -> unit;
  step : Fact.t -> unit;
}

type bcell = { sat : Bitset.t; degree : Q.t; holds : bool }

(* One evaluation = one Closure.of_formula + one Fact.t (a packed
   bitset over dense point indices) per closure entry, filled
   bottom-up: children first, which the closure's bit order is a valid
   schedule for. Counter contract: semantics.memo_misses = closure
   entries (one "miss" per distinct subformula), semantics.memo_hits =
   hash-consed duplicate occurrences, one semantics.gfp_iters* bump per
   fixpoint step; bitset.*/eval_vec.*/closure.* profile the vector
   work. With a sink, the walk also reports what it computed: every
   K/B cell of a K/B/E/EB entry (the cells swept inside a C/CB
   fixpoint are not reported), every C/CB approximant, and every
   entry's fact once it is final. *)
let walk ?pool ?sink tree ~valuation formula =
  Obs.span "semantics.eval_vec" @@ fun () ->
  Obs.incr c_vec_evals;
  let clo = Closure.of_formula formula in
  let n = Tree.n_points tree in
  let check_agent i =
    if i < 0 || i >= Tree.n_agents tree then
      invalid_arg (Printf.sprintf "Semantics.eval: agent %d out of range" i)
  in
  (* Per-indistinguishability-cell sweeps (K/B and their group forms):
     each of the agent's local states is one independent cell, so the
     cell array shards on the pool when one is given. The pool
     re-installs the caller's budget scope in its workers, so charges
     made inside a cell count against the same budget at any job
     count; outcomes are reported and assembled in cell order on the
     calling domain, so the result is jobs-invariant. *)
  let shard cells f =
    match pool with
    | Some p when Array.length cells > 1 -> Pool.map p f cells
    | _ -> Array.map f cells
  in
  let cellwise ~agent sweep holds report =
    let cells = Array.of_list (Tree.lstates tree ~agent) in
    Obs.add c_vec_cells (Array.length cells);
    let outcomes = shard cells sweep in
    Option.iter (fun report -> Array.iteri (fun c key -> report key outcomes.(c)) cells) report;
    let holding = ref [] in
    for c = Array.length cells - 1 downto 0 do
      if holds outcomes.(c) then holding := cells.(c) :: !holding
    done;
    Fact.of_lstates tree !holding
  in
  let point run time = Tree.run_offset tree run + time in
  let kvec ?report ~agent inner =
    let bits = Fact.points inner in
    cellwise ~agent
      (fun key ->
        let time = Tree.lkey_time key in
        Bitset.for_all (fun run -> Bitset.mem bits (point run time)) (Tree.lstate_runs tree key))
      Fun.id
      (Option.map (fun s -> s.kcell) report)
  in
  let bvec ?report ~agent ~cmp ~threshold inner =
    let bits = Fact.points inner in
    cellwise ~agent
      (fun key ->
        let time = Tree.lkey_time key in
        let cell = Tree.lstate_runs tree key in
        (* [inner@ℓ] as an event, read off the cell's members, then
           the conditional measure µ(inner@ℓ | ℓ) of
           Belief.degree_at_lstate. *)
        let sat = Bitset.filter (fun run -> Bitset.mem bits (point run time)) cell in
        let degree = Tree.cond tree sat ~given:cell in
        { sat; degree; holds = satisfies_cmp cmp degree threshold })
      (fun b -> b.holds)
      (Option.map (fun s key b -> s.bcell key ~sat:b.sat ~degree:b.degree b.holds) report)
  in
  let inter_all = function
    | [] -> invalid_arg "Semantics: empty agent group"
    | v :: rest -> List.fold_left Fact.and_ v rest
  in
  let evec ?report grp inner = inter_all (List.map (fun i -> kvec ?report ~agent:i inner) grp) in
  let epvec ?report grp threshold x =
    inter_all (List.map (fun i -> bvec ?report ~agent:i ~cmp:Formula.Geq ~threshold x) grp)
  in
  (* Greatest fixpoint from the top element. One iteration = one step
     application, counted and charged before the step so an exhausted
     --max-iters budget trips before any work; the whole-vector
     equality test charges one pass over the points. *)
  let gfp ~counter step =
    let rec iterate x =
      Obs.incr c_gfp_iters;
      Obs.incr counter;
      Budget.charge_iters 1;
      let x' = step x in
      Option.iter (fun s -> s.step x') sink;
      Budget.charge_points n;
      if Bitset.equal (Fact.points x) (Fact.points x') then x else iterate x'
    in
    iterate (Fact.tt tree)
  in
  let facts = Array.make (Closure.size clo) (Fact.ff tree) in
  Array.iter
    (fun (e : Closure.entry) ->
      Obs.incr c_vec_entries;
      Obs.incr c_memo_misses;
      (* One whole-vector pass per entry. *)
      Budget.charge_points n;
      let v =
        Obs.span ("semantics.eval_vec." ^ op_tag e.formula) @@ fun () ->
        let child k = facts.(e.children.(k)) in
        match e.formula with
        | True -> Fact.tt tree
        | False -> Fact.ff tree
        | Atom a -> Fact.of_state_pred tree (valuation a)
        | Not _ -> Fact.not_ (child 0)
        | And _ -> Fact.and_ (child 0) (child 1)
        | Or _ -> Fact.or_ (child 0) (child 1)
        | Implies _ -> Fact.implies (child 0) (child 1)
        | Iff _ -> Fact.iff (child 0) (child 1)
        | Does (i, act) ->
          check_agent i;
          Fact.does tree ~agent:i ~act
        | Eventually _ -> Fact.eventually (child 0)
        | Globally _ -> Fact.globally (child 0)
        | Next _ -> Fact.next (child 0)
        | Once _ -> Fact.once (child 0)
        | Historically _ -> Fact.historically (child 0)
        | Knows (i, _) ->
          check_agent i;
          kvec ?report:sink ~agent:i (child 0)
        | Believes (i, cmp, threshold, _) ->
          check_agent i;
          bvec ?report:sink ~agent:i ~cmp ~threshold (child 0)
        | EveryoneKnows (grp, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          evec ?report:sink grp (child 0)
        | CommonKnows (grp, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          let inner = child 0 in
          (* gfp X. E_G(inner ∧ X) *)
          gfp ~counter:c_gfp_iters_ck (fun x -> evec grp (Fact.and_ inner x))
        | EveryoneBelieves (grp, threshold, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          epvec ?report:sink grp threshold (child 0)
        | CommonBelief (grp, threshold, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          (* Monderer–Samet common p-belief as the greatest fixpoint
             X = E^p_G(inner) ∧ E^p_G(X): the largest "p-evident" event
             within everyone-p-believes-ϕ. *)
          let base = epvec grp threshold (child 0) in
          gfp ~counter:c_gfp_iters_cb (fun x -> Fact.and_ base (epvec grp threshold x))
      in
      Option.iter (fun s -> s.entry e v) sink;
      facts.(e.bit) <- v)
    (Closure.entries clo);
  Obs.add c_memo_hits (Closure.duplicates clo);
  facts.(Closure.root_bit clo)

let eval ?pool tree ~valuation formula = walk ?pool tree ~valuation formula
let eval_vec = eval
let eval_auto = eval

let sat tree ~valuation formula ~run ~time =
  Fact.holds (eval tree ~valuation formula) ~run ~time

let valid tree ~valuation formula =
  Bitset.cardinal (Fact.points (eval tree ~valuation formula)) = Tree.n_points tree

(* The time-0 point of every run, as an event over runs. *)
let initially tree fact =
  let bits = Fact.points fact in
  Bitset.init (Tree.n_runs tree) (fun run -> Bitset.mem bits (Tree.run_offset tree run))

type summary = { points : int; sat : int; valid : bool; prob : Pak_rational.Q.t Lazy.t }

let summarize tree fact =
  let points = Tree.n_points tree in
  let sat =
    Tree.fold_points tree ~init:0 ~f:(fun acc ~run ~time ->
        if Fact.holds fact ~run ~time then acc + 1 else acc)
  in
  { points; sat; valid = sat = points; prob = lazy (Tree.measure tree (initially tree fact)) }

let valid_initially tree ~valuation formula =
  let ev = initially tree (eval tree ~valuation formula) in
  Bitset.cardinal ev = Tree.n_runs tree

let probability tree ~valuation formula =
  Tree.measure tree (initially tree (eval tree ~valuation formula))
