(* The reference model checker the tests compare Semantics.eval and
   certificates against: structural recursion over the formula with a
   formula-keyed memo, built only on the public Fact/Tree/Belief API.
   It shares no evaluation code with the closure walk — K and B are
   decided per point through the agent's local state, fixpoints
   compare facts point by point — so agreement between the two is
   evidence, not tautology. *)

open Pak_rational
open Pak_pps
open Pak_logic

(* The walk's counter contract, counted here: one miss per distinct
   subformula, one hit per repeated occurrence, one fixpoint iteration
   per step. *)
type counts = {
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable gfp_ck : int;
  mutable gfp_cb : int;
}

let counts () = { memo_hits = 0; memo_misses = 0; gfp_ck = 0; gfp_cb = 0 }

(* A fact from a per-local-state boolean: true at (r,t) iff [pred]
   holds of the agent's local state there. *)
let fact_of_lstate_pred tree ~agent pred =
  let cache : (Tree.lkey, bool) Hashtbl.t = Hashtbl.create 32 in
  Fact.of_pred tree (fun ~run ~time ->
      let key = Tree.lkey tree ~agent ~run ~time in
      match Hashtbl.find_opt cache key with
      | Some v -> v
      | None ->
        let v = pred key in
        Hashtbl.add cache key v;
        v)

let knows_fact tree ~agent inner =
  fact_of_lstate_pred tree ~agent (fun key ->
      let time = Tree.lkey_time key in
      Bitset.for_all (fun run -> Fact.holds inner ~run ~time) (Tree.lstate_runs tree key))

let satisfies (c : Formula.cmp) degree threshold =
  let k = Q.compare degree threshold in
  match c with Geq -> k >= 0 | Gt -> k > 0 | Leq -> k <= 0 | Lt -> k < 0 | Eq -> k = 0

let believes_fact tree ~agent ~cmp ~threshold inner =
  fact_of_lstate_pred tree ~agent (fun key ->
      satisfies cmp (Belief.degree_at_lstate inner key) threshold)

let facts_equal tree a b =
  Tree.fold_points tree ~init:true ~f:(fun acc ~run ~time ->
      acc && Fact.holds a ~run ~time = Fact.holds b ~run ~time)

(* Greatest fixpoint from the top element, by iteration. *)
let gfp tree ~count step =
  let rec iterate x =
    count ();
    let x' = step x in
    if facts_equal tree x x' then x else iterate x'
  in
  iterate (Fact.tt tree)

(* [evaluator tree ~valuation] evaluates formulas sharing one memo, so
   every subformula of a certificate can be looked up cheaply. Raises
   the same [Invalid_argument] messages as [Semantics.eval]. *)
let evaluator ?(counts = counts ()) tree ~valuation =
  let memo : (Formula.t, Fact.t) Hashtbl.t = Hashtbl.create 32 in
  let check_agent i =
    if i < 0 || i >= Tree.n_agents tree then
      invalid_arg (Printf.sprintf "Semantics.eval: agent %d out of range" i)
  in
  let check_group grp =
    if grp = [] then invalid_arg "Semantics: empty agent group";
    List.iter check_agent grp
  in
  let everyone grp per_agent = Fact.conj tree (List.map per_agent grp) in
  let rec go (f : Formula.t) =
    match Hashtbl.find_opt memo f with
    | Some fact ->
      counts.memo_hits <- counts.memo_hits + 1;
      fact
    | None ->
      counts.memo_misses <- counts.memo_misses + 1;
      let fact =
        match f with
        | True -> Fact.tt tree
        | False -> Fact.ff tree
        | Atom a -> Fact.of_state_pred tree (valuation a)
        | Not g -> Fact.not_ (go g)
        | And (a, b) -> Fact.and_ (go a) (go b)
        | Or (a, b) -> Fact.or_ (go a) (go b)
        | Implies (a, b) -> Fact.implies (go a) (go b)
        | Iff (a, b) -> Fact.iff (go a) (go b)
        | Does (i, act) ->
          check_agent i;
          Fact.does tree ~agent:i ~act
        | Eventually g -> Fact.eventually (go g)
        | Globally g -> Fact.globally (go g)
        | Next g -> Fact.next (go g)
        | Once g -> Fact.once (go g)
        | Historically g -> Fact.historically (go g)
        | Knows (i, g) ->
          check_agent i;
          knows_fact tree ~agent:i (go g)
        | Believes (i, cmp, threshold, g) ->
          check_agent i;
          believes_fact tree ~agent:i ~cmp ~threshold (go g)
        | EveryoneKnows (grp, g) ->
          check_group grp;
          let inner = go g in
          everyone grp (fun i -> knows_fact tree ~agent:i inner)
        | CommonKnows (grp, g) ->
          check_group grp;
          let inner = go g in
          (* gfp X. E_G(inner ∧ X) *)
          gfp tree
            ~count:(fun () -> counts.gfp_ck <- counts.gfp_ck + 1)
            (fun x ->
              let body = Fact.and_ inner x in
              everyone grp (fun i -> knows_fact tree ~agent:i body))
        | EveryoneBelieves (grp, threshold, g) ->
          check_group grp;
          let inner = go g in
          everyone grp (fun i -> believes_fact tree ~agent:i ~cmp:Geq ~threshold inner)
        | CommonBelief (grp, threshold, g) ->
          check_group grp;
          let inner = go g in
          (* X = E^p_G(inner) ∧ E^p_G(X) *)
          let ep x = everyone grp (fun i -> believes_fact tree ~agent:i ~cmp:Geq ~threshold x) in
          let base = ep inner in
          gfp tree
            ~count:(fun () -> counts.gfp_cb <- counts.gfp_cb + 1)
            (fun x -> Fact.and_ base (ep x))
      in
      Hashtbl.add memo f fact;
      fact
  in
  go

let eval ?counts tree ~valuation formula = evaluator ?counts tree ~valuation formula
