open Pak_rational

module Obs = Pak_obs.Obs

type params = {
  n_agents : int;
  depth : int;
  max_branching : int;
  label_alphabet : int;
  act_alphabet : int;
  max_weight : int;
  early_stop_pct : int;
  deterministic_acts : bool;
}

let default_params =
  { n_agents = 2;
    depth = 3;
    max_branching = 2;
    label_alphabet = 2;
    act_alphabet = 3;
    max_weight = 5;
    early_stop_pct = 15;
    deterministic_acts = false
  }

(* SplitMix64-style generator on the 63-bit native int; quality is more
   than sufficient for structural test-case generation. *)
module Prng = struct
  type t = { mutable state : int }

  let create ~salt seed = { state = (seed * 2_654_435_769) lxor salt }

  (* SplitMix constants truncated to fit OCaml's 63-bit int literals;
     multiplication wraps modulo 2^63, which is what we want. *)
  let next g =
    g.state <- (g.state + 0x1E3779B97F4A7C15) land max_int;
    let z = g.state in
    let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int

  let int g bound = if bound <= 0 then 0 else next g mod bound
end

let prng seed = Prng.create ~salt:0x9E3779B9 seed

let normalized_weights rng ~max_weight k =
  let ws = List.init k (fun _ -> 1 + Prng.int rng max_weight) in
  let total = List.fold_left ( + ) 0 ws in
  List.map (fun w -> Q.of_ints w total) ws

(* The labels [<prefix><depth>_<i>] of one generation, for depths below
   [depths] and indices below [width], each formatted on first use and
   shared after that. The draws keep every index below its alphabet's
   size (or 1 when that is not positive), and a negative act alphabet
   size [-n] yields indices below [n] by [mod]. A table belongs to one
   call: sweeps generate trees on several domains. *)
let label_table prefix ~depths ~width =
  let width = max 1 (abs width) in
  let table = Array.make (max 1 depths * width) "" in
  fun depth i ->
    let slot = (depth * width) + i in
    match table.(slot) with
    | "" ->
      let s = prefix ^ string_of_int depth ^ "_" ^ string_of_int i in
      table.(slot) <- s;
      s
    | s -> s

(* The label tables both generators share; [p.depth + 1] depths cover
   the states of runs of length [p.depth]. *)
type labels = {
  local : int -> int -> string; (* s<depth>_<i> *)
  env : int -> int -> string; (* env<depth>_<i> *)
  act : int -> int -> string; (* a<depth>_<i> *)
  env_act : int -> int -> string; (* e<depth>_<j> *)
}

let labels p =
  let depths = p.depth + 1 in
  { local = label_table "s" ~depths ~width:p.label_alphabet;
    env = label_table "env" ~depths ~width:p.label_alphabet;
    act = label_table "a" ~depths ~width:p.act_alphabet;
    env_act = label_table "e" ~depths ~width:p.max_branching
  }

(* The state of a node at [depth]: first the agents' labels, then the
   environment's, drawn in that order. [draw_indices] draws the agents'
   label indices, [state_of] the rest. *)
let draw_indices p rng = Array.init p.n_agents (fun _ -> Prng.int rng p.label_alphabet)

let state_of p rng lb depth idx =
  let env = lb.env depth (Prng.int rng p.label_alphabet) in
  { Gstate.env; locals = Array.map (lb.local depth) idx }

let draw_state p rng lb depth = state_of p rng lb depth (draw_indices p rng)

module Itbl = Hashtbl.Make (Int)

(* [base^k · m], or -1 once that passes [max_int]. *)
let rec scaled_power base k m =
  if k = 0 then m else if m > max_int / base then -1 else scaled_power base (k - 1) (m * base)

(* Protocol-consistent generation: agent i's action distribution is a
   memoized function of i's local state (time, label), exactly as a
   probabilistic protocol P_i : L_i -> ∆(Act_i) prescribes. This is the
   class of systems the paper's Section 2.2 considers, and it is what
   makes Lemma 4.3(b) (past-based => local-state independent) true; on
   trees with per-node action probabilities the lemma genuinely fails.
   The environment's choice distribution is free per node, and runs
   have uniform length, so generated action labels (which embed their
   depth) are always proper.

   A label is [lb.local depth i] for an index [i] below [width], so the
   memos are keyed by label indices: P_i(ℓ) by (agent, depth, index),
   the agents' joint choices by the depth and every agent's index read
   as one number in base [width]. When that number could pass
   [max_int], the joint choices are recomputed per node instead: they
   draw nothing, so the tree is the same. *)
let tree ?(params = default_params) seed =
  Obs.span "gen.tree" @@ fun () ->
  let p = params in
  let rng = prng seed in
  let lb = labels p in
  let b = Tree.Builder.create ~n_agents:p.n_agents in
  let width = max 1 p.label_alphabet and depths = max 1 p.depth in
  let protocol_memo : (string * Q.t) list Itbl.t = Itbl.create 32 in
  let agent_dist agent depth (state : Gstate.t) i =
    let key = (((agent * depths) + depth) * width) + i in
    match Itbl.find_opt protocol_memo key with
    | Some d -> d
    | None ->
      let d =
        if p.deterministic_acts then
          [ (lb.act depth (Hashtbl.hash (agent, state.locals.(agent)) mod p.act_alphabet), Q.one) ]
        else begin
          let support = 1 + Prng.int rng (min 2 p.act_alphabet) in
          let first = Prng.int rng p.act_alphabet in
          let labels = List.init support (fun k -> lb.act depth ((first + k) mod p.act_alphabet)) in
          List.combine labels (normalized_weights rng ~max_weight:p.max_weight support)
        end
      in
      Itbl.add protocol_memo key d;
      d
  in
  let memo_combos = scaled_power width p.n_agents depths >= 0 in
  let combos_memo = Itbl.create 16 in
  let rec expand node depth (state : Gstate.t) idx =
    if depth < p.depth then begin
      let env_choices = 1 + Prng.int rng p.max_branching in
      let env_probs = normalized_weights rng ~max_weight:p.max_weight env_choices in
      let dists = Array.init p.n_agents (fun i -> agent_dist i depth state idx.(i)) in
      (* Cartesian product of the agents' action choices, a function
         of their labels. *)
      let product () =
        Array.fold_right
          (fun d acc ->
            List.concat_map (fun (a, q) -> List.map (fun (rest, qr) -> (a :: rest, Q.mul q qr)) acc) d)
          dists
          [ ([], Q.one) ]
      in
      let combos =
        if not memo_combos then product ()
        else
          let key = Array.fold_left (fun k i -> (k * width) + i) depth idx in
          match Itbl.find_opt combos_memo key with
          | Some c -> c
          | None ->
            let c = product () in
            Itbl.add combos_memo key c;
            c
      in
      List.iteri
        (fun j env_p ->
          List.iter
            (fun (agent_acts, acts_p) ->
              let acts = Array.of_list (lb.env_act depth j :: agent_acts) in
              let child_idx = draw_indices p rng in
              let child_state = state_of p rng lb (depth + 1) child_idx in
              let child =
                Tree.Builder.add_child b ~parent:node ~prob:(Q.mul env_p acts_p) ~acts child_state
              in
              expand child (depth + 1) child_state child_idx)
            combos)
        env_probs
    end
  in
  let k0 = 1 + Prng.int rng p.max_branching in
  let ws0 = normalized_weights rng ~max_weight:p.max_weight k0 in
  List.iter
    (fun w ->
      let idx = draw_indices p rng in
      let state = state_of p rng lb 0 idx in
      let node = Tree.Builder.add_initial b ~prob:w state in
      expand node 0 state idx)
    ws0;
  Tree.Builder.finalize b

(* Arbitrary (not necessarily protocol-consistent) pps: per-node edge
   probabilities and per-edge action labels, with optional early
   leaves. Useful for measure-level properties and for exhibiting that
   protocol-level lemmas can fail outside the protocol-generated
   class. *)
let tree_arbitrary ?(params = default_params) seed =
  let p = params in
  let rng = prng (seed lxor 0x3C6EF372) in
  let lb = labels p in
  let b = Tree.Builder.create ~n_agents:p.n_agents in
  let rec expand node depth =
    if depth < p.depth && not (depth > 0 && Prng.int rng 100 < p.early_stop_pct) then begin
      let k = 1 + Prng.int rng p.max_branching in
      let ws = normalized_weights rng ~max_weight:p.max_weight k in
      List.iteri
        (fun j w ->
          let acts =
            Array.init (p.n_agents + 1) (fun slot ->
                if slot = 0 then lb.env_act depth j
                else lb.act depth (Prng.int rng p.act_alphabet))
          in
          let child = Tree.Builder.add_child b ~parent:node ~prob:w ~acts (draw_state p rng lb (depth + 1)) in
          expand child (depth + 1))
        ws
    end
  in
  let k0 = 1 + Prng.int rng p.max_branching in
  let ws0 = normalized_weights rng ~max_weight:p.max_weight k0 in
  List.iter
    (fun w ->
      let node = Tree.Builder.add_initial b ~prob:w (draw_state p rng lb 0) in
      expand node 0)
    ws0;
  Tree.Builder.finalize b

let past_based_fact tree ~seed =
  let rng = prng (seed lxor 0x5DEECE66D) in
  let per_node = Array.init (Tree.n_nodes tree) (fun _ -> Prng.int rng 2 = 0) in
  Fact.of_pred tree (fun ~run ~time -> per_node.(Tree.run_node tree ~run ~time))

let transient_fact tree ~seed =
  let rng = prng (seed lxor 0x2545F491) in
  (* Pre-draw one bit per point, in a fixed iteration order. *)
  let bits = Hashtbl.create 64 in
  Tree.iter_points tree (fun ~run ~time ->
      Hashtbl.replace bits (run, time) (Prng.int rng 2 = 0));
  Fact.of_pred tree (fun ~run ~time -> Hashtbl.find bits (run, time))

let run_fact tree ~seed =
  let rng = prng (seed lxor 0x41C64E6D) in
  let per_run = Array.init (Tree.n_runs tree) (fun _ -> Prng.int rng 2 = 0) in
  Fact.of_run_pred tree (fun run -> per_run.(run))

let proper_actions tree =
  Obs.span "gen.proper_actions" @@ fun () ->
  List.concat_map
    (fun agent -> List.map (fun act -> (agent, act)) (Action.proper_actions tree ~agent))
    (List.init (Tree.n_agents tree) Fun.id)

let pick_proper_action tree ~seed =
  match proper_actions tree with
  | [] -> None
  | actions ->
    let rng = prng (seed lxor 0x6C078965) in
    Some (List.nth actions (Prng.int rng (List.length actions)))
