(* The generator as it was before labels were shared: every label
   formatted with [Printf] per node, weights divided as rationals, and
   [proper_actions] decided by one walk over the points, or by one
   walk over the nodes with the actions above each node
   ([proper_actions_by_paths]). The tests compare [Gen] against it
   byte for byte, so a change to [Gen] that alters a draw, a label or
   a weight shows up as a differing document. *)

open Pak_rational
open Pak_pps

(* SplitMix64-style generator on the 63-bit native int; quality is more
   than sufficient for structural test-case generation. *)
module Prng = struct
  type t = { mutable state : int }

  let create seed = { state = (seed * 2_654_435_769) lxor 0x9E3779B9 }

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

let normalized_weights rng ~max_weight k =
  let ws = List.init k (fun _ -> 1 + Prng.int rng max_weight) in
  let total = Q.of_int (List.fold_left ( + ) 0 ws) in
  List.map (fun w -> Q.div (Q.of_int w) total) ws

(* Protocol-consistent generation: agent i's action distribution is a
   memoized function of i's local state (time, label), exactly as a
   probabilistic protocol P_i : L_i -> ∆(Act_i) prescribes. This is the
   class of systems the paper's Section 2.2 considers, and it is what
   makes Lemma 4.3(b) (past-based => local-state independent) true; on
   trees with per-node action probabilities the lemma genuinely fails.
   The environment's choice distribution is free per node, and runs
   have uniform length, so generated action labels (which embed their
   depth) are always proper. *)
let tree ?(params = Gen.default_params) seed =
  let p : Gen.params = params in
  let rng = Prng.create seed in
  let b = Tree.Builder.create ~n_agents:p.n_agents in
  let fresh_labels depth =
    Array.init p.n_agents (fun _ ->
        Printf.sprintf "s%d_%d" depth (Prng.int rng p.label_alphabet))
  in
  (* P_i(ℓ): memoized per (agent, depth, label). *)
  let protocol_memo : (int * int * string, (string * Q.t) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let agent_dist agent depth label =
    match Hashtbl.find_opt protocol_memo (agent, depth, label) with
    | Some d -> d
    | None ->
      let d =
        if p.deterministic_acts then
          [ (Printf.sprintf "a%d_%d" depth (Hashtbl.hash (agent, label) mod p.act_alphabet),
             Q.one) ]
        else begin
          let support = 1 + Prng.int rng (min 2 p.act_alphabet) in
          let first = Prng.int rng p.act_alphabet in
          let labels =
            List.init support (fun k ->
                Printf.sprintf "a%d_%d" depth ((first + k) mod p.act_alphabet))
          in
          List.combine labels (normalized_weights rng ~max_weight:p.max_weight support)
        end
      in
      Hashtbl.add protocol_memo (agent, depth, label) d;
      d
  in
  let rec expand node depth labels =
    if depth < p.depth then begin
      let env_choices = 1 + Prng.int rng p.max_branching in
      let env_probs = normalized_weights rng ~max_weight:p.max_weight env_choices in
      let dists = Array.init p.n_agents (fun i -> agent_dist i depth labels.(i)) in
      (* Cartesian product of the agents' action choices. *)
      let combos =
        Array.fold_right
          (fun d acc ->
            List.concat_map (fun (a, q) -> List.map (fun (rest, qr) -> (a :: rest, Q.mul q qr)) acc) d)
          dists
          [ ([], Q.one) ]
      in
      List.iteri
        (fun j env_p ->
          List.iter
            (fun (agent_acts, acts_p) ->
              let acts = Array.of_list (Printf.sprintf "e%d_%d" depth j :: agent_acts) in
              let child_labels = fresh_labels (depth + 1) in
              let state =
                Gstate.make
                  ~env:(Printf.sprintf "env%d_%d" (depth + 1) (Prng.int rng p.label_alphabet))
                  ~locals:(Array.to_list child_labels)
              in
              let child =
                Tree.Builder.add_child b ~parent:node ~prob:(Q.mul env_p acts_p) ~acts state
              in
              expand child (depth + 1) child_labels)
            combos)
        env_probs
    end
  in
  let k0 = 1 + Prng.int rng p.max_branching in
  let ws0 = normalized_weights rng ~max_weight:p.max_weight k0 in
  List.iter
    (fun w ->
      let labels = fresh_labels 0 in
      let state =
        Gstate.make
          ~env:(Printf.sprintf "env0_%d" (Prng.int rng p.label_alphabet))
          ~locals:(Array.to_list labels)
      in
      let node = Tree.Builder.add_initial b ~prob:w state in
      expand node 0 labels)
    ws0;
  Tree.Builder.finalize b

(* Arbitrary (not necessarily protocol-consistent) pps: per-node edge
   probabilities and per-edge action labels, with optional early
   leaves. Useful for measure-level properties and for exhibiting that
   protocol-level lemmas can fail outside the protocol-generated
   class. *)
let tree_arbitrary ?(params = Gen.default_params) seed =
  let p : Gen.params = params in
  let rng = Prng.create (seed lxor 0x3C6EF372) in
  let b = Tree.Builder.create ~n_agents:p.n_agents in
  let fresh_labels depth =
    Array.init p.n_agents (fun _ ->
        Printf.sprintf "s%d_%d" depth (Prng.int rng p.label_alphabet))
  in
  let rec expand node depth =
    if depth < p.depth && not (depth > 0 && Prng.int rng 100 < p.early_stop_pct) then begin
      let k = 1 + Prng.int rng p.max_branching in
      let ws = normalized_weights rng ~max_weight:p.max_weight k in
      List.iteri
        (fun j w ->
          let acts =
            Array.init (p.n_agents + 1) (fun slot ->
                if slot = 0 then Printf.sprintf "e%d_%d" depth j
                else Printf.sprintf "a%d_%d" depth (Prng.int rng p.act_alphabet))
          in
          let child_labels = fresh_labels (depth + 1) in
          let state =
            Gstate.make
              ~env:(Printf.sprintf "env%d_%d" (depth + 1) (Prng.int rng p.label_alphabet))
              ~locals:(Array.to_list child_labels)
          in
          let child = Tree.Builder.add_child b ~parent:node ~prob:w ~acts state in
          expand child (depth + 1))
        ws
    end
  in
  let k0 = 1 + Prng.int rng p.max_branching in
  let ws0 = normalized_weights rng ~max_weight:p.max_weight k0 in
  List.iter
    (fun w ->
      let labels = fresh_labels 0 in
      let state =
        Gstate.make
          ~env:(Printf.sprintf "env0_%d" (Prng.int rng p.label_alphabet))
          ~locals:(Array.to_list labels)
      in
      let node = Tree.Builder.add_initial b ~prob:w state in
      expand node 0)
    ws0;
  Tree.Builder.finalize b

(* One walk over the points decides every (agent, action) pair: the
   walk meets exactly the performed ones, and a pair is proper unless a
   run performs it twice. [last.(agent)] maps each action met to the
   last run it was met in, or -1 once it is known to be improper. *)
let proper_actions tree =
  let n_agents = Tree.n_agents tree in
  let last = Array.init n_agents (fun _ -> Hashtbl.create 16) in
  Tree.iter_points tree (fun ~run ~time ->
      for agent = 0 to n_agents - 1 do
        match Tree.action_at tree ~agent ~run ~time with
        | None -> ()
        | Some act ->
          (match Hashtbl.find_opt last.(agent) act with
           | Some r when r = run || r = -1 -> Hashtbl.replace last.(agent) act (-1)
           | Some _ | None -> Hashtbl.replace last.(agent) act run)
      done);
  let pairs = ref [] in
  Array.iteri
    (fun agent seen ->
      Hashtbl.iter (fun act r -> if r <> -1 then pairs := (agent, act) :: !pairs) seen)
    last;
  List.sort compare !pairs

let rec mem_string s = function [] -> false | x :: rest -> String.equal x s || mem_string s rest

(* One pass over the nodes per agent decides every (agent, action)
   pair. A parent's id is below its children's, so by the time a node
   is reached [above.(parent)] holds the agent's actions on the edges
   from the root down to its parent; an action is proper unless one of
   its edges lies below another (a run then performs it twice).
   [proper] maps each action met to whether it is still proper. *)
let proper_actions_by_paths tree =
  let n = Tree.n_nodes tree in
  let pairs = ref [] in
  for agent = 0 to Tree.n_agents tree - 1 do
    let above = Array.make n [] and proper = Hashtbl.create 16 in
    for id = 0 to n - 1 do
      match Tree.node_parent tree id with
      | None -> ()
      | Some parent ->
        let act = (Tree.node_acts tree id).(agent + 1) in
        let path = above.(parent) in
        let repeated = mem_string act path in
        (match Hashtbl.find_opt proper act with
         | None -> Hashtbl.add proper act (not repeated)
         | Some true -> if repeated then Hashtbl.replace proper act false
         | Some false -> ());
        above.(id) <- act :: path
    done;
    Hashtbl.iter (fun act ok -> if ok then pairs := (agent, act) :: !pairs) proper
  done;
  List.sort compare !pairs
