(* [Simulate] as it was before the sampler read integer thresholds: each
   step draws a [Q] uniform with denominator 2^30 and folds [Q.add] over
   the children, and each call indexes the leaves in a [Hashtbl]. The
   tests require [Simulate] to pick the same runs and return the same
   estimates, sequential and block-parallel alike. *)

open Pak_rational
open Pak_pps

module Prng = struct
  type t = { mutable state : int }

  let create seed = { state = (seed * 2_654_435_769) lxor 0x51D2B4C7 }

  let next g =
    g.state <- (g.state + 0x1E3779B97F4A7C15) land max_int;
    let z = g.state in
    let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int
end

let uniform rng =
  let bits = Prng.next rng land ((1 lsl 30) - 1) in
  Q.of_ints bits (1 lsl 30)

let pick rng choices =
  let u = uniform rng in
  let rec go acc = function
    | [] -> invalid_arg "Simulate.pick: weights below 1"
    | [ (_, v) ] -> v
    | (w, v) :: rest ->
      let acc = Q.add acc w in
      if Q.lt u acc then v else go acc rest
  in
  go Q.zero choices

let leaf_index tree =
  let map = Hashtbl.create (Tree.n_runs tree) in
  for run = 0 to Tree.n_runs tree - 1 do
    let last = Tree.run_length tree run - 1 in
    Hashtbl.replace map (Tree.run_node tree ~run ~time:last) run
  done;
  map

let walk tree rng leaves =
  let node = ref (pick rng (Tree.initial_nodes tree)) in
  let rec descend () =
    match Tree.node_children tree !node with
    | [] -> ()
    | children ->
      node := pick rng (List.map (fun (p, _, id) -> (p, id)) children);
      descend ()
  in
  descend ();
  Hashtbl.find leaves !node

let sample_runs tree ~samples ~seed =
  let rng = Prng.create seed in
  let leaves = leaf_index tree in
  Array.init samples (fun _ -> walk tree rng leaves)

let estimate tree ~event ~samples ~seed =
  let runs = sample_runs tree ~samples ~seed in
  let hits = Array.fold_left (fun acc r -> if Bitset.mem event r then acc + 1 else acc) 0 runs in
  Q.of_ints hits samples

let cond_counts ~event ~given runs =
  Array.fold_left
    (fun (h, g) r ->
      if Bitset.mem given r then ((if Bitset.mem event r then h + 1 else h), g + 1) else (h, g))
    (0, 0) runs

let estimate_cond tree ~event ~given ~samples ~seed =
  let hits, given_hits = cond_counts ~event ~given (sample_runs tree ~samples ~seed) in
  if given_hits = 0 then None else Some (Q.of_ints hits given_hits)

let mix_seed seed b =
  let z = (seed + ((b + 1) * 0x9E3779B9)) land max_int in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B land max_int in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 land max_int in
  (z lxor (z lsr 16)) land max_int

(* Blocks of [Simulate.sample_block] samples, block [b] on the stream of
   [mix_seed seed b], run one after another. *)
let estimate_cond_par tree ~event ~given ~samples ~seed =
  let leaves = leaf_index tree in
  let block = Simulate.sample_block in
  let hits = ref 0 and given_hits = ref 0 in
  for b = 0 to ((samples + block - 1) / block) - 1 do
    let rng = Prng.create (mix_seed seed b) in
    let n = min block (samples - (b * block)) in
    let h, g = cond_counts ~event ~given (Array.init n (fun _ -> walk tree rng leaves)) in
    hits := !hits + h;
    given_hits := !given_hits + g
  done;
  if !given_hits = 0 then None else Some (Q.of_ints !hits !given_hits)
