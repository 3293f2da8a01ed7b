open Pak_rational

module Obs = Pak_obs.Obs

let c_samples = Obs.counter "simulate.samples"
let c_accepted = Obs.counter "simulate.accepted"

(* [Gen]'s generator under its own salt: an independent stream. *)
let prng seed = Gen.Prng.create ~salt:0x51D2B4C7 seed

(* The walk reads a read-only table built once per call. Slot [id] of
   [first] holds node [id]'s outgoing edges, slot [n_nodes] the root's
   (the initial nodes): edges [first.(s) .. first.(s+1) - 1], children
   in insertion order with the cumulative thresholds of [threshold]. A
   step draws [bits], uniform in [0, 2^30), and takes the first child
   whose threshold exceeds it — the last child unconditionally. Every
   node has one incoming edge, so there are [n_nodes] edges in all. *)
type table = {
  first : int array;
  child : int array;
  thr : int array;
  leaf_run : int array; (* run ending at each leaf node; -1 elsewhere *)
}

let scale = 1 lsl 30

(* [bits/2^30 < acc] iff [bits < ⌈acc·2^30⌉] for an integer [bits]. The
   ceiling division runs on ints when [acc]'s parts are below 2^30
   (the product stays below 2^60), on [Bigint] otherwise. *)
let threshold acc =
  if Q.geq acc Q.one then scale
  else if Q.sign acc <= 0 then 0
  else
    let d = Q.small_den acc in
    if d > 0 then ((Q.small_num acc * scale) + d - 1) / d
    else
      let q, r =
        Bigint.divmod (Bigint.mul (Q.num acc) (Bigint.of_int scale)) (Bigint.of_bignat (Q.den acc))
      in
      (* 0 < acc < 1, so 0 <= q < 2^30 *)
      Option.get (Bigint.to_int_opt q) + if Bigint.is_zero r then 0 else 1

(* [threshold (s/l)] for [0 <= s/l], on ints: with [l < 2^31] the
   product [s·2^30] stays below 2^61. *)
let int_threshold s l = if s >= l then scale else ((s * scale) + l - 1) / l

let sum_bound = 1 lsl 31

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* One slot's edges: the children from [c] on, entered at [!k], with
   the cumulative probability before them. That sum is [s/l] over [l],
   the lcm of the denominators so far, while [l] stays below 2^31 and
   every probability's parts are below 2^30; after that it is the [Q]
   [acc] and [l] is 0. *)
let rec edges tree child thr k c s l acc =
  if c >= 0 then begin
    let p = Tree.node_prob tree c in
    let pn = Q.small_num p and pd = Q.small_den p in
    child.(!k) <- c;
    let g = if l > 0 && pn > 0 && pd > 0 then gcd l pd else 0 in
    if g > 0 && l * (pd / g) < sum_bound then begin
      let l' = l * (pd / g) in
      let s' = (s * (pd / g)) + (pn * (l / g)) in
      thr.(!k) <- int_threshold s' l';
      incr k;
      edges tree child thr k (Tree.next_sibling tree c) s' l' acc
    end
    else begin
      let acc = Q.add (if l > 0 then Q.of_ints s l else acc) p in
      thr.(!k) <- threshold acc;
      incr k;
      edges tree child thr k (Tree.next_sibling tree c) 0 0 acc
    end
  end

let table tree =
  let n = Tree.n_nodes tree in
  let first = Array.make (n + 2) 0 and child = Array.make n 0 and thr = Array.make n 0 in
  let k = ref 0 in
  for id = 0 to n - 1 do
    first.(id) <- !k;
    edges tree child thr k (Tree.first_child tree id) 0 1 Q.zero
  done;
  first.(n) <- !k;
  edges tree child thr k (Tree.first_initial tree) 0 1 Q.zero;
  first.(n + 1) <- !k;
  let leaf_run = Array.make n (-1) in
  for run = 0 to Tree.n_runs tree - 1 do
    leaf_run.(Tree.run_node tree ~run ~time:(Tree.run_length tree run - 1)) <- run
  done;
  { first; child; thr; leaf_run }

let rec choose thr bits k last =
  if k = last || bits < thr.(k) then k else choose thr bits (k + 1) last

let rec descend tb rng slot =
  let lo = tb.first.(slot) and hi = tb.first.(slot + 1) in
  if lo = hi then tb.leaf_run.(slot)
  else
    let bits = Gen.Prng.next rng land (scale - 1) in
    descend tb rng tb.child.(choose tb.thr bits lo (hi - 1))

let walk tb rng = descend tb rng (Array.length tb.leaf_run)

let sample_run tree ~seed =
  let rng = prng seed in
  Obs.incr c_samples;
  walk (table tree) rng

let sample_runs tree ~samples ~seed =
  if samples < 0 then invalid_arg "Simulate.sample_runs: negative sample count";
  let rng = prng seed in
  let tb = table tree in
  Obs.add c_samples samples;
  Array.init samples (fun _ -> walk tb rng)

(* [n] walks on the stream of [seed]: (runs in [event], runs in
   [given]), or (runs in [event], 0) without [given]. *)
let counts tb ~event ~given ~seed ~n =
  let rng = prng seed in
  let hits = ref 0 and given_hits = ref 0 in
  for _ = 1 to n do
    let r = walk tb rng in
    match given with
    | None -> if Bitset.mem event r then incr hits
    | Some g ->
      if Bitset.mem g r then begin
        incr given_hits;
        if Bitset.mem event r then incr hits
      end
  done;
  (!hits, !given_hits)

let cond_estimate (hits, given_hits) =
  Obs.add c_accepted given_hits;
  if given_hits = 0 then None else Some (Q.of_ints hits given_hits)

let seq_counts tree ~event ~given ~samples ~seed =
  Obs.add c_samples samples;
  counts (table tree) ~event ~given ~seed ~n:samples

let estimate tree ~event ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate: need at least one sample";
  Obs.span "simulate.estimate" @@ fun () ->
  let hits, _ = seq_counts tree ~event ~given:None ~samples ~seed in
  Q.of_ints hits samples

let estimate_cond tree ~event ~given ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate_cond: need at least one sample";
  Obs.span "simulate.estimate" @@ fun () ->
  cond_estimate (seq_counts tree ~event ~given:(Some given) ~samples ~seed)

(* ------------------------------------------------------------------ *)
(* Parallel estimation with splittable seeds                           *)
(* ------------------------------------------------------------------ *)

module Pool = Pak_par.Pool

let sample_block = 1024

(* SplitMix-style finalizer over (seed, block): every fixed-size block
   of samples gets its own independent stream, derived from the block
   INDEX rather than from whichever domain runs it. The estimate is
   therefore a pure function of (seed, samples) — the same for every
   pool size, including no pool at all. *)
let mix_seed seed b =
  let z = (seed + ((b + 1) * 0x9E3779B9)) land max_int in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B land max_int in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 land max_int in
  (z lxor (z lsr 16)) land max_int

(* The table is read-only, so the pool's domains share one. *)
let par_counts ?pool tree ~event ~given ~samples ~seed =
  let tb = table tree in
  let nblocks = (samples + sample_block - 1) / sample_block in
  let blocks =
    Array.init nblocks (fun b ->
        (b, min sample_block (samples - (b * sample_block))))
  in
  let count (b, n) = counts tb ~event ~given ~seed:(mix_seed seed b) ~n in
  Obs.add c_samples samples;
  let per_block =
    match pool with Some pool -> Pool.map pool count blocks | None -> Array.map count blocks
  in
  (* Integer sums: the same totals in any grouping. *)
  Array.fold_left (fun (h, g) (h', g') -> (h + h', g + g')) (0, 0) per_block

let estimate_par ?pool tree ~event ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate_par: need at least one sample";
  Obs.span "simulate.estimate" @@ fun () ->
  let hits, _ = par_counts ?pool tree ~event ~given:None ~samples ~seed in
  Q.of_ints hits samples

let estimate_cond_par ?pool tree ~event ~given ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate_cond_par: need at least one sample";
  Obs.span "simulate.estimate" @@ fun () ->
  cond_estimate (par_counts ?pool tree ~event ~given:(Some given) ~samples ~seed)

let standard_error ~p ~samples =
  let pf = Q.to_float p in
  sqrt (pf *. (1. -. pf) /. float_of_int samples)
