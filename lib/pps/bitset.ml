(* Packed bit vector over 62-bit words. The capacity is stored so that
   [complement] and [full] know where the universe ends; the unused high
   bits of the last word are kept at zero as an invariant. *)

let word_bits = 62

module Obs = Pak_obs.Obs

(* Word-wise combinators vs whole-set scans: the two shapes of work an
   event-set workload is made of. *)
let c_set_ops = Obs.counter "bitset.set_ops"
let c_scans = Obs.counter "bitset.scans"

type t = { cap : int; words : int array }

let n_words cap = (cap + word_bits - 1) / word_bits

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { cap; words = Array.make (n_words cap) 0 }

let check_bounds t i name =
  if i < 0 || i >= t.cap then invalid_arg (name ^ ": index out of capacity")

let check_same a b name =
  if a.cap <> b.cap then invalid_arg (name ^ ": capacity mismatch")

let mask_last cap =
  let rem = cap mod word_bits in
  if rem = 0 then -1 land ((1 lsl word_bits) - 1) else (1 lsl rem) - 1

let full cap =
  let t = create cap in
  let words = Array.map (fun _ -> (1 lsl word_bits) - 1) t.words in
  let nw = Array.length words in
  if nw > 0 then words.(nw - 1) <- mask_last cap;
  { cap; words }

let mem t i =
  check_bounds t i "Bitset.mem";
  (t.words.(i / word_bits) lsr (i mod word_bits)) land 1 = 1

let set_bit words i = words.(i / word_bits) <- words.(i / word_bits) lor (1 lsl (i mod word_bits))

let add t i =
  check_bounds t i "Bitset.add";
  let words = Array.copy t.words in
  set_bit words i;
  { t with words }

let remove t i =
  check_bounds t i "Bitset.remove";
  let words = Array.copy t.words in
  words.(i / word_bits) <- words.(i / word_bits) land lnot (1 lsl (i mod word_bits));
  { t with words }

let singleton cap i = add (create cap) i

let of_list cap is =
  let t = create cap in
  List.iter (fun i -> check_bounds t i "Bitset.of_list"; set_bit t.words i) is;
  t

(* Each inclusive range [lo, hi] is set a word at a time: one mask per
   word it touches, however many members it has. *)
let of_ranges cap ranges =
  let t = create cap in
  List.iter
    (fun (lo, hi) ->
      if lo < 0 || hi >= cap || lo > hi then invalid_arg "Bitset.of_ranges: bad range";
      let wlo = lo / word_bits and whi = hi / word_bits in
      for k = wlo to whi do
        let a = if k = wlo then lo mod word_bits else 0 in
        let b = if k = whi then hi mod word_bits else word_bits - 1 in
        t.words.(k) <- t.words.(k) lor (((1 lsl (b - a + 1)) - 1) lsl a)
      done)
    ranges;
  t

(* Bulk constructor: one fresh words array, no per-bit copying. The
   loop only ever sets bits below [cap], so the unused high bits of the
   last word stay zero by construction. *)
let init cap p =
  if cap < 0 then invalid_arg "Bitset.init: negative capacity";
  let words = Array.make (n_words cap) 0 in
  for i = 0 to cap - 1 do
    if p i then set_bit words i
  done;
  { cap; words }

let map2 name f a b =
  check_same a b name;
  Obs.incr c_set_ops;
  { cap = a.cap; words = Array.init (Array.length a.words) (fun k -> f a.words.(k) b.words.(k)) }

let union a b = map2 "Bitset.union" ( lor ) a b
let inter a b = map2 "Bitset.inter" ( land ) a b
let diff a b = map2 "Bitset.diff" (fun x y -> x land lnot y) a b

(* lxor preserves the zero-high-bits invariant: both operands have
   their unused bits at zero, so the xor does too. *)
let symdiff a b = map2 "Bitset.symdiff" ( lxor ) a b

let complement t =
  let all = full t.cap in
  diff all t

let equal a b = check_same a b "Bitset.equal"; a.words = b.words

let subset a b =
  check_same a b "Bitset.subset";
  Array.for_all2 (fun x y -> x land lnot y = 0) a.words b.words

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words
let capacity t = t.cap

(* Members in increasing order: shift each word down until it is
   empty, so a word costs at most [word_bits] steps however many bits
   it has set. *)
let iter_members f t =
  for k = 0 to Array.length t.words - 1 do
    let w = ref t.words.(k) and i = ref (k * word_bits) in
    while !w <> 0 do
      if !w land 1 = 1 then f !i;
      w := !w lsr 1;
      incr i
    done
  done

let iter f t =
  Obs.incr c_scans;
  iter_members f t

(* The same walk as [iter_members], written out so that it allocates
   no closure and no accumulator. *)
let weighted_sum t weights =
  if Array.length weights <> t.cap then
    invalid_arg "Bitset.weighted_sum: weight array length does not match capacity";
  let acc = ref 0 in
  for k = 0 to Array.length t.words - 1 do
    let w = ref t.words.(k) and i = ref (k * word_bits) in
    while !w <> 0 do
      if !w land 1 = 1 then acc := !acc + Array.unsafe_get weights !i;
      w := !w lsr 1;
      incr i
    done
  done;
  !acc

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

exception Short_circuit

let for_all p t =
  try
    iter (fun i -> if not (p i) then raise Short_circuit) t;
    true
  with Short_circuit -> false

let exists p t = not (for_all (fun i -> not (p i)) t)

let filter p t =
  Obs.incr c_scans;
  let words = Array.make (Array.length t.words) 0 in
  iter_members (fun i -> if p i then set_bit words i) t;
  { cap = t.cap; words }

let pp fmt t =
  Format.fprintf fmt "@[<hov 1>{%a}@]"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") Format.pp_print_int)
    (to_list t)
