(* Invariant: den > 0, gcd(|num|, den) = 1, and zero is 0/1. A value
   whose parts are both below 2^30 in magnitude is always [S] and never
   [B], so structural equality coincides with numeric equality. The
   bound is the one of [Bigint.small]/[Bignat.small]: products of two
   parts stay below 2^60 and sums of two products below 2^61. *)
module Error = Pak_guard.Error

type t = S of int * int | B of { num : Bigint.t; den : Bignat.t }

let bound = 1 lsl 30

(* The canonical value of [num/den], already in lowest terms. *)
let canon num den =
  let n = Bigint.small num and d = Bignat.small den in
  if n <> min_int && d >= 0 then S (n, d) else B { num; den }

(* The same for int parts, [d > 0]. *)
let of_parts n d =
  if n > -bound && n < bound && d < bound then S (n, d)
  else B { num = Bigint.of_int n; den = Bignat.of_int d }

let mk_normalized num den_nat =
  if Bignat.is_zero den_nat then
    raise (Error.Division_by_zero "Q: zero denominator");
  if Bigint.is_zero num then S (0, 1)
  else begin
    let g = Bignat.gcd (Bigint.to_bignat num) den_nat in
    if Bignat.is_one g then canon num den_nat
    else
      let num_mag = Bignat.div (Bigint.to_bignat num) g in
      let den = Bignat.div den_nat g in
      let num = if Bigint.sign num < 0 then Bigint.neg (Bigint.of_bignat num_mag) else Bigint.of_bignat num_mag in
      canon num den
  end

let make num den =
  match Bigint.sign den with
  | 0 -> raise (Error.Division_by_zero "Q.make: zero denominator")
  | s ->
    let num = if s < 0 then Bigint.neg num else num in
    mk_normalized num (Bigint.to_bignat den)

let zero = S (0, 1)
let one = S (1, 1)
let minus_one = S (-1, 1)
let half = S (1, 2)

let of_int n = of_parts n 1

let num = function S (n, _) -> Bigint.of_int n | B b -> b.num
let den = function S (_, d) -> Bignat.of_int d | B b -> b.den
let small_num = function S (n, _) -> n | B _ -> 0
let small_den = function S (_, d) -> d | B _ -> 0
let sign = function S (n, _) -> Int.compare n 0 | B b -> Bigint.sign b.num
let is_zero = function S (n, _) -> n = 0 | B _ -> false

let equal a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> an = bn && ad = bd
  | B a, B b -> Bigint.equal a.num b.num && Bignat.equal a.den b.den
  | _ -> false

let hash t = Bigint.hash (num t) + (7 * Bignat.hash (den t))

(* Both operands [S]: compare, add and multiply on ints, the gcd
   included. The probabilities arising from protocol trees are
   overwhelmingly small fractions, so this path dominates in practice;
   the bignum path is the fallback that keeps all results exact. *)
let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  match (a, b) with
  | S (an, ad), S (bn, bd) -> Int.compare (an * bd) (bn * ad)
  | _ ->
    Bigint.compare
      (Bigint.mul (num a) (Bigint.of_bignat (den b)))
      (Bigint.mul (num b) (Bigint.of_bignat (den a)))

let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b

let neg = function S (n, d) -> S (-n, d) | B b -> B { b with num = Bigint.neg b.num }
let abs = function S (n, d) -> S (Stdlib.abs n, d) | B b -> B { b with num = Bigint.abs b.num }

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let of_ints_normalized n d =
  (* d > 0 and n <> min_int; gcd on ints, then the canonical value. *)
  if n = 0 then zero
  else begin
    let g = gcd_int (Stdlib.abs n) d in
    of_parts (n / g) (d / g)
  end

(* [min_int] has no native negation, so it and non-positive
   denominators take the bignum path. *)
let of_ints n d =
  if d > 0 && n <> min_int then of_ints_normalized n d
  else make (Bigint.of_int n) (Bigint.of_int d)

let add a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> of_ints_normalized ((an * bd) + (bn * ad)) (ad * bd)
  | _ ->
    mk_normalized
      (Bigint.add
         (Bigint.mul (num a) (Bigint.of_bignat (den b)))
         (Bigint.mul (num b) (Bigint.of_bignat (den a))))
      (Bignat.mul (den a) (den b))

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> of_ints_normalized (an * bn) (ad * bd)
  | _ -> mk_normalized (Bigint.mul (num a) (num b)) (Bignat.mul (den a) (den b))

(* The bound is symmetric in the two parts, so the inverse of an [S] is
   an [S] and that of a [B] a [B]. *)
let inv = function
  | S (0, _) -> raise (Error.Division_by_zero "Q.inv: inverse of zero")
  | S (n, d) -> if n < 0 then S (-d, -n) else S (d, n)
  | B b ->
    let num = Bigint.of_bignat b.den in
    B { num = (if Bigint.sign b.num < 0 then Bigint.neg num else num); den = Bigint.to_bignat b.num }

let div a b = mul a (inv b)

let pow t e =
  let p e = canon (Bigint.pow (num t) e) (Bignat.pow (den t) e) in
  if e >= 0 then p e else inv (p (-e))

let sum qs = List.fold_left add zero qs
let one_minus q = sub one q
let is_probability q = leq zero q && leq q one

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | B b ->
    if Bignat.is_one b.den then Bigint.to_string b.num
    else Bigint.to_string b.num ^ "/" ^ Bignat.to_string b.den

let to_float = function
  | S (n, d) -> float_of_int n /. float_of_int d
  | B b ->
    (* Scale so the integer parts fit a float mantissa well enough for
       display; exactness is never required of this function. *)
    let rec shrink n d =
      match (Bignat.to_int_opt n, Bignat.to_int_opt d) with
      | Some ni, Some di -> float_of_int ni /. float_of_int di
      | _ -> shrink (Bignat.div n Bignat.two) (Bignat.div d Bignat.two)
    in
    let v = shrink (Bigint.to_bignat b.num) b.den in
    if Bigint.sign b.num < 0 then -.v else v

(* On [Bignat] for every value, so the limb fuel it charges does not
   depend on the representation. *)
let to_decimal_string ?(digits = 6) t =
  let neg_prefix = if sign t < 0 then "-" else "" in
  let den = den t in
  let int_part, r = Bignat.divmod (Bigint.to_bignat (num t)) den in
  let buf = Buffer.create 24 in
  Buffer.add_string buf neg_prefix;
  Buffer.add_string buf (Bignat.to_string int_part);
  if not (Bignat.is_zero r) then begin
    Buffer.add_char buf '.';
    let ten = Bignat.of_int 10 in
    let r = ref r in
    let k = ref 0 in
    while (not (Bignat.is_zero !r)) && !k < digits do
      let q, r' = Bignat.divmod (Bignat.mul !r ten) den in
      Buffer.add_string buf (Bignat.to_string q);
      r := r';
      incr k
    done;
    if not (Bignat.is_zero !r) then Buffer.add_string buf "\xe2\x80\xa6"
  end;
  Buffer.contents buf

(* The int value of the 1 to 18 decimal digits s.[lo .. hi - 1], or -1
   for any other text; 18 digits stay below 10^18 < 2^62. *)
let small_digits s lo hi =
  if hi <= lo || hi - lo > 18 then -1
  else begin
    let v = ref 0 and i = ref lo in
    while !i < hi && s.[!i] >= '0' && s.[!i] <= '9' do
      v := (10 * !v) + (Char.code s.[!i] - Char.code '0');
      incr i
    done;
    if !i = hi then !v else -1
  end

(* "n" or "n/d" with plain digits (n optionally after a '-') and d > 0:
   the numeral every serialized probability uses, read on ints. *)
let of_small_string s =
  let len = String.length s in
  let slash = Option.value ~default:len (String.index_opt s '/') in
  let negative = len > 0 && s.[0] = '-' in
  let n = small_digits s (if negative then 1 else 0) slash in
  let d = if slash = len then 1 else small_digits s (slash + 1) len in
  if n < 0 || d <= 0 then None else Some (of_ints (if negative then -n else n) d)

(* Every other accepted form: signs, underscores, decimals, long or
   zero denominators. *)
let of_big_string s =
  match String.index_opt s '/' with
  | Some i ->
    let n = Bigint.of_string (String.sub s 0 i) in
    let d = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make n d
  | None ->
    (match String.index_opt s '.' with
     | None -> canon (Bigint.of_string s) Bignat.one
     | Some i ->
       let int_str = String.sub s 0 i in
       let frac_str = String.sub s (i + 1) (String.length s - i - 1) in
       let frac_digits =
         String.to_seq frac_str |> Seq.filter (fun c -> c <> '_') |> String.of_seq
       in
       if String.length frac_digits = 0 then invalid_arg "Q.of_string: trailing dot";
       let negative = String.length int_str > 0 && int_str.[0] = '-' in
       let int_part =
         if int_str = "" || int_str = "-" || int_str = "+" then Bigint.zero
         else Bigint.of_string int_str
       in
       let scale = Bignat.pow (Bignat.of_int 10) (String.length frac_digits) in
       let frac = Bigint.of_bignat (Bignat.of_string frac_digits) in
       let frac = if negative then Bigint.neg frac else frac in
       let num = Bigint.add (Bigint.mul int_part (Bigint.of_bignat scale)) frac in
       mk_normalized num scale)

let of_string s =
  let s = String.trim s in
  if String.length s = 0 then invalid_arg "Q.of_string: empty";
  match of_small_string s with Some q -> q | None -> of_big_string s

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) = lt
  let ( <= ) = leq
  let ( > ) = gt
  let ( >= ) = geq
end

let pp fmt t = Format.pp_print_string fmt (to_string t)
