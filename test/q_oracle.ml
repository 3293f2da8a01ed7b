(* [Q] as it was before small values became immediate: every value is a
   record of a [Bigint] numerator over a [Bignat] denominator, and the
   arithmetic takes an int fast path when all four parts are below
   2^30. The tests require [Q] to print, compare, hash and reduce every
   value as this module does, on both sides of each int/limb switch. *)

open Pak_rational

(* Invariant: den > 0, gcd(|num|, den) = 1, and zero is 0/1. Structural
   equality of the record coincides with numeric equality. *)
module Error = Pak_guard.Error

type t = { num : Bigint.t; den : Bignat.t }

let mk_normalized num den_nat =
  if Bignat.is_zero den_nat then
    raise (Error.Division_by_zero "Q: zero denominator");
  if Bigint.is_zero num then { num = Bigint.zero; den = Bignat.one }
  else begin
    let g = Bignat.gcd (Bigint.to_bignat num) den_nat in
    if Bignat.is_one g then { num; den = den_nat }
    else
      let num_mag = Bignat.div (Bigint.to_bignat num) g in
      let den = Bignat.div den_nat g in
      let num = if Bigint.sign num < 0 then Bigint.neg (Bigint.of_bignat num_mag) else Bigint.of_bignat num_mag in
      { num; den }
  end

let make num den =
  match Bigint.sign den with
  | 0 -> raise (Error.Division_by_zero "Q.make: zero denominator")
  | s ->
    let num = if s < 0 then Bigint.neg num else num in
    mk_normalized num (Bigint.to_bignat den)

let zero = { num = Bigint.zero; den = Bignat.one }
let one = { num = Bigint.one; den = Bignat.one }
let minus_one = { num = Bigint.minus_one; den = Bignat.one }
let half = { num = Bigint.one; den = Bignat.two }

let of_int n = { num = Bigint.of_int n; den = Bignat.one }

let num t = t.num
let den t = t.den
let sign t = Bigint.sign t.num
let is_zero t = Bigint.is_zero t.num

let equal a b = Bigint.equal a.num b.num && Bignat.equal a.den b.den
let hash t = Bigint.hash t.num + (7 * Bignat.hash t.den)

(* Fast path: when numerators and denominators are below 2^30 in
   magnitude, compare and do the arithmetic and the gcd on ints. The
   probabilities arising from protocol trees are overwhelmingly small
   fractions, so this path dominates in practice; the bignum path is
   the fallback that keeps all results exact. [Bigint.small] and
   [Bignat.small] read the parts without allocating and return
   [min_int] and [-1] for larger ones. *)
let all_small an ad bn bd = an <> min_int && ad >= 0 && bn <> min_int && bd >= 0

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den *)
  let an = Bigint.small a.num and ad = Bignat.small a.den
  and bn = Bigint.small b.num and bd = Bignat.small b.den in
  if all_small an ad bn bd then Int.compare (an * bd) (bn * ad)
  else
    Bigint.compare
      (Bigint.mul a.num (Bigint.of_bignat b.den))
      (Bigint.mul b.num (Bigint.of_bignat a.den))

let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b

let neg t = { num = Bigint.neg t.num; den = t.den }
let abs t = { num = Bigint.abs t.num; den = t.den }

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let of_ints_normalized n d =
  (* d > 0; gcd on ints, then build the canonical record. *)
  if n = 0 then zero
  else begin
    let g = gcd_int (Stdlib.abs n) d in
    { num = Bigint.of_int (n / g); den = Bignat.of_int (d / g) }
  end

(* [min_int] has no native negation, so it and non-positive
   denominators take the bignum path. *)
let of_ints n d =
  if d > 0 && n <> min_int then of_ints_normalized n d
  else make (Bigint.of_int n) (Bigint.of_int d)

let add a b =
  let an = Bigint.small a.num and ad = Bignat.small a.den
  and bn = Bigint.small b.num and bd = Bignat.small b.den in
  if all_small an ad bn bd then of_ints_normalized ((an * bd) + (bn * ad)) (ad * bd)
  else
    mk_normalized
      (Bigint.add
         (Bigint.mul a.num (Bigint.of_bignat b.den))
         (Bigint.mul b.num (Bigint.of_bignat a.den)))
      (Bignat.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  let an = Bigint.small a.num and ad = Bignat.small a.den
  and bn = Bigint.small b.num and bd = Bignat.small b.den in
  if all_small an ad bn bd then of_ints_normalized (an * bn) (ad * bd)
  else mk_normalized (Bigint.mul a.num b.num) (Bignat.mul a.den b.den)

let inv t =
  match Bigint.sign t.num with
  | 0 -> raise (Error.Division_by_zero "Q.inv: inverse of zero")
  | s ->
    let num = Bigint.of_bignat t.den in
    { num = (if s < 0 then Bigint.neg num else num); den = Bigint.to_bignat t.num }

let div a b = mul a (inv b)

let pow t e =
  if e >= 0 then { num = Bigint.pow t.num e; den = Bignat.pow t.den e }
  else inv { num = Bigint.pow t.num (-e); den = Bignat.pow t.den (-e) }

let sum qs = List.fold_left add zero qs
let one_minus q = sub one q
let is_probability q = leq zero q && leq q one

let to_string t =
  if Bignat.is_one t.den then Bigint.to_string t.num
  else Bigint.to_string t.num ^ "/" ^ Bignat.to_string t.den

let to_float t =
  (* Scale so the integer parts fit a float mantissa well enough for
     display; exactness is never required of this function. *)
  let n = Bigint.to_bignat t.num in
  let rec shrink n d =
    match (Bignat.to_int_opt n, Bignat.to_int_opt d) with
    | Some ni, Some di -> float_of_int ni /. float_of_int di
    | _ ->
      shrink (Bignat.div n Bignat.two) (Bignat.div d Bignat.two)
  in
  let v = shrink n t.den in
  if Bigint.sign t.num < 0 then -.v else v

let to_decimal_string ?(digits = 6) t =
  let neg_prefix = if sign t < 0 then "-" else "" in
  let mag_num = Bigint.to_bignat t.num in
  let int_part, r = Bignat.divmod mag_num t.den in
  let buf = Buffer.create 24 in
  Buffer.add_string buf neg_prefix;
  Buffer.add_string buf (Bignat.to_string int_part);
  if not (Bignat.is_zero r) then begin
    Buffer.add_char buf '.';
    let ten = Bignat.of_int 10 in
    let r = ref r in
    let k = ref 0 in
    while (not (Bignat.is_zero !r)) && !k < digits do
      let q, r' = Bignat.divmod (Bignat.mul !r ten) t.den in
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
     | None -> { num = Bigint.of_string s; den = Bignat.one }
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
