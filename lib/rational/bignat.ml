(* Little-endian limbs in base 2^15. The 15-bit base keeps every
   intermediate of schoolbook multiplication (limb product + carry,
   bounded by 2^30 + 2^15) comfortably inside a 63-bit native int, and
   makes bit-level access for long division cheap. *)

module Error = Pak_guard.Error
module Budget = Pak_guard.Budget

let base_bits = 15
let base = 1 lsl base_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]
let is_zero a = Array.length a = 0

(* Trim trailing (most-significant) zero limbs so that representations
   are canonical and [compare] can test lengths first. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count k acc = if k = 0 then acc else count (k lsr base_bits) (acc + 1) in
    let len = count n 0 in
    let a = Array.make len 0 in
    let rec fill i k =
      if k <> 0 then begin
        a.(i) <- k land limb_mask;
        fill (i + 1) (k lsr base_bits)
      end
    in
    fill 0 n;
    a
  end

let one = of_int 1
let two = of_int 2
let is_one a = Array.length a = 1 && a.(0) = 1

(* Two 15-bit limbs hold every value below 2^30. *)
let small a =
  match Array.length a with
  | 0 -> 0
  | 1 -> a.(0)
  | 2 -> a.(0) lor (a.(1) lsl base_bits)
  | _ -> -1

let to_int_opt a =
  let len = Array.length a in
  (* 4 limbs = 60 bits always fits; 5 limbs may overflow. *)
  if len > 5 then None
  else begin
    let rec go i acc =
      if i < 0 then Some acc
      else
        let limb = a.(i) in
        if acc > (max_int - limb) lsr base_bits then None
        else go (i - 1) ((acc lsl base_bits) lor limb)
    in
    go (len - 1) 0
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

let hash a = Array.fold_left (fun h limb -> (h * 31 + limb) land max_int) 17 a

let add a b =
  let la = Array.length a and lb = Array.length b in
  let len = 1 + max la lb in
  let out = Array.make len 0 in
  let carry = ref 0 in
  for i = 0 to len - 1 do
    let x = if i < la then a.(i) else 0 in
    let y = if i < lb then b.(i) else 0 in
    let s = x + y + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  normalize out

let succ a = add a one

let sub a b =
  if compare a b < 0 then invalid_arg "Bignat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let y = if i < lb then b.(i) else 0 in
    let d = a.(i) - y - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    (* Fuel: schoolbook multiplication touches la*lb limb products. *)
    Budget.charge_limbs (la * lb);
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- cur land limb_mask;
        carry := cur lsr base_bits
      done;
      (* Propagate the final carry; it fits in one limb because
         ai*b.(j) < 2^30 and accumulated carries stay below base. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = out.(!k) + !carry in
        out.(!k) <- cur land limb_mask;
        carry := cur lsr base_bits;
        incr k
      done
    done;
    normalize out
  end

let num_bits a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width k acc = if k = 0 then acc else width (k lsr 1) (acc + 1) in
    ((la - 1) * base_bits) + width top 0
  end

let get_bit a i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr off) land 1

let shift_left a k =
  if is_zero a || k = 0 then a
  else begin
    let bits = num_bits a + k in
    let len = (bits + base_bits - 1) / base_bits in
    let out = Array.make len 0 in
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      out.(i + limb_shift) <- out.(i + limb_shift) lor (v land limb_mask);
      let hi = v lsr base_bits in
      if hi <> 0 then out.(i + limb_shift + 1) <- out.(i + limb_shift + 1) lor hi
    done;
    normalize out
  end

(* Long division, one bit of the dividend at a time. The operands in
   this library are run-measure denominators (a few hundred bits at
   most), for which this simple algorithm is more than fast enough and
   easy to trust. The remainder is kept in a mutable scratch buffer to
   avoid reallocating per bit. *)
let divmod a b =
  if is_zero b then raise (Error.Division_by_zero "Bignat.divmod: divisor is zero");
  if compare a b < 0 then (zero, a)
  else begin
    let nbits = num_bits a in
    (* Fuel: bitwise long division walks nbits bits against lb limbs. *)
    Budget.charge_limbs ((nbits / base_bits + 1) * Array.length b);
    let scratch_len = Array.length a + 1 in
    let rem = Array.make scratch_len 0 in
    let rem_limbs = ref 0 in
    let qbits = Array.make nbits false in
    let lb = Array.length b in
    (* rem := rem*2 + bit, in place *)
    let push_bit bit =
      let carry = ref bit in
      for i = 0 to !rem_limbs - 1 do
        let v = (rem.(i) lsl 1) lor !carry in
        rem.(i) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      if !carry <> 0 then begin
        rem.(!rem_limbs) <- !carry;
        incr rem_limbs
      end
    in
    let rem_ge_b () =
      if !rem_limbs <> lb then !rem_limbs > lb
      else begin
        let rec go i =
          if i < 0 then true
          else if rem.(i) <> b.(i) then rem.(i) > b.(i)
          else go (i - 1)
        in
        go (lb - 1)
      end
    in
    let rem_sub_b () =
      let borrow = ref 0 in
      for i = 0 to !rem_limbs - 1 do
        let y = if i < lb then b.(i) else 0 in
        let d = rem.(i) - y - !borrow in
        if d < 0 then begin
          rem.(i) <- d + base;
          borrow := 1
        end else begin
          rem.(i) <- d;
          borrow := 0
        end
      done;
      while !rem_limbs > 0 && rem.(!rem_limbs - 1) = 0 do
        decr rem_limbs
      done
    in
    for i = nbits - 1 downto 0 do
      push_bit (get_bit a i);
      if rem_ge_b () then begin
        rem_sub_b ();
        qbits.(i) <- true
      end
    done;
    let qlen = (nbits + base_bits - 1) / base_bits in
    let q = Array.make qlen 0 in
    for i = 0 to nbits - 1 do
      if qbits.(i) then begin
        let limb = i / base_bits and off = i mod base_bits in
        q.(limb) <- q.(limb) lor (1 lsl off)
      end
    done;
    (normalize q, normalize (Array.sub rem 0 !rem_limbs))
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let pow b e =
  if e < 0 then invalid_arg "Bignat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

(* Decimal i/o uses short division/multiplication by 10^4, which fits a
   limb and avoids the general long-division path. *)
let decimal_chunk = 10_000
let decimal_chunk_digits = 4

let divmod_small a m =
  (* m must satisfy m*base <= max_int, true for m = 10^4. *)
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / m;
    r := cur mod m
  done;
  (normalize q, !r)

let mul_small_add a m c =
  (* a*m + c for small m, c (each < 2^15 or so) *)
  let la = Array.length a in
  let out = Array.make (la + 2) 0 in
  let carry = ref c in
  for i = 0 to la - 1 do
    let cur = (a.(i) * m) + !carry in
    out.(i) <- cur land limb_mask;
    carry := cur lsr base_bits
  done;
  let k = ref la in
  while !carry <> 0 do
    out.(!k) <- !carry land limb_mask;
    carry := !carry lsr base_bits;
    incr k
  done;
  normalize out

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a chunks =
      if is_zero a then chunks
      else begin
        let q, r = divmod_small a decimal_chunk in
        go q (r :: chunks)
      end
    in
    (match go a [] with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter
         (fun chunk -> Buffer.add_string buf (Printf.sprintf "%0*d" decimal_chunk_digits chunk))
         rest);
    Buffer.contents buf
  end

let of_string s =
  let digits =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> String.of_seq
  in
  if String.length digits = 0 then invalid_arg "Bignat.of_string: empty";
  String.iter
    (fun c -> if c < '0' || c > '9' then invalid_arg "Bignat.of_string: non-digit")
    digits;
  let acc = ref zero in
  let n = String.length digits in
  let i = ref 0 in
  while !i < n do
    let take = min decimal_chunk_digits (n - !i) in
    let chunk = int_of_string (String.sub digits !i take) in
    let m = match take with 1 -> 10 | 2 -> 100 | 3 -> 1_000 | _ -> 10_000 in
    acc := mul_small_add !acc m chunk;
    i := !i + take
  done;
  !acc

let pp fmt a = Format.pp_print_string fmt (to_string a)
