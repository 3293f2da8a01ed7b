module Error = Pak_guard.Error

type t = { sign : int; mag : Bignat.t }

let mk sign mag = if Bignat.is_zero mag then { sign = 0; mag = Bignat.zero } else { sign; mag }

let zero = { sign = 0; mag = Bignat.zero }
let one = { sign = 1; mag = Bignat.one }
let minus_one = { sign = -1; mag = Bignat.one }

let of_bignat m = mk 1 m
let to_bignat t = t.mag

let of_int n =
  if n = 0 then zero
  else if n > 0 then { sign = 1; mag = Bignat.of_int n }
  else if n = min_int then
    (* -min_int overflows; go through the magnitude as a string. *)
    { sign = -1; mag = Bignat.of_string (String.sub (string_of_int n) 1 (String.length (string_of_int n) - 1)) }
  else { sign = -1; mag = Bignat.of_int (-n) }

let to_int_opt t =
  match Bignat.to_int_opt t.mag with
  | None -> None
  | Some m -> Some (t.sign * m)

let small t =
  let m = Bignat.small t.mag in
  if m < 0 then min_int else t.sign * m

let sign t = t.sign
let is_zero t = t.sign = 0
let neg t = mk (-t.sign) t.mag
let abs t = mk (if t.sign = 0 then 0 else 1) t.mag

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else
    match a.sign with
    | 0 -> 0
    | s -> s * Bignat.compare a.mag b.mag

let equal a b = compare a b = 0
let hash t = (t.sign + 1) + (3 * Bignat.hash t.mag)

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { sign = a.sign; mag = Bignat.add a.mag b.mag }
  else begin
    let c = Bignat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then { sign = a.sign; mag = Bignat.sub a.mag b.mag }
    else { sign = b.sign; mag = Bignat.sub b.mag a.mag }
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else { sign = a.sign * b.sign; mag = Bignat.mul a.mag b.mag }

let divmod a b =
  if b.sign = 0 then raise (Error.Division_by_zero "Bigint.divmod: divisor is zero");
  let q, r = Bignat.divmod a.mag b.mag in
  if a.sign >= 0 then (mk b.sign q, mk 1 r)
  else if Bignat.is_zero r then (mk (-b.sign) q, zero)
  else
    (* Euclidean convention: remainder stays non-negative. *)
    (mk (-b.sign) (Bignat.succ q), mk 1 (Bignat.sub b.mag r))

let gcd a b = Bignat.gcd a.mag b.mag

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let sign = if b.sign < 0 && e land 1 = 1 then -1 else if b.sign = 0 && e > 0 then 0 else 1 in
  if b.sign = 0 && e > 0 then zero
  else if e = 0 then one
  else mk sign (Bignat.pow b.mag e)

let to_string t =
  match t.sign with
  | 0 -> "0"
  | s -> (if s < 0 then "-" else "") ^ Bignat.to_string t.mag

let of_string s =
  if String.length s = 0 then invalid_arg "Bigint.of_string: empty";
  match s.[0] with
  | '-' -> mk (-1) (Bignat.of_string (String.sub s 1 (String.length s - 1)))
  | '+' -> mk 1 (Bignat.of_string (String.sub s 1 (String.length s - 1)))
  | _ -> mk 1 (Bignat.of_string s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
