(* Tests for the exact-arithmetic substrate: Bignat, Bigint, Q. *)

open Pak_rational
module Error = Pak_guard.Error

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bignat unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let nat = Bignat.of_int
let nat_s = Bignat.of_string

let test_nat_of_to_string () =
  check_string "zero" "0" (Bignat.to_string Bignat.zero);
  check_string "one" "1" (Bignat.to_string Bignat.one);
  check_string "small" "12345" (Bignat.to_string (nat 12345));
  check_string "max-ish" "4611686018427387903" (Bignat.to_string (nat 4611686018427387903));
  let big = "123456789012345678901234567890123456789012345678901234567890" in
  check_string "roundtrip big" big (Bignat.to_string (nat_s big));
  check_string "leading zeros normalize" "42" (Bignat.to_string (nat_s "000042"));
  check_string "underscores" "1000000" (Bignat.to_string (nat_s "1_000_000"))

let test_nat_of_string_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Bignat.of_string: empty") (fun () ->
      ignore (nat_s ""));
  Alcotest.check_raises "letters" (Invalid_argument "Bignat.of_string: non-digit") (fun () ->
      ignore (nat_s "12a3"))

let test_nat_add_sub () =
  let a = nat_s "99999999999999999999999999" in
  let b = nat_s "1" in
  check_string "carry chain" "100000000000000000000000000" (Bignat.to_string (Bignat.add a b));
  check_string "sub inverse" (Bignat.to_string a)
    (Bignat.to_string (Bignat.sub (Bignat.add a b) b));
  check_string "a-a=0" "0" (Bignat.to_string (Bignat.sub a a));
  Alcotest.check_raises "negative" (Invalid_argument "Bignat.sub: negative result") (fun () ->
      ignore (Bignat.sub b a))

let test_nat_mul () =
  check_string "0*x" "0" (Bignat.to_string (Bignat.mul Bignat.zero (nat 7)));
  check_string "small" "56088" (Bignat.to_string (Bignat.mul (nat 123) (nat 456)));
  let a = nat_s "123456789123456789" in
  let b = nat_s "987654321987654321" in
  check_string "big schoolbook" "121932631356500531347203169112635269"
    (Bignat.to_string (Bignat.mul a b));
  (* commutativity on a known pair *)
  check_bool "commutes" true (Bignat.equal (Bignat.mul a b) (Bignat.mul b a))

let test_nat_divmod () =
  let a = nat_s "121932631356500531347203169112635269" in
  let b = nat_s "987654321987654321" in
  let q, r = Bignat.divmod a b in
  check_string "exact quotient" "123456789123456789" (Bignat.to_string q);
  check_string "exact remainder" "0" (Bignat.to_string r);
  let q, r = Bignat.divmod (nat 17) (nat 5) in
  check_string "17/5" "3" (Bignat.to_string q);
  check_string "17 mod 5" "2" (Bignat.to_string r);
  let q, r = Bignat.divmod (nat 3) (nat 5) in
  check_string "3/5" "0" (Bignat.to_string q);
  check_string "3 mod 5" "3" (Bignat.to_string r);
  Alcotest.check_raises "div by zero"
    (Error.Division_by_zero "Bignat.divmod: divisor is zero") (fun () ->
      ignore (Bignat.divmod (nat 3) Bignat.zero))

let test_nat_gcd () =
  check_string "gcd(12,18)" "6" (Bignat.to_string (Bignat.gcd (nat 12) (nat 18)));
  check_string "gcd(0,n)" "7" (Bignat.to_string (Bignat.gcd Bignat.zero (nat 7)));
  check_string "gcd(n,0)" "7" (Bignat.to_string (Bignat.gcd (nat 7) Bignat.zero));
  check_string "coprime" "1" (Bignat.to_string (Bignat.gcd (nat 35) (nat 64)));
  let a = Bignat.mul (nat_s "123456789") (nat_s "1000003") in
  let b = Bignat.mul (nat_s "123456789") (nat_s "999983") in
  check_string "big common factor" "123456789" (Bignat.to_string (Bignat.gcd a b))

let test_nat_pow () =
  check_string "10^20" "100000000000000000000" (Bignat.to_string (Bignat.pow (nat 10) 20));
  check_string "x^0" "1" (Bignat.to_string (Bignat.pow (nat 99) 0));
  check_string "0^0" "1" (Bignat.to_string (Bignat.pow Bignat.zero 0));
  check_string "0^5" "0" (Bignat.to_string (Bignat.pow Bignat.zero 5));
  check_string "2^100" "1267650600228229401496703205376" (Bignat.to_string (Bignat.pow Bignat.two 100))

let test_nat_compare_bits () =
  check_int "num_bits 0" 0 (Bignat.num_bits Bignat.zero);
  check_int "num_bits 1" 1 (Bignat.num_bits Bignat.one);
  check_int "num_bits 2^100" 101 (Bignat.num_bits (Bignat.pow Bignat.two 100));
  check_bool "cmp lt" true (Bignat.compare (nat 3) (nat 5) < 0);
  check_bool "cmp across limbs" true (Bignat.compare (nat 32767) (nat 32768) < 0);
  check_bool "shift_left" true
    (Bignat.equal (Bignat.shift_left (nat 3) 20) (nat (3 * (1 lsl 20))))

let test_nat_to_int_opt () =
  Alcotest.(check (option int)) "roundtrip" (Some 123456) (Bignat.to_int_opt (nat 123456));
  Alcotest.(check (option int)) "zero" (Some 0) (Bignat.to_int_opt Bignat.zero);
  Alcotest.(check (option int)) "too big" None
    (Bignat.to_int_opt (Bignat.pow Bignat.two 80))

(* ------------------------------------------------------------------ *)
(* Bigint unit tests                                                   *)
(* ------------------------------------------------------------------ *)

let int_ = Bigint.of_int

let test_int_basics () =
  check_string "neg" "-42" (Bigint.to_string (int_ (-42)));
  check_string "neg of pos" "-7" (Bigint.to_string (Bigint.neg (int_ 7)));
  check_string "neg of zero" "0" (Bigint.to_string (Bigint.neg Bigint.zero));
  check_int "sign -" (-1) (Bigint.sign (int_ (-3)));
  check_int "sign 0" 0 (Bigint.sign Bigint.zero);
  check_int "sign +" 1 (Bigint.sign (int_ 3));
  check_string "abs" "5" (Bigint.to_string (Bigint.abs (int_ (-5))));
  check_string "of_string -" "-123" (Bigint.to_string (Bigint.of_string "-123"));
  check_string "of_string +" "123" (Bigint.to_string (Bigint.of_string "+123"))

let test_int_min_int () =
  (* of_int must not overflow on min_int. *)
  let m = Bigint.of_int min_int in
  check_string "min_int" (string_of_int min_int) (Bigint.to_string m)

let test_int_arith () =
  check_string "3 + -5" "-2" (Bigint.to_string (Bigint.add (int_ 3) (int_ (-5))));
  check_string "-3 + -5" "-8" (Bigint.to_string (Bigint.add (int_ (-3)) (int_ (-5))));
  check_string "5 - 3" "2" (Bigint.to_string (Bigint.sub (int_ 5) (int_ 3)));
  check_string "3 - 5" "-2" (Bigint.to_string (Bigint.sub (int_ 3) (int_ 5)));
  check_string "(-3)*(-5)" "15" (Bigint.to_string (Bigint.mul (int_ (-3)) (int_ (-5))));
  check_string "(-3)*5" "-15" (Bigint.to_string (Bigint.mul (int_ (-3)) (int_ 5)));
  check_string "x + -x" "0" (Bigint.to_string (Bigint.add (int_ 12345) (int_ (-12345))))

let test_int_divmod_euclidean () =
  (* Euclidean convention: 0 <= r < |b| in all sign combinations. *)
  let cases = [ (7, 3); (-7, 3); (7, -3); (-7, -3); (6, 3); (-6, 3) ] in
  List.iter
    (fun (a, b) ->
      let q, r = Bigint.divmod (int_ a) (int_ b) in
      let qi = Option.get (Bigint.to_int_opt q) in
      let ri = Option.get (Bigint.to_int_opt r) in
      check_int (Printf.sprintf "a=%d b=%d reconstruct" a b) a ((qi * b) + ri);
      check_bool (Printf.sprintf "a=%d b=%d rem range" a b) true (ri >= 0 && ri < abs b))
    cases;
  Alcotest.check_raises "div by zero"
    (Error.Division_by_zero "Bigint.divmod: divisor is zero") (fun () ->
      ignore (Bigint.divmod (int_ 3) Bigint.zero))

let test_int_pow_compare () =
  check_string "(-2)^3" "-8" (Bigint.to_string (Bigint.pow (int_ (-2)) 3));
  check_string "(-2)^4" "16" (Bigint.to_string (Bigint.pow (int_ (-2)) 4));
  check_bool "-5 < 3" true (Bigint.compare (int_ (-5)) (int_ 3) < 0);
  check_bool "-5 < -3" true (Bigint.compare (int_ (-5)) (int_ (-3)) < 0);
  check_bool "gcd magnitudes" true (Bignat.equal (Bigint.gcd (int_ (-12)) (int_ 18)) (nat 6))

(* ------------------------------------------------------------------ *)
(* Q unit tests                                                        *)
(* ------------------------------------------------------------------ *)

let q = Q.of_ints
let q_s = Q.of_string

let test_q_normalization () =
  check_string "6/8 -> 3/4" "3/4" (Q.to_string (q 6 8));
  check_string "-6/8" "-3/4" (Q.to_string (q (-6) 8));
  check_string "6/-8" "-3/4" (Q.to_string (q 6 (-8)));
  check_string "-6/-8" "3/4" (Q.to_string (q (-6) (-8)));
  check_string "0/7" "0" (Q.to_string (q 0 7));
  check_string "int" "5" (Q.to_string (q 5 1));
  check_bool "structural equality after normalize" true (Q.equal (q 2 4) (q 1 2));
  Alcotest.check_raises "zero den" (Error.Division_by_zero "Q.make: zero denominator")
    (fun () -> ignore (q 1 0))

(* [Q.of_ints] takes a native-int gcd for positive denominators and
   [Q.make] otherwise; either way the record must be the one [Q.make]
   builds, limb for limb. *)
let of_ints_matches_make n d =
  let a = Q.of_ints n d and b = Q.make (Bigint.of_int n) (Bigint.of_int d) in
  Q.num a = Q.num b && Q.den a = Q.den b

let test_q_of_ints_boundaries () =
  let edges = [ min_int; min_int + 1; -7; -1; 0; 1; 6; 1 lsl 30; 1 lsl 61; max_int - 1; max_int ] in
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          if d <> 0 then
            check_bool (Printf.sprintf "of_ints %d %d = make" n d) true (of_ints_matches_make n d))
        edges)
    edges;
  check_string "min_int/1" (string_of_int min_int) (Q.to_string (q min_int 1));
  check_string "max_int/max_int" "1" (Q.to_string (q max_int max_int));
  check_string "min_int/min_int" "1" (Q.to_string (q min_int min_int));
  check_string "max_int/-1" (string_of_int (-max_int)) (Q.to_string (q max_int (-1)));
  check_string "0/-5" "0" (Q.to_string (q 0 (-5)));
  check_bool "0/max_int is zero" true (Q.equal Q.zero (q 0 max_int));
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "%d/0" n)
        (Error.Division_by_zero "Q.make: zero denominator")
        (fun () -> ignore (q n 0)))
    [ min_int; -1; 0; 1; max_int ]

let test_q_of_string () =
  check_string "fraction" "3/4" (Q.to_string (q_s "3/4"));
  check_string "unnormalized fraction" "3/4" (Q.to_string (q_s "75/100"));
  check_string "negative fraction" "-3/4" (Q.to_string (q_s "-3/4"));
  check_string "integer" "42" (Q.to_string (q_s "42"));
  check_string "decimal 0.95" "19/20" (Q.to_string (q_s "0.95"));
  check_string "decimal .5" "1/2" (Q.to_string (q_s "0.5"));
  check_string "decimal -1.25" "-5/4" (Q.to_string (q_s "-1.25"));
  check_string "decimal 0.009" "9/1000" (Q.to_string (q_s "0.009"));
  check_string "decimal 0.99899" "99899/100000" (Q.to_string (q_s "0.99899"));
  check_string "whitespace" "1/2" (Q.to_string (q_s " 1/2 "))

let test_q_arith () =
  check_string "1/2 + 1/3" "5/6" (Q.to_string (Q.add (q 1 2) (q 1 3)));
  check_string "1/2 - 1/3" "1/6" (Q.to_string (Q.sub (q 1 2) (q 1 3)));
  check_string "2/3 * 3/4" "1/2" (Q.to_string (Q.mul (q 2 3) (q 3 4)));
  check_string "(1/2)/(1/4)" "2" (Q.to_string (Q.div (q 1 2) (q 1 4)));
  check_string "inv -2/3" "-3/2" (Q.to_string (Q.inv (q (-2) 3)));
  check_string "pow (2/3)^3" "8/27" (Q.to_string (Q.pow (q 2 3) 3));
  check_string "pow (2/3)^-2" "9/4" (Q.to_string (Q.pow (q 2 3) (-2)));
  check_string "pow x^0" "1" (Q.to_string (Q.pow (q 5 7) 0));
  check_string "sum" "1" (Q.to_string (Q.sum [ q 1 2; q 1 3; q 1 6 ]));
  check_string "one_minus 0.95" "1/20" (Q.to_string (Q.one_minus (q_s "0.95")));
  Alcotest.check_raises "inv zero" (Error.Division_by_zero "Q.inv: inverse of zero")
    (fun () -> ignore (Q.inv Q.zero));
  Alcotest.check_raises "div by zero" (Error.Division_by_zero "Q.inv: inverse of zero")
    (fun () -> ignore (Q.div Q.one Q.zero))

let test_q_compare () =
  check_bool "1/3 < 1/2" true (Q.lt (q 1 3) (q 1 2));
  check_bool "-1/2 < 1/3" true (Q.lt (q (-1) 2) (q 1 3));
  check_bool "leq refl" true (Q.leq (q 2 4) (q 1 2));
  check_bool "geq" true (Q.geq (q 3 4) (q 1 2));
  check_bool "min" true (Q.equal (Q.min (q 1 3) (q 1 2)) (q 1 3));
  check_bool "max" true (Q.equal (Q.max (q 1 3) (q 1 2)) (q 1 2));
  check_bool "probability yes" true (Q.is_probability (q 19 20));
  check_bool "probability edge 0" true (Q.is_probability Q.zero);
  check_bool "probability edge 1" true (Q.is_probability Q.one);
  check_bool "probability no (neg)" false (Q.is_probability (q (-1) 2));
  check_bool "probability no (>1)" false (Q.is_probability (q 3 2))

let test_q_decimal_string () =
  check_string "exact terminating" "0.95" (Q.to_decimal_string (q_s "0.95"));
  check_string "integer" "3" (Q.to_decimal_string (q 3 1));
  check_string "negative" "-0.25" (Q.to_decimal_string (q (-1) 4));
  check_string "nonterminating truncated" "0.333333\xe2\x80\xa6"
    (Q.to_decimal_string ~digits:6 (q 1 3));
  check_string "custom digits" "0.66\xe2\x80\xa6" (Q.to_decimal_string ~digits:2 (q 2 3))

let test_q_to_float () =
  Alcotest.(check (float 1e-12)) "3/4" 0.75 (Q.to_float (q 3 4));
  Alcotest.(check (float 1e-12)) "-1/8" (-0.125) (Q.to_float (q (-1) 8));
  Alcotest.(check (float 1e-9)) "0.99 power"
    (0.9 ** 20.)
    (Q.to_float (Q.pow (q 9 10) 20))

let test_q_example1_numbers () =
  (* The exact numbers from Example 1 of the paper, as arithmetic checks:
     0.9*0.9 + 2*0.9*0.1 = 0.99 and 0.1*0.1*0.9 = 0.009, 1 - 0.009 = 0.991. *)
  let p_del = q 9 10 and p_loss = q 1 10 in
  let both_got =
    Q.sum
      [ Q.mul p_del p_del; Q.mul p_del p_loss; Q.mul p_loss p_del ]
  in
  check_string "P(Bob got >=1 msg)" "99/100" (Q.to_string both_got);
  let violation = Q.mul (Q.mul p_loss p_loss) p_del in
  check_string "P(No delivered)" "9/1000" (Q.to_string violation);
  check_string "threshold met measure" "991/1000" (Q.to_string (Q.one_minus violation));
  check_string "improved protocol" "990/991"
    (Q.to_string (Q.div both_got (Q.one_minus violation)))

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let gen_q : Q.t QCheck.arbitrary =
  let open QCheck in
  map
    ~rev:(fun q -> (Option.get (Bigint.to_int_opt (Q.num q)), Option.get (Bignat.to_int_opt (Q.den q))))
    (fun (n, d) -> Q.of_ints n (1 + abs d))
    (pair (int_range (-10000) 10000) (int_range 0 9999))

let gen_nat_pair =
  QCheck.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))

let prop_nat_add_commutative =
  QCheck.Test.make ~count:500 ~name:"bignat add commutative" gen_nat_pair (fun (a, b) ->
      Bignat.equal (Bignat.add (nat a) (nat b)) (Bignat.add (nat b) (nat a)))

let prop_nat_mul_matches_int =
  QCheck.Test.make ~count:500 ~name:"bignat mul matches native int"
    QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
    (fun (a, b) -> Bignat.to_int_opt (Bignat.mul (nat a) (nat b)) = Some (a * b))

let prop_nat_divmod_reconstructs =
  QCheck.Test.make ~count:500 ~name:"bignat divmod reconstructs"
    QCheck.(pair (int_range 0 10_000_000) (int_range 1 50_000))
    (fun (a, b) ->
      let q, r = Bignat.divmod (nat a) (nat b) in
      Bignat.equal (nat a) (Bignat.add (Bignat.mul q (nat b)) r)
      && Bignat.compare r (nat b) < 0)

let prop_nat_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"bignat string roundtrip"
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let n = nat_s s in
      Bignat.equal n (nat_s (Bignat.to_string n)))

let prop_nat_gcd_divides =
  QCheck.Test.make ~count:500 ~name:"bignat gcd divides both"
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
      let g = Bignat.gcd (nat a) (nat b) in
      Bignat.is_zero (Bignat.rem (nat a) g) && Bignat.is_zero (Bignat.rem (nat b) g))

let prop_q_add_assoc =
  QCheck.Test.make ~count:300 ~name:"Q add associative"
    QCheck.(triple gen_q gen_q gen_q)
    (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)))

let prop_q_mul_distributes =
  QCheck.Test.make ~count:300 ~name:"Q mul distributes over add"
    QCheck.(triple gen_q gen_q gen_q)
    (fun (a, b, c) -> Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_q_add_neg_zero =
  QCheck.Test.make ~count:300 ~name:"Q x + (-x) = 0" gen_q (fun a ->
      Q.is_zero (Q.add a (Q.neg a)))

let prop_q_mul_inv_one =
  QCheck.Test.make ~count:300 ~name:"Q x * x^-1 = 1" gen_q (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal (Q.mul a (Q.inv a)) Q.one)

let prop_q_string_roundtrip =
  QCheck.Test.make ~count:300 ~name:"Q string roundtrip" gen_q (fun a ->
      Q.equal a (Q.of_string (Q.to_string a)))

let prop_q_compare_consistent_with_float =
  QCheck.Test.make ~count:300 ~name:"Q compare consistent with float on small values"
    QCheck.(pair gen_q gen_q)
    (fun (a, b) ->
      let c = Q.compare a b in
      let fa = Q.to_float a and fb = Q.to_float b in
      (* floats are exact for these small fractions' comparisons unless
         very close; skip near-ties *)
      QCheck.assume (abs_float (fa -. fb) > 1e-9);
      (c < 0) = (fa < fb))

let prop_q_compare_antisym =
  QCheck.Test.make ~count:300 ~name:"Q compare antisymmetric"
    QCheck.(pair gen_q gen_q)
    (fun (a, b) -> Q.compare a b = -Q.compare b a)

let prop_q_of_ints_matches_make =
  QCheck.Test.make ~count:1000 ~name:"Q.of_ints builds the same record as Q.make"
    QCheck.(pair int int)
    (fun (n, d) -> QCheck.assume (d <> 0); of_ints_matches_make n d)

(* [Q.of_string] reads "n" and "n/d" with at most 18 digits a side on
   ints; longer numerals, and zero denominators, take the bignum path.
   Either way the record (or the exception) is [Q.make]'s. *)
let prop_q_of_string_matches_make =
  let digits =
    QCheck.Gen.(
      map2 ( ^ )
        (map (fun k -> String.make k '0') (int_bound 2))
        (string_size ~gen:(char_range '0' '9') (int_range 1 20)))
  in
  let den = QCheck.Gen.(frequency [ (1, return (Some "0")); (2, return None); (7, opt digits) ]) in
  let show (neg, n, d) =
    (if neg then "-" else "") ^ n ^ match d with Some d -> "/" ^ d | None -> ""
  in
  let outcome f =
    match f () with q -> Ok q | exception Pak_guard.Error.Division_by_zero m -> Error m
  in
  QCheck.Test.make ~count:1000 ~name:"Q.of_string matches Q.make at the 18/19-digit boundary"
    (QCheck.make ~print:show QCheck.Gen.(triple bool digits den))
    (fun ((neg, n, d) as case) ->
      let expected =
        outcome (fun () ->
            Q.make
              (Bigint.of_string ((if neg then "-" else "") ^ n))
              (match d with Some d -> Bigint.of_string d | None -> Bigint.one))
      in
      outcome (fun () -> Q.of_string (show case)) = expected)

(* [Q.add], [Q.mul] and [Q.compare] take the int path exactly when
   every part is below 2^30 in magnitude; operands straddling that
   boundary must give what the bignum operations give. *)
let prop_q_small_path_boundary =
  let part =
    QCheck.Gen.(
      oneof
        [ map (fun k -> (1 lsl 30) + k) (int_range (-3) 3);
          int_range 1 1000;
          map (fun k -> (1 lsl 60) + k) (int_range (-3) 3) ])
  in
  let signed = QCheck.Gen.(map2 (fun neg v -> if neg then -v else v) bool part) in
  let gen = QCheck.Gen.(quad signed part signed part) in
  QCheck.Test.make ~count:1000 ~name:"Q small path agrees with bignum arithmetic at 2^30"
    (QCheck.make ~print:QCheck.Print.(quad int int int int) gen)
    (fun (an, ad, bn, bd) ->
      let big = Bigint.of_int in
      let a = Q.make (big an) (big ad) and b = Q.make (big bn) (big bd) in
      let cross x y = Bigint.mul (Q.num x) (Bigint.of_bignat (Q.den y)) in
      let den_prod = Bigint.of_bignat (Bignat.mul (Q.den a) (Q.den b)) in
      let small_ok n =
        Bigint.small (big n) = (if abs n < 1 lsl 30 then n else min_int)
      in
      Q.equal (Q.add a b) (Q.make (Bigint.add (cross a b) (cross b a)) den_prod)
      && Q.equal (Q.mul a b) (Q.make (Bigint.mul (Q.num a) (Q.num b)) den_prod)
      && Q.compare a b = Bigint.compare (cross a b) (cross b a)
      && small_ok an && small_ok ad)

let prop_q_normalized_gcd_one =
  QCheck.Test.make ~count:300 ~name:"Q always in lowest terms" gen_q (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Bignat.is_one (Bignat.gcd (Bigint.to_bignat (Q.num a)) (Q.den a)))

(* ------------------------------------------------------------------ *)
(* Q against the limb oracle                                           *)
(* ------------------------------------------------------------------ *)

(* [Q] holds a value whose parts are both below 2^30 as two ints and
   every other value as limbs. [Q_oracle] is the all-limbs [Q] it
   replaced. The grids below put parts on both sides of 2^30 and
   products on both sides of 2^60 and 2^62; every operation must give
   the oracle's value, rendering, hash and order, in canonical form. *)

module O = Q_oracle

let b30 = 1 lsl 30

(* The value of an operation, or the text of the exception it raised. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let fits o = Bigint.small (O.num o) <> min_int && Bignat.small (O.den o) >= 0

(* [q] is the oracle's [o]: same parts, text, hash and sign, and held
   as ints exactly when both parts are below 2^30. *)
let same_parts q o =
  Q.to_string q = O.to_string o
  && Bigint.equal (Q.num q) (O.num o)
  && Bignat.equal (Q.den q) (O.den o)
  && Q.hash q = O.hash o
  && Q.sign q = O.sign o
  && Q.is_zero q = O.is_zero o
  && (Q.small_den q > 0) = fits o
  && (Q.small_den q = 0
     || (Q.small_num q = Bigint.small (O.num o) && Q.small_den q = Bignat.small (O.den o)))

(* ... and the same decimal text and float. *)
let same_value q o =
  same_parts q o
  && Q.to_decimal_string q = O.to_decimal_string o
  && Int64.equal (Int64.bits_of_float (Q.to_float q)) (Int64.bits_of_float (O.to_float o))

let same_outcome ?(same = same_value) what q o =
  match (outcome q, outcome o) with
  | Ok q, Ok o ->
    if not (same q o) then
      Alcotest.failf "%s: %s, oracle %s" what (Q.to_string q) (O.to_string o)
  | Error e, Error e' ->
    if e <> e' then Alcotest.failf "%s raised %s, oracle %s" what e e'
  | Ok q, Error e -> Alcotest.failf "%s: %s, oracle raised %s" what (Q.to_string q) e
  | Error e, Ok o -> Alcotest.failf "%s raised %s, oracle %s" what e (O.to_string o)

(* Parts on both sides of 15 and 30 bits, of 2^60 (a product of two
   30-bit parts) and up to [max_int] (past 2^62 once multiplied). *)
let boundary_parts =
  [ 0; 1; 2; 3; 6; 32767; 32768; b30 - 2; b30 - 1; b30; b30 + 1; 3 * b30; (1 lsl 31) + 1;
    (1 lsl 60) - 1; 1 lsl 60; (1 lsl 60) + 1; (1 lsl 61) + 3; max_int - 1; max_int ]

let signed parts = List.concat_map (fun n -> if n = 0 then [ 0 ] else [ n; -n ]) parts
let grid_nums = (min_int :: min_int + 1 :: signed boundary_parts)
let grid_dens = (0 :: min_int :: -1 :: -(b30 - 1) :: -b30 :: List.tl boundary_parts)

let pairs_of nums dens =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun d ->
          match (outcome (fun () -> Q.of_ints n d), outcome (fun () -> O.of_ints n d)) with
          | Ok q, Ok o -> Some (Printf.sprintf "%d/%d" n d, q, o)
          | _ -> None)
        dens)
    nums

let test_q_oracle_of_ints () =
  List.iter
    (fun n ->
      List.iter
        (fun d ->
          let what = Printf.sprintf "of_ints %d %d" n d in
          same_outcome what (fun () -> Q.of_ints n d) (fun () -> O.of_ints n d);
          same_outcome (what ^ " via make")
            (fun () -> Q.make (Bigint.of_int n) (Bigint.of_int d))
            (fun () -> O.make (Bigint.of_int n) (Bigint.of_int d)))
        grid_dens;
      same_outcome (Printf.sprintf "of_int %d" n) (fun () -> Q.of_int n) (fun () -> O.of_int n))
    grid_nums

let test_q_oracle_unary () =
  List.iter
    (fun (what, q, o) ->
      same_outcome ("neg " ^ what) (fun () -> Q.neg q) (fun () -> O.neg o);
      same_outcome ("abs " ^ what) (fun () -> Q.abs q) (fun () -> O.abs o);
      same_outcome ("inv " ^ what) (fun () -> Q.inv q) (fun () -> O.inv o);
      same_outcome ("1 - " ^ what) (fun () -> Q.one_minus q) (fun () -> O.one_minus o);
      same_outcome ("reparse " ^ what) (fun () -> Q.of_string (Q.to_string q)) (fun () -> o);
      List.iter
        (fun e ->
          same_outcome (Printf.sprintf "(%s)^%d" what e) (fun () -> Q.pow q e) (fun () -> O.pow o e))
        [ -2; -1; 0; 1; 2; 3 ];
      (* Canonical form: an equal value built another way is the same
         value to polymorphic equality and hashing. *)
      let q' = Q.of_string (Q.to_string q) in
      if not (q = q' && Hashtbl.hash q = Hashtbl.hash q') then
        Alcotest.failf "%s is not canonical" what)
    (pairs_of grid_nums grid_dens)

let test_q_oracle_binary () =
  let values =
    pairs_of
      (min_int :: signed [ 0; 1; 3; 32768; b30 - 1; b30; b30 + 1; (1 lsl 31) + 1; (1 lsl 60) + 1; max_int ])
      [ -1; 1; 2; 32768; b30 - 1; b30; b30 + 1; (1 lsl 60) - 1; max_int ]
  in
  List.iter
    (fun (wa, a, oa) ->
      List.iter
        (fun (wb, b, ob) ->
          let what op = Printf.sprintf "(%s) %s (%s)" wa op wb in
          let same = same_parts in
          same_outcome ~same (what "+") (fun () -> Q.add a b) (fun () -> O.add oa ob);
          same_outcome ~same (what "-") (fun () -> Q.sub a b) (fun () -> O.sub oa ob);
          same_outcome ~same (what "*") (fun () -> Q.mul a b) (fun () -> O.mul oa ob);
          same_outcome ~same (what "/") (fun () -> Q.div a b) (fun () -> O.div oa ob);
          if Q.compare a b <> O.compare oa ob then Alcotest.failf "%s" (what "compare");
          if Q.equal a b <> O.equal oa ob || (a = b) <> Q.equal a b then
            Alcotest.failf "%s" (what "equal"))
        values)
    values

let test_q_oracle_of_string () =
  let forms =
    [ "0"; "-0"; "3/4"; "-3/4"; "+3/4"; "3/-4"; "-3/-4"; "6/8"; "0/5"; "5/0"; "0/0"; "0.95"; "-1.25";
      "+0.5"; ".5"; "-.5"; "1."; "1.0"; "0.000"; "1_000/3"; "1_0.2_5"; " 3/4 "; ""; "  "; "abc";
      "1/2/3"; "1e5"; "--1"; "1073741823/1073741824"; "1073741824/1073741823";
      "-1073741823/1073741823"; "1073741823"; "1073741824"; "-1073741824"; "2147483648/4";
      "4611686018427387903"; "4611686018427387904"; "-4611686018427387904/2";
      "999999999999999999/1"; "1000000000000000000/3"; "123456789012345678901234567890/10";
      "0.1073741824"; "1073741823.5"; "0.000000001"; "1/1073741824"; "-1/1073741823" ]
  in
  List.iter
    (fun s -> same_outcome (Printf.sprintf "of_string %S" s) (fun () -> Q.of_string s) (fun () -> O.of_string s))
    forms

(* Random parts near each switch: 2^15 and 2^30 (limb counts, the int
   bound), 2^31 and 2^60 (products of two parts). *)
let prop_q_oracle_near_switch =
  let part =
    QCheck.Gen.(
      oneof
        [ map (fun k -> b30 + k) (int_range (-4) 4);
          map (fun k -> (1 lsl 15) + k) (int_range (-4) 4);
          map (fun k -> (1 lsl 31) + k) (int_range (-4) 4);
          map (fun k -> (1 lsl 60) + k) (int_range (-4) 4);
          int_range 1 100 ])
  in
  let signed = QCheck.Gen.(map2 (fun neg v -> if neg then -v else v) bool part) in
  QCheck.Test.make ~count:2000 ~name:"Q agrees with the limb oracle near the int/limb switch"
    (QCheck.make ~print:QCheck.Print.(quad int int int int) QCheck.Gen.(quad signed part signed part))
    (fun (an, ad, bn, bd) ->
      let a = Q.of_ints an ad and b = Q.of_ints bn bd in
      let oa = O.of_ints an ad and ob = O.of_ints bn bd in
      same_value a oa && same_value b ob
      && same_value (Q.add a b) (O.add oa ob)
      && same_value (Q.sub a b) (O.sub oa ob)
      && same_value (Q.mul a b) (O.mul oa ob)
      && same_value (Q.div a b) (O.div oa ob)
      && same_value (Q.inv a) (O.inv oa)
      && Q.compare a b = O.compare oa ob
      && Q.equal a b = O.equal oa ob)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_nat_add_commutative;
      prop_nat_mul_matches_int;
      prop_nat_divmod_reconstructs;
      prop_nat_string_roundtrip;
      prop_nat_gcd_divides;
      prop_q_add_assoc;
      prop_q_mul_distributes;
      prop_q_add_neg_zero;
      prop_q_mul_inv_one;
      prop_q_string_roundtrip;
      prop_q_compare_consistent_with_float;
      prop_q_compare_antisym;
      prop_q_normalized_gcd_one;
      prop_q_of_ints_matches_make;
      prop_q_of_string_matches_make;
      prop_q_small_path_boundary;
      prop_q_oracle_near_switch
    ]

let () =
  Alcotest.run "pak_rational"
    [ ( "bignat",
        [ Alcotest.test_case "string conversions" `Quick test_nat_of_to_string;
          Alcotest.test_case "of_string invalid" `Quick test_nat_of_string_invalid;
          Alcotest.test_case "add/sub" `Quick test_nat_add_sub;
          Alcotest.test_case "mul" `Quick test_nat_mul;
          Alcotest.test_case "divmod" `Quick test_nat_divmod;
          Alcotest.test_case "gcd" `Quick test_nat_gcd;
          Alcotest.test_case "pow" `Quick test_nat_pow;
          Alcotest.test_case "compare/bits/shift" `Quick test_nat_compare_bits;
          Alcotest.test_case "to_int_opt" `Quick test_nat_to_int_opt
        ] );
      ( "bigint",
        [ Alcotest.test_case "basics" `Quick test_int_basics;
          Alcotest.test_case "min_int" `Quick test_int_min_int;
          Alcotest.test_case "arithmetic" `Quick test_int_arith;
          Alcotest.test_case "euclidean divmod" `Quick test_int_divmod_euclidean;
          Alcotest.test_case "pow/compare/gcd" `Quick test_int_pow_compare
        ] );
      ( "q",
        [ Alcotest.test_case "normalization" `Quick test_q_normalization;
          Alcotest.test_case "of_string" `Quick test_q_of_string;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "comparisons" `Quick test_q_compare;
          Alcotest.test_case "decimal rendering" `Quick test_q_decimal_string;
          Alcotest.test_case "to_float" `Quick test_q_to_float;
          Alcotest.test_case "example 1 numbers" `Quick test_q_example1_numbers;
          Alcotest.test_case "of_ints boundaries" `Quick test_q_of_ints_boundaries
        ] );
      ( "q oracle",
        [ Alcotest.test_case "of_ints and make grid" `Quick test_q_oracle_of_ints;
          Alcotest.test_case "unary ops grid" `Quick test_q_oracle_unary;
          Alcotest.test_case "binary ops grid" `Quick test_q_oracle_binary;
          Alcotest.test_case "of_string forms" `Quick test_q_oracle_of_string
        ] );
      ("properties", qcheck_cases)
    ]
