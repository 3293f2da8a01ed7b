(* Tests for the probabilistic epistemic logic: formulas, parser,
   printer round-trip, model checker, group knowledge/belief. *)

open Pak_rational
open Pak_pps
open Pak_logic
module Obs = Pak_obs.Obs

let q = Q.of_ints
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_q msg expected actual =
  check_string msg (Q.to_string expected) (Q.to_string actual)

(* The T̂(3/4, 1/4) system from test_pps, reused as the main model. *)
let that () =
  let b = Tree.Builder.create ~n_agents:2 in
  let p = q 3 4 in
  let s0 = Tree.Builder.add_initial b ~prob:(Q.one_minus p) (Gstate.of_labels "e" [ "i0"; "bit0" ]) in
  let s1 = Tree.Builder.add_initial b ~prob:p (Gstate.of_labels "e" [ "i0"; "bit1" ]) in
  let n_r =
    Tree.Builder.add_child b ~parent:s0 ~prob:Q.one ~acts:[| "env"; "recv"; "send_mj" |]
      (Gstate.of_labels "e" [ "got_mj"; "bit0" ])
  in
  let n_r' =
    Tree.Builder.add_child b ~parent:s1 ~prob:(q 2 3) ~acts:[| "env"; "recv"; "send_mj" |]
      (Gstate.of_labels "e" [ "got_mj"; "bit1" ])
  in
  let n_r'' =
    Tree.Builder.add_child b ~parent:s1 ~prob:(q 1 3) ~acts:[| "env"; "recv"; "send_mj'" |]
      (Gstate.of_labels "e" [ "got_mj'"; "bit1" ])
  in
  List.iter
    (fun (parent, bit) ->
      ignore
        (Tree.Builder.add_child b ~parent ~prob:Q.one ~acts:[| "env"; "alpha"; "noop" |]
           (Gstate.of_labels "e" [ "done"; bit ])))
    [ (n_r, "bit0"); (n_r', "bit1"); (n_r'', "bit1") ];
  Tree.Builder.finalize b

let valuation atom g =
  match atom with
  | "bit1" -> Gstate.local g 1 = "bit1"
  | "bit0" -> Gstate.local g 1 = "bit0"
  | "got_mj" -> Gstate.local g 0 = "got_mj"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Formula construction and inspection                                 *)
(* ------------------------------------------------------------------ *)

let test_formula_helpers () =
  let open Formula in
  let f = k 0 (atom "x" &&& neg (atom "y")) ==> b_geq 1 Q.half (does 1 "go") in
  check_int "size" 8 (size f);
  Alcotest.(check (list int)) "agents" [ 0; 1 ] (agents f);
  Alcotest.(check (list string)) "atoms" [ "x"; "y" ] (atoms f);
  check_bool "conj []" true (equal (conj []) True);
  check_bool "disj []" true (equal (disj []) False);
  check_bool "conj assoc" true
    (equal (conj [ atom "a"; atom "b"; atom "c" ])
       (And (And (Atom "a", Atom "b"), Atom "c")))

let test_formula_printing () =
  let open Formula in
  check_string "atom" "x" (to_string (atom "x"));
  check_string "not" "!x" (to_string (neg (atom "x")));
  check_string "and" "x & y" (to_string (atom "x" &&& atom "y"));
  check_string "or of and" "x & y | z" (to_string (atom "x" &&& atom "y" ||| atom "z"));
  check_string "and of or needs parens" "(x | y) & z"
    (to_string (And (Or (Atom "x", Atom "y"), Atom "z")));
  check_string "implies" "x -> y -> z"
    (to_string (Implies (Atom "x", Implies (Atom "y", Atom "z"))));
  check_string "left nested implies" "(x -> y) -> z"
    (to_string (Implies (Implies (Atom "x", Atom "y"), Atom "z")));
  check_string "knowledge" "K[0] x" (to_string (k 0 (atom "x")));
  check_string "belief" "B[1]>=3/4 x" (to_string (b_geq 1 (q 3 4) (atom "x")));
  check_string "belief strict" "B[1]<1/2 x"
    (to_string (Believes (1, Lt, Q.half, Atom "x")));
  check_string "does" "does[0](fire_a)" (to_string (does 0 "fire_a"));
  check_string "group" "CB[0,1]>=19/20 x"
    (to_string (CommonBelief ([ 0; 1 ], q 19 20, Atom "x")));
  check_string "temporal" "F G x" (to_string (Eventually (Globally (Atom "x"))));
  check_string "modality over and" "K[0] (x & y)"
    (to_string (k 0 (atom "x" &&& atom "y")))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parser_basics () =
  let open Formula in
  let roundtrip s = Parser.parse s in
  check_bool "true" true (equal (roundtrip "true") True);
  check_bool "atom" true (equal (roundtrip "fire_a") (Atom "fire_a"));
  check_bool "precedence & over |" true
    (equal (roundtrip "a | b & c") (Or (Atom "a", And (Atom "b", Atom "c"))));
  check_bool "imp right assoc" true
    (equal (roundtrip "a -> b -> c") (Implies (Atom "a", Implies (Atom "b", Atom "c"))));
  check_bool "parens" true
    (equal (roundtrip "(a | b) & c") (And (Or (Atom "a", Atom "b"), Atom "c")));
  check_bool "not binds tight" true
    (equal (roundtrip "!a & b") (And (Not (Atom "a"), Atom "b")));
  check_bool "knowledge" true (equal (roundtrip "K[0] x") (Knows (0, Atom "x")));
  check_bool "belief decimal" true
    (equal (roundtrip "B[1]>=0.95 x") (Believes (1, Geq, q 19 20, Atom "x")));
  check_bool "belief eq" true (equal (roundtrip "B[0]=1 x") (Believes (0, Eq, Q.one, Atom "x")));
  check_bool "does" true (equal (roundtrip "does[1](fire_b)") (Does (1, "fire_b")));
  check_bool "group common belief" true
    (equal (roundtrip "CB[0,1]>=3/4 x") (CommonBelief ([ 0; 1 ], q 3 4, Atom "x")));
  check_bool "everyone knows" true
    (equal (roundtrip "E[0,1] x") (EveryoneKnows ([ 0; 1 ], Atom "x")));
  check_bool "temporal chain" true
    (equal (roundtrip "F G X P H x")
       (Eventually (Globally (Next (Once (Historically (Atom "x")))))));
  check_bool "iff right assoc" true
    (equal (roundtrip "a <-> b <-> c") (Iff (Atom "a", Iff (Atom "b", Atom "c"))));
  check_bool "prime in names" true
    (equal (roundtrip "does[0](alpha')") (Does (0, "alpha'")))

let test_parser_errors () =
  let fails s =
    match Parser.parse s with
    | exception Parser.Parse_error _ -> true
    | _ -> false
  in
  check_bool "empty" true (fails "");
  check_bool "dangling op" true (fails "a &");
  check_bool "unclosed paren" true (fails "(a | b");
  check_bool "missing index" true (fails "K[] x");
  check_bool "bad char" true (fails "a # b");
  check_bool "trailing" true (fails "a b");
  check_bool "B missing cmp" true (fails "B[0] x");
  check_bool "CB needs >=" true (fails "CB[0,1]<1/2 x");
  check_bool "bad number" true (fails "B[0]>=1/ x")

(* A numeral part of more than [Parser.max_numeral_digits] digits is a
   typed parse error that names the limit, refused before the bignum
   reader sees it; at the limit both parts still parse. *)
let test_parser_numeral_cap () =
  let module Error = Pak_guard.Error in
  let cap = Parser.max_numeral_digits in
  let names_cap msg =
    let sub = Printf.sprintf "longer than %d digits" cap in
    let n = String.length sub in
    let rec at i = i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1)) in
    at 0
  in
  let ones = String.make 20_000 '1' and threes = String.make 20_000 '3' in
  let t0 = Sys.time () in
  let r = Parser.parse_result (Printf.sprintf "B[0]>=%s/%s a0_g0" ones threes) in
  let dt = Sys.time () -. t0 in
  (match r with
   | Error e ->
     check_bool "kind is Parse" true (e.Error.kind = Error.Parse);
     check_bool "message names the limit" true (names_cap e.Error.msg)
   | Ok _ -> Alcotest.fail "a 20,000-digit numeral parsed");
  check_bool (Printf.sprintf "refused in %.3f s, under 50 ms" dt) true (dt < 0.05);
  let den = "1" ^ String.make (cap - 1) '0' in
  (match Parser.parse_result (Printf.sprintf "B[0]>=1/%s a0_g0" den) with
   | Ok (Formula.Believes (_, _, p, _)) ->
     check_string "1000-digit denominator" ("1/" ^ den) (Q.to_string p)
   | _ -> Alcotest.fail "a 1000-digit numeral was refused");
  (match Parser.parse_result (Printf.sprintf "B[0]>=1/1%s a0_g0" (String.make cap '0')) with
   | Error e -> check_bool "1001 digits refused" true (e.Error.kind = Error.Parse)
   | Ok _ -> Alcotest.fail "a 1001-digit numeral parsed")

(* Random formulas for the round-trip property. *)
let gen_formula : Formula.t QCheck.arbitrary =
  let open QCheck.Gen in
  let atom_gen = map (fun i -> Formula.Atom (Printf.sprintf "p%d" i)) (int_range 0 4) in
  let rat_gen = map (fun (a, b) -> q a (a + b + 1)) (pair (int_range 0 5) (int_range 0 5)) in
  let cmp_gen = oneofl [ Formula.Geq; Formula.Gt; Formula.Leq; Formula.Lt; Formula.Eq ] in
  let group_gen = oneofl [ [ 0 ]; [ 1 ]; [ 0; 1 ] ] in
  (* Generators are values built eagerly, so naive recursion on the
     size would materialize an exponentially large generator tree;
     memoize one generator per size instead. *)
  let max_size = 8 in
  let gens = Array.make (max_size + 1) (return Formula.True) in
  let gen n = gens.(max 0 (min max_size n)) in
  for n = 0 to max_size do
    gens.(n) <-
      (if n <= 0 then oneof [ atom_gen; return Formula.True; return Formula.False ]
       else
         frequency
        [ (2, atom_gen);
          (2, map2 (fun a b -> Formula.And (a, b)) (gen (n / 2)) (gen (n / 2)));
          (2, map2 (fun a b -> Formula.Or (a, b)) (gen (n / 2)) (gen (n / 2)));
          (1, map2 (fun a b -> Formula.Implies (a, b)) (gen (n / 2)) (gen (n / 2)));
          (1, map2 (fun a b -> Formula.Iff (a, b)) (gen (n / 2)) (gen (n / 2)));
          (2, map (fun f -> Formula.Not f) (gen (n - 1)));
          (2, map2 (fun i f -> Formula.Knows (i, f)) (int_range 0 1) (gen (n - 1)));
          ( 2,
            map2
              (fun (c, r) f -> Formula.Believes (0, c, r, f))
              (pair cmp_gen rat_gen) (gen (n - 1)) );
          (1, map (fun i -> Formula.Does (i, "act_a")) (int_range 0 1));
          (1, map (fun f -> Formula.Eventually f) (gen (n - 1)));
          (1, map (fun f -> Formula.Globally f) (gen (n - 1)));
          (1, map (fun f -> Formula.Next f) (gen (n - 1)));
          (1, map (fun f -> Formula.Once f) (gen (n - 1)));
          (1, map (fun f -> Formula.Historically f) (gen (n - 1)));
          (1, map2 (fun g f -> Formula.EveryoneKnows (g, f)) group_gen (gen (n - 1)));
          (1, map2 (fun g f -> Formula.CommonKnows (g, f)) group_gen (gen (n - 1)));
          ( 1,
            map2
              (fun (g, r) f -> Formula.EveryoneBelieves (g, r, f))
              (pair group_gen rat_gen) (gen (n - 1)) );
          ( 1,
            map2
              (fun (g, r) f -> Formula.CommonBelief (g, r, f))
              (pair group_gen rat_gen) (gen (n - 1)) )
        ])
  done;
  QCheck.make ~print:Formula.to_string (gen max_size)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~count:500 ~name:"print/parse round-trip" gen_formula (fun f ->
      Formula.equal f (Parser.parse (Formula.to_string f)))

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

let test_semantics_propositional () =
  let t = that () in
  let sat f ~run ~time = Semantics.sat t ~valuation (Parser.parse f) ~run ~time in
  check_bool "atom true" true (sat "bit0" ~run:0 ~time:0);
  check_bool "atom false" false (sat "bit1" ~run:0 ~time:0);
  check_bool "negation" true (sat "!bit1" ~run:0 ~time:0);
  check_bool "conjunction" true (sat "bit1 & got_mj" ~run:1 ~time:1);
  check_bool "implication vacuous" true (sat "bit1 -> got_mj" ~run:0 ~time:0);
  check_bool "iff" true (sat "bit1 <-> !bit0" ~run:2 ~time:0)

let test_semantics_does_temporal () =
  let t = that () in
  let sat f ~run ~time = Semantics.sat t ~valuation (Parser.parse f) ~run ~time in
  check_bool "does now" true (sat "does[0](alpha)" ~run:0 ~time:1);
  check_bool "does not yet" false (sat "does[0](alpha)" ~run:0 ~time:0);
  check_bool "eventually" true (sat "F does[0](alpha)" ~run:0 ~time:0);
  check_bool "globally fails" false (sat "G does[0](alpha)" ~run:0 ~time:0);
  check_bool "next" true (sat "X does[0](alpha)" ~run:0 ~time:0);
  check_bool "once after" true (sat "P does[1](send_mj)" ~run:0 ~time:2);
  check_bool "historically" true (sat "H !does[0](alpha)" ~run:0 ~time:0)

let test_semantics_knowledge () =
  let t = that () in
  let sat f ~run ~time = Semantics.sat t ~valuation (Parser.parse f) ~run ~time in
  (* j always knows the bit (it is part of j's local state). *)
  check_bool "j knows bit1" true (sat "K[1] bit1" ~run:1 ~time:0);
  check_bool "j knows bit0" true (sat "K[1] bit0" ~run:0 ~time:0);
  (* i does not know the bit at time 0 or at got_mj, but knows at got_mj'. *)
  check_bool "i ignorant at t0" false (sat "K[0] bit1" ~run:1 ~time:0);
  check_bool "i ignorant at got_mj" false (sat "K[0] bit1" ~run:1 ~time:1);
  check_bool "i knows at got_mj'" true (sat "K[0] bit1" ~run:2 ~time:1);
  (* Knowledge is truthful: K phi -> phi is valid. *)
  check_bool "truth axiom" true
    (Semantics.valid t ~valuation (Parser.parse "K[0] bit1 -> bit1"));
  check_bool "positive introspection" true
    (Semantics.valid t ~valuation (Parser.parse "K[0] bit1 -> K[0] K[0] bit1"))

let test_semantics_belief () =
  let t = that () in
  let sat f ~run ~time = Semantics.sat t ~valuation (Parser.parse f) ~run ~time in
  (* At got_mj the posterior for bit1 is 2/3. *)
  check_bool "B >= 2/3 holds" true (sat "B[0]>=2/3 bit1" ~run:1 ~time:1);
  check_bool "B > 2/3 fails" false (sat "B[0]>2/3 bit1" ~run:1 ~time:1);
  check_bool "B = 2/3 holds" true (sat "B[0]=2/3 bit1" ~run:1 ~time:1);
  check_bool "B <= 2/3 holds" true (sat "B[0]<=2/3 bit1" ~run:1 ~time:1);
  check_bool "B < 2/3 fails" false (sat "B[0]<2/3 bit1" ~run:1 ~time:1);
  (* At time 0 the prior is 3/4. *)
  check_bool "prior 3/4" true (sat "B[0]=3/4 bit1" ~run:0 ~time:0);
  (* Certainty where i knows. *)
  check_bool "B = 1 at got_mj'" true (sat "B[0]=1 bit1" ~run:2 ~time:1);
  (* Knowledge implies belief 1 in a pps. *)
  check_bool "K -> B=1 valid" true
    (Semantics.valid t ~valuation (Parser.parse "K[0] bit1 -> B[0]=1 bit1"))

let test_semantics_groups () =
  let t = that () in
  let sat f ~run ~time = Semantics.sat t ~valuation (Parser.parse f) ~run ~time in
  (* Everyone knows bit1 only where both know it: at got_mj' time 1. *)
  check_bool "E at got_mj'" true (sat "E[0,1] bit1" ~run:2 ~time:1);
  check_bool "E fails at got_mj" false (sat "E[0,1] bit1" ~run:1 ~time:1);
  (* Common knowledge of a valid fact holds everywhere. *)
  check_bool "C of valid fact" true (sat "C[0,1] (bit1 | !bit1)" ~run:0 ~time:0);
  (* bit1 never becomes common knowledge: i's knowing state got_mj' is
     not known to j. *)
  check_bool "no common knowledge of bit1" false (sat "C[0,1] bit1" ~run:2 ~time:1);
  (* Everyone 3/4-believes bit1 at (r',0): j is certain, i has prior 3/4. *)
  check_bool "EB at t0" true (sat "EB[0,1]>=3/4 bit1" ~run:1 ~time:0);
  (* Common belief is contained in everyone-believes. *)
  let cb = Semantics.eval t ~valuation (Parser.parse "CB[0,1]>=3/4 bit1") in
  let eb = Semantics.eval t ~valuation (Parser.parse "EB[0,1]>=3/4 bit1") in
  check_bool "CB subset EB" true
    (Tree.fold_points t ~init:true ~f:(fun acc ~run ~time ->
         acc && ((not (Fact.holds cb ~run ~time)) || Fact.holds eb ~run ~time)))

let test_semantics_probability () =
  let t = that () in
  check_q "P(F alpha) = 1" Q.one
    (Semantics.probability t ~valuation (Parser.parse "F does[0](alpha)"));
  check_q "P(bit1) = 3/4" (q 3 4)
    (Semantics.probability t ~valuation (Parser.parse "bit1"));
  check_q "P(F got_mj) = 3/4" (q 3 4)
    (Semantics.probability t ~valuation (Parser.parse "F got_mj"))

let test_semantics_agent_guard () =
  let t = that () in
  Alcotest.check_raises "unknown agent"
    (Invalid_argument "Semantics.eval: agent 7 out of range") (fun () ->
      ignore (Semantics.eval t ~valuation (Parser.parse "K[7] bit1")))

(* ------------------------------------------------------------------ *)
(* Properties on random systems                                        *)
(* ------------------------------------------------------------------ *)

let seeds = QCheck.int_range 0 1_000_000

(* Atoms over generated trees: "even0"/"even1" look at the trailing
   digit of the agent's local label. *)
let gen_valuation atom g =
  match atom with
  | "even0" -> Hashtbl.hash (Gstate.local g 0) mod 2 = 0
  | "even1" -> Hashtbl.hash (Gstate.local g 1) mod 2 = 0
  | _ -> false

let prop_knowledge_axioms =
  QCheck.Test.make ~count:60 ~name:"S5 axioms valid on random systems" seeds (fun seed ->
      let t = Gen.tree seed in
      let valid s = Semantics.valid t ~valuation:gen_valuation (Parser.parse s) in
      valid "K[0] even0 -> even0"
      && valid "K[0] even0 -> K[0] K[0] even0"
      && valid "!K[0] even0 -> K[0] !K[0] even0"
      && valid "K[0] (even0 -> even1) -> K[0] even0 -> K[0] even1")

let prop_belief_matches_pps_layer =
  QCheck.Test.make ~count:60 ~name:"B[i]>=q agrees with Belief.degree" seeds (fun seed ->
      let t = Gen.tree seed in
      let phi = Parser.parse "even1 | X even0" in
      let inner = Semantics.eval t ~valuation:gen_valuation phi in
      let b = Semantics.eval t ~valuation:gen_valuation (Formula.Believes (0, Geq, Q.half, phi)) in
      Tree.fold_points t ~init:true ~f:(fun acc ~run ~time ->
          acc
          && Fact.holds b ~run ~time
             = Q.geq (Belief.degree inner ~agent:0 ~run ~time) Q.half))

let prop_knowledge_implies_certainty =
  QCheck.Test.make ~count:60 ~name:"K implies B=1 on random systems" seeds (fun seed ->
      let t = Gen.tree seed in
      Semantics.valid t ~valuation:gen_valuation
        (Parser.parse "K[1] even0 -> B[1]=1 even0"))

let prop_common_implies_everyone =
  QCheck.Test.make ~count:40 ~name:"C implies E implies K on random systems" seeds
    (fun seed ->
      let t = Gen.tree seed in
      let valid s = Semantics.valid t ~valuation:gen_valuation (Parser.parse s) in
      valid "C[0,1] even0 -> E[0,1] even0" && valid "E[0,1] even0 -> K[0] even0")

let prop_common_belief_subset =
  QCheck.Test.make ~count:40 ~name:"CB>=q implies EB>=q on random systems" seeds
    (fun seed ->
      let t = Gen.tree seed in
      Semantics.valid t ~valuation:gen_valuation
        (Parser.parse "CB[0,1]>=2/3 even0 -> EB[0,1]>=2/3 even0"))

let prop_eval_memo_consistent =
  QCheck.Test.make ~count:40 ~name:"eval consistent with sat" seeds (fun seed ->
      let t = Gen.tree seed in
      let f = Parser.parse "K[0] (even0 | even1) & B[1]>=1/3 F even0" in
      let fact = Semantics.eval t ~valuation:gen_valuation f in
      Tree.fold_points t ~init:true ~f:(fun acc ~run ~time ->
          acc
          && Fact.holds fact ~run ~time
             = Semantics.sat t ~valuation:gen_valuation f ~run ~time))

(* ------------------------------------------------------------------ *)
(* Subformula closure                                                  *)
(* ------------------------------------------------------------------ *)

let test_closure_invariants () =
  let f =
    Parser.parse "K[0] (even0 | even1) & CB[0,1]>=1/3 (even0 | even1) & F even0"
  in
  let c = Closure.of_formula f in
  let entries = Closure.entries c in
  check_int "size = entries" (Closure.size c) (Array.length entries);
  (* Eight distinct subformulas: even0, even1, the disjunction, K, CB,
     K & CB, F even0 and the root conjunction. *)
  check_int "size" 8 (Closure.size c);
  Array.iteri
    (fun b (e : Closure.entry) ->
      check_int "bits dense and in entry order" b e.Closure.bit;
      Array.iter
        (fun child ->
          check_bool "children precede parent" true (0 <= child && child < b))
        e.Closure.children)
    entries;
  check_int "root is the last bit" (Closure.size c - 1) (Closure.root_bit c);
  check_bool "root entry is the formula" true
    (Formula.equal f (Closure.entry c (Closure.root_bit c)).Closure.formula);
  (* The disjunction under CB and even0 under F are hash-consed hits. *)
  check_int "duplicates" 2 (Closure.duplicates c);
  (match Closure.bit_of c (Parser.parse "even0 | even1") with
  | Some b -> check_bool "shared subformula below root" true (b < Closure.root_bit c)
  | None -> Alcotest.fail "shared subformula missing from closure");
  check_string "rebuild is byte-identical" (Closure.digest c)
    (Closure.digest (Closure.of_formula f))

let prop_closure_deterministic =
  QCheck.Test.make ~count:300 ~name:"closure build is deterministic" gen_formula
    (fun f ->
      let c1 = Closure.of_formula f and c2 = Closure.of_formula f in
      let ok_invariants c =
        let n = Closure.size c in
        Closure.root_bit c = n - 1
        && Array.for_all
             (fun (e : Closure.entry) ->
               Array.for_all (fun child -> 0 <= child && child < e.Closure.bit)
                 e.Closure.children)
             (Closure.entries c)
      in
      ok_invariants c1
      && Closure.digest c1 = Closure.digest c2
      && Closure.duplicates c1 = Closure.duplicates c2)

(* The digest renders each entry's own data and its children's bits,
   not its subformula's text; it must still tell closures apart exactly
   as the full-text rendering (kept in test/cache_key_oracle.ml) does:
   equal exactly for equal formulas. Each formula is compared with a
   near miss of itself. *)
let prop_closure_digest_oracle =
  QCheck.Test.make ~count:1000 ~name:"closure digest equates what the full-text digest equates"
    (QCheck.pair gen_formula QCheck.int)
    (fun (f, seed) ->
      let g =
        Near_miss.formula
          ~atoms:(List.init 5 (Printf.sprintf "p%d"))
          ~agents:[ 0; 1 ] ~groups:[ [ 0 ]; [ 1 ]; [ 0; 1 ] ]
          ~cmps:Formula.[ Geq; Gt; Leq; Lt; Eq ]
          ~thresholds:[ q 1 2; q 1 3; q 2 3 ]
          (Random.State.make [| seed |]) f
      in
      let cf = Closure.of_formula f and cg = Closure.of_formula g in
      let same = Closure.digest cf = Closure.digest cg in
      same = (Cache_key_oracle.closure_digest cf = Cache_key_oracle.closure_digest cg)
      && same = Formula.equal f g)

(* The cross-engine oracle: on random systems and random formulas the
   closure walk (Semantics.eval) and the recursive reference engine
   (test/oracle.ml) must return the same point set, and the walk's
   semantics.* counters must match the reference engine's own counts
   (memo traffic maps onto closure construction, gfp fixpoints iterate
   in lock-step — see doc/EVALUATION.md). 1000 cases = 1000 generated
   systems. *)
let prop_cross_engine_oracle =
  let walk_counters =
    [ "semantics.memo_hits";
      "semantics.memo_misses";
      "semantics.gfp_iters.common_knowledge";
      "semantics.gfp_iters.common_belief";
      "semantics.gfp_iters"
    ]
  in
  QCheck.Test.make ~count:1000 ~name:"recursive/vectorized engines agree"
    (QCheck.pair seeds gen_formula)
    (fun (seed, f) ->
      let t = Gen.tree seed in
      let counts = Oracle.counts () in
      let fr = Oracle.eval ~counts t ~valuation:gen_valuation f in
      Obs.enable ();
      let before = List.map Obs.counter_value walk_counters in
      let fv =
        Fun.protect ~finally:Obs.disable (fun () ->
            Semantics.eval t ~valuation:gen_valuation f)
      in
      let deltas = List.map2 (fun name b -> Obs.counter_value name - b) walk_counters before in
      deltas
      = [ counts.Oracle.memo_hits;
          counts.memo_misses;
          counts.gfp_ck;
          counts.gfp_cb;
          counts.gfp_ck + counts.gfp_cb
        ]
      && Fact.to_list fr = Fact.to_list fv)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_roundtrip;
      prop_knowledge_axioms;
      prop_belief_matches_pps_layer;
      prop_knowledge_implies_certainty;
      prop_common_implies_everyone;
      prop_common_belief_subset;
      prop_eval_memo_consistent;
      prop_closure_deterministic;
      prop_cross_engine_oracle;
      prop_closure_digest_oracle
    ]

let () =
  Alcotest.run "pak_logic"
    [ ( "formula",
        [ Alcotest.test_case "helpers" `Quick test_formula_helpers;
          Alcotest.test_case "printing" `Quick test_formula_printing
        ] );
      ( "parser",
        [ Alcotest.test_case "basics" `Quick test_parser_basics;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "numeral digit cap" `Quick test_parser_numeral_cap
        ] );
      ( "semantics",
        [ Alcotest.test_case "propositional" `Quick test_semantics_propositional;
          Alcotest.test_case "does/temporal" `Quick test_semantics_does_temporal;
          Alcotest.test_case "knowledge" `Quick test_semantics_knowledge;
          Alcotest.test_case "graded belief" `Quick test_semantics_belief;
          Alcotest.test_case "group operators" `Quick test_semantics_groups;
          Alcotest.test_case "probability" `Quick test_semantics_probability;
          Alcotest.test_case "agent guard" `Quick test_semantics_agent_guard
        ] );
      ("closure", [ Alcotest.test_case "invariants" `Quick test_closure_invariants ]);
      ("properties", qcheck_cases)
    ]
