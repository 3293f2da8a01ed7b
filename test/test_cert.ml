(* Tests for the provenance layer: certificates agree with eval, the
   independent checker accepts fresh certificates and rejects tampered
   ones with precise violations, JSON round-trips, theorem and sweep
   certification, counters and budgets. *)

open Pak_rational
open Pak_pps
open Pak_logic
module Cert = Pak_cert.Cert
module Obs = Pak_obs.Obs
module Budget = Pak_guard.Budget
module Error = Pak_guard.Error
module Pool = Pak_par.Pool

let q = Q.of_ints
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let replace_first ~sub ~by s =
  let n = String.length sub and m = String.length s in
  let rec find i =
    if i + n > m then None else if String.sub s i n = sub then Some i else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.fail (Printf.sprintf "substring %S not found" sub)
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (m - (i + n))

(* Atoms p0..p4 interpreted from both agents' local labels, so random
   formulas exercise genuinely state-dependent facts. *)
let valuation atom g =
  match atom with
  | "p0" | "p1" | "p2" | "p3" | "p4" ->
    Hashtbl.hash (atom, Gstate.local g 0, Gstate.local g 1) mod 2 = 0
  | _ -> false

let seeds = QCheck.int_range 0 1_000_000

(* Same memoized size-indexed generator shape as test_logic's, over
   every connective and modality the certifier handles. *)
let gen_formula : Formula.t QCheck.arbitrary =
  let open QCheck.Gen in
  let atom_gen = map (fun i -> Formula.Atom (Printf.sprintf "p%d" i)) (int_range 0 4) in
  let rat_gen = map (fun (a, b) -> q a (a + b + 1)) (pair (int_range 0 5) (int_range 0 5)) in
  let cmp_gen = oneofl [ Formula.Geq; Formula.Gt; Formula.Leq; Formula.Lt; Formula.Eq ] in
  (* Unsorted and repeated groups too: evidence is one cell per
     (sorted, de-duplicated) agent and local state whatever the
     spelling. *)
  let group_gen = oneofl [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 0; 1 ] ] in
  let max_size = 6 in
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

let eval_points tree f =
  let fact = Semantics.eval tree ~valuation f in
  List.rev
    (Tree.fold_points tree ~init:[] ~f:(fun acc ~run ~time ->
         if Fact.holds fact ~run ~time then (run, time) :: acc else acc))

(* ------------------------------------------------------------------ *)
(* The soundness loop (the acceptance criterion)                       *)
(* ------------------------------------------------------------------ *)

(* Every node of a certificate, not only the root, must carry the
   point set the recursive reference engine (test/oracle.ml) computes
   for its subformula. *)
let nodes_match_oracle t (c : Cert.t) =
  let oracle = Oracle.evaluator t ~valuation in
  let rec ok (n : Cert.node) =
    n.Cert.points = Fact.to_list (oracle n.Cert.formula) && List.for_all ok n.Cert.children
  in
  ok c.Cert.root

let prop_soundness =
  QCheck.Test.make ~count:1000
    ~name:"check t (certify t f) = Ok and root agrees with eval (1000 systems)"
    (QCheck.pair seeds gen_formula)
    (fun (seed, f) ->
      let t = Gen.tree seed in
      let c = Cert.certify t ~valuation f in
      (match Cert.check ~valuation t c with
      | Ok () -> ()
      | Error v -> QCheck.Test.fail_report (Cert.violation_to_string v));
      c.Cert.root.Cert.points = eval_points t f && nodes_match_oracle t c)

let prop_corrupted_rejected =
  QCheck.Test.make ~count:200 ~name:"tampered root point set is rejected"
    (QCheck.pair seeds gen_formula)
    (fun (seed, f) ->
      let t = Gen.tree seed in
      let c = Cert.certify t ~valuation f in
      let root = c.Cert.root in
      let points =
        match root.Cert.points with [] -> [ (0, 0) ] | _ :: rest -> rest
      in
      let c' = { c with Cert.root = { root with Cert.points = points } } in
      match Cert.check ~valuation t c' with
      | Ok () -> QCheck.Test.fail_report "tampered certificate accepted"
      | Error v -> v.Cert.path = "root" && v.Cert.reason <> "")

let prop_check_without_valuation =
  QCheck.Test.make ~count:200 ~name:"check without valuation trusts only atom leaves"
    (QCheck.pair seeds gen_formula)
    (fun (seed, f) ->
      let t = Gen.tree seed in
      let c = Cert.certify t ~valuation f in
      match Cert.check t c with
      | Ok () -> true
      | Error v -> QCheck.Test.fail_report (Cert.violation_to_string v))

(* ------------------------------------------------------------------ *)
(* Precise violations on targeted corruptions                          *)
(* ------------------------------------------------------------------ *)

let fixed_tree () = Gen.tree 42

let is_error = function Ok () -> false | Error (_ : Cert.violation) -> true

let test_violation_wrong_system () =
  let t = fixed_tree () in
  let c = Cert.certify t ~valuation (Parser.parse "K[0] p0") in
  let rec other s =
    let t' = Gen.tree s in
    if Tree.n_runs t' <> Tree.n_runs t then t' else other (s + 1)
  in
  let t' = other 43 in
  match Cert.check ~valuation t' c with
  | Ok () -> Alcotest.fail "certificate accepted against a different system"
  | Error v ->
    check_string "path" "root" v.Cert.path;
    check_bool "names the run counts" true (contains "runs" v.Cert.reason)

let test_violation_belief_measure () =
  let t = fixed_tree () in
  let c = Cert.certify t ~valuation (Parser.parse "B[0]>=1/2 p0") in
  let root = c.Cert.root in
  let evidence =
    match root.Cert.evidence with
    | Cert.Belief (bc :: rest) ->
      Cert.Belief ({ bc with Cert.bc_degree = Q.add bc.Cert.bc_degree Q.one } :: rest)
    | _ -> Alcotest.fail "expected belief evidence"
  in
  let c' = { c with Cert.root = { root with Cert.evidence } } in
  match Cert.check ~valuation t c' with
  | Ok () -> Alcotest.fail "tampered belief degree accepted"
  | Error v ->
    check_string "path" "root" v.Cert.path;
    check_bool "reason names the degree" true (contains "degree" v.Cert.reason)

let test_violation_fixpoint_truncated () =
  let t = fixed_tree () in
  let c = Cert.certify t ~valuation (Parser.parse "CB[0,1]>=1/2 (p0 | p1)") in
  let root = c.Cert.root in
  let evidence =
    match root.Cert.evidence with
    | Cert.Fixpoint iters ->
      let n = List.length iters in
      check_bool "at least one iteration" true (n >= 1);
      Cert.Fixpoint (List.filteri (fun i _ -> i < n - 1) iters)
    | _ -> Alcotest.fail "expected fixpoint evidence"
  in
  let c' = { c with Cert.root = { root with Cert.evidence } } in
  check_bool "truncated fixpoint rejected" true (is_error (Cert.check ~valuation t c'))

let test_violation_missing_cell () =
  let t = fixed_tree () in
  let c = Cert.certify t ~valuation (Parser.parse "K[1] p1") in
  let root = c.Cert.root in
  let evidence =
    match root.Cert.evidence with
    | Cert.Knowledge (_ :: rest) -> Cert.Knowledge rest
    | _ -> Alcotest.fail "expected knowledge evidence"
  in
  let c' = { c with Cert.root = { root with Cert.evidence } } in
  match Cert.check ~valuation t c' with
  | Ok () -> Alcotest.fail "missing K-cell accepted"
  | Error v ->
    check_bool "reason mentions a missing cell" true (contains "missing" v.Cert.reason)

let test_violation_child_formula () =
  let t = fixed_tree () in
  let c = Cert.certify t ~valuation (Parser.parse "!p0") in
  let child = Cert.certify t ~valuation (Parser.parse "p1") in
  let root = c.Cert.root in
  let c' =
    { c with Cert.root = { root with Cert.children = [ child.Cert.root ] } }
  in
  check_bool "wrong child formula rejected" true (is_error (Cert.check ~valuation t c'))

(* ------------------------------------------------------------------ *)
(* JSON round-trip and schema pinning                                  *)
(* ------------------------------------------------------------------ *)

let test_schema_version () = check_int "schema_version" 1 Cert.schema_version

let prop_json_roundtrip =
  QCheck.Test.make ~count:150 ~name:"to_json/of_json_string round-trip is byte-identical"
    (QCheck.pair seeds gen_formula)
    (fun (seed, f) ->
      let t = Gen.tree seed in
      let c = Cert.certify t ~valuation f in
      let j = Cert.to_json c in
      match Cert.of_json_string j with
      | Error msg -> QCheck.Test.fail_report msg
      | Ok c' ->
        if Cert.to_json c' <> j then QCheck.Test.fail_report "re-serialization differs";
        (match Cert.check ~valuation t c' with
        | Ok () -> true
        | Error v -> QCheck.Test.fail_report (Cert.violation_to_string v)))

let test_json_rejects () =
  let t = fixed_tree () in
  let c = Cert.certify t ~valuation (Parser.parse "K[0] p0 & B[1]>=1/3 F p1") in
  let j = Cert.to_json c in
  (match Cert.of_json_string "{ not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match Cert.of_json_string "" with
  | Ok _ -> Alcotest.fail "empty accepted"
  | Error _ -> ());
  let bumped = replace_first ~sub:"\"schema_version\":1" ~by:"\"schema_version\":2" j in
  (match Cert.of_json_string bumped with
  | Ok _ -> Alcotest.fail "future schema version accepted"
  | Error msg -> check_bool "says schema" true (contains "schema" msg));
  let wrong_kind = replace_first ~sub:"\"kind\":\"and\"" ~by:"\"kind\":\"or\"" j in
  match Cert.of_json_string wrong_kind with
  | Ok _ -> Alcotest.fail "mismatched kind accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Counters, fixpoint parity, budgets                                  *)
(* ------------------------------------------------------------------ *)

let test_gfp_iteration_parity () =
  Obs.enable ();
  let t = fixed_tree () in
  let f = Parser.parse "CB[0,1]>=1/2 (p0 | p1)" in
  let before = Obs.counter_value "semantics.gfp_iters" in
  ignore (Semantics.eval t ~valuation f);
  let eval_iters = Obs.counter_value "semantics.gfp_iters" - before in
  let cert_before = Obs.counter_value "cert.gfp_iters" in
  let c = Cert.certify t ~valuation f in
  let cert_iters = Obs.counter_value "cert.gfp_iters" - cert_before in
  let trace_len =
    match c.Cert.root.Cert.evidence with
    | Cert.Fixpoint iters -> List.length iters
    | _ -> Alcotest.fail "expected fixpoint evidence"
  in
  check_int "trace length = eval gfp iterations" eval_iters trace_len;
  check_int "cert.gfp_iters counts the same iterations" eval_iters cert_iters;
  Obs.disable ()

let test_counters () =
  Obs.enable ();
  let t = fixed_tree () in
  let f = Parser.parse "K[0] p0 & B[1]>=1/3 p1" in
  let nodes_before = Obs.counter_value "cert.nodes" in
  let checks_before = Obs.counter_value "cert.checks" in
  let c = Cert.certify t ~valuation f in
  check_int "cert.nodes counts certificate nodes"
    (nodes_before + Cert.size c)
    (Obs.counter_value "cert.nodes");
  (match Cert.check ~valuation t c with Ok () -> () | Error _ -> Alcotest.fail "check");
  check_int "cert.checks bumped" (checks_before + 1) (Obs.counter_value "cert.checks");
  let viol_before = Obs.counter_value "cert.check_violations" in
  let root = c.Cert.root in
  let c' =
    { c with
      Cert.root =
        { root with
          Cert.points = (match root.Cert.points with [] -> [ (0, 0) ] | _ :: r -> r)
        }
    }
  in
  check_bool "violation" true (is_error (Cert.check ~valuation t c'));
  check_int "cert.check_violations bumped" (viol_before + 1)
    (Obs.counter_value "cert.check_violations");
  Obs.disable ()

let test_budget_bounds_certify () =
  let t = fixed_tree () in
  let f = Parser.parse "CB[0,1]>=1/2 (p0 | p1)" in
  match
    Budget.with_budget
      (Budget.limits ~max_iters:0 ())
      (fun () -> Cert.certify t ~valuation f)
  with
  | Ok _ -> Alcotest.fail "expected budget exhaustion"
  | Error e -> check_string "kind" "budget-exceeded" (Error.kind_name e.Error.kind)

(* ------------------------------------------------------------------ *)
(* holds_at, size, pp                                                  *)
(* ------------------------------------------------------------------ *)

let test_surface_queries () =
  let t = fixed_tree () in
  let f = Parser.parse "K[0] p0 -> p0" in
  let c = Cert.certify t ~valuation f in
  let fact = Semantics.eval t ~valuation f in
  Tree.iter_points t (fun ~run ~time ->
      check_bool
        (Printf.sprintf "holds_at (%d,%d)" run time)
        (Fact.holds fact ~run ~time)
        (Cert.holds_at c ~run ~time));
  (* Implies, its two children, and K's child: the shared [p0] node is
     counted once per child slot. *)
  check_int "size" 4 (Cert.size c);
  let text = Format.asprintf "%a" (fun fmt -> Cert.pp fmt) c in
  check_bool "pp mentions the certificate" true (contains "certificate" text);
  let at_text = Format.asprintf "%a" (fun fmt -> Cert.pp ?at:(Some (0, 0)) fmt) c in
  check_bool "pp ~at shows a verdict" true (contains "verdict at" at_text);
  let shallow = Format.asprintf "%a" (fun fmt -> Cert.pp ?depth:(Some 0) fmt) c in
  check_bool "pp ~depth elides children" true (contains "elided" shallow)

(* ------------------------------------------------------------------ *)
(* Theorem certificates                                                *)
(* ------------------------------------------------------------------ *)

let find_instance () =
  let rec go s =
    match Sweep.seed_instance s with Some x -> x | None -> go (s + 1)
  in
  go 1

let test_theorem_certificates () =
  let tree, (agent, act), fact = find_instance () in
  List.iter
    (fun check ->
      let tc = Cert.Theorem.certify fact ~check ~agent ~act ~eps:(q 1 10) () in
      (match Cert.Theorem.check tree ~fact tc with
      | Ok () -> ()
      | Error v ->
        Alcotest.fail
          (Printf.sprintf "%s: %s" (Sweep.check_name check) (Cert.violation_to_string v)));
      (match Cert.Theorem.check tree tc with
      | Ok () -> ()
      | Error v ->
        Alcotest.fail
          (Printf.sprintf "%s (no fact): %s" (Sweep.check_name check)
             (Cert.violation_to_string v)));
      let bad = { tc with Cert.Theorem.verdict = not tc.Cert.Theorem.verdict } in
      (match Cert.Theorem.check tree ~fact bad with
      | Ok () -> Alcotest.fail "flipped verdict accepted"
      | Error v ->
        check_bool "reason mentions the verdict" true (contains "verdict" v.Cert.reason));
      let bad_mu = { tc with Cert.Theorem.mu = Q.add tc.Cert.Theorem.mu Q.one } in
      check_bool "tampered mu rejected" true
        (is_error (Cert.Theorem.check tree ~fact bad_mu)))
    Sweep.all_checks;
  (* The textual rendering stays total and names the kind. *)
  let tc = Cert.Theorem.certify fact ~check:Sweep.Expectation ~agent ~act ~eps:(q 1 10) () in
  let text = Format.asprintf "%a" Cert.Theorem.pp tc in
  check_bool "theorem pp mentions the kind" true (contains "thm62" text)

let test_certify_sweep () =
  let r = Cert.certify_sweep Sweep.Expectation ~first_seed:1 ~count:25 in
  check_bool "sweep passed" true (Cert.sweep_passed r);
  check_int "all seeds accounted for" 25 (r.Cert.sw_certified + r.Cert.sw_skipped);
  check_int "no failures" 0 (List.length r.Cert.sw_failures);
  (* Jobs invariance: same report under a pool. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let r' = Cert.certify_sweep ~pool Sweep.Expectation ~first_seed:1 ~count:25 in
      check_int "certified" r.Cert.sw_certified r'.Cert.sw_certified;
      check_int "skipped" r.Cert.sw_skipped r'.Cert.sw_skipped;
      check_bool "failures" true (r.Cert.sw_failures = r'.Cert.sw_failures));
  (* The sweep certifies exactly the instances Sweep.run checks. *)
  let sr = Sweep.run Sweep.Expectation ~first_seed:1 ~count:25 in
  check_int "checked = certified" sr.Sweep.checked r.Cert.sw_certified;
  check_int "skipped agree" sr.Sweep.skipped r.Cert.sw_skipped

(* ------------------------------------------------------------------ *)
(* Simplify certifies consistently                                     *)
(* Group evidence is one cell per (agent, local state), agents sorted
   and de-duplicated, however the group is spelled. *)
let test_group_spelling () =
  let t = fixed_tree () in
  let evidence text =
    let c = Cert.certify t ~valuation (Parser.parse text) in
    (match Cert.check ~valuation t c with
    | Ok () -> ()
    | Error v -> Alcotest.fail (Cert.violation_to_string v));
    (c.Cert.root.Cert.points, c.Cert.root.Cert.evidence)
  in
  let cells_per_agent = List.length (Tree.lstates t ~agent:0) + List.length (Tree.lstates t ~agent:1) in
  (match evidence "E[1,0,1] p0" with
  | _, Cert.Knowledge cells -> check_int "E cells" cells_per_agent (List.length cells)
  | _ -> Alcotest.fail "expected knowledge evidence");
  check_bool "E[1,0,1] = E[0,1]" true (evidence "E[1,0,1] p0" = evidence "E[0,1] p0");
  (match evidence "EB[1,0]>=1/2 p1" with
  | _, Cert.Belief cells -> check_int "EB cells" cells_per_agent (List.length cells)
  | _ -> Alcotest.fail "expected belief evidence");
  check_bool "EB[1,0] = EB[0,1]" true
    (evidence "EB[1,0]>=1/2 p1" = evidence "EB[0,1]>=1/2 p1")

(* ------------------------------------------------------------------ *)

let prop_simplify_certifies =
  QCheck.Test.make ~count:300
    ~name:"simplified formulas certify to the same root point set"
    (QCheck.pair seeds gen_formula)
    (fun (seed, f) ->
      let t = Gen.tree seed in
      let c = Cert.certify t ~valuation f in
      let c' = Cert.certify t ~valuation (Simplify.simplify f) in
      (match Cert.check ~valuation t c' with
      | Ok () -> ()
      | Error v -> QCheck.Test.fail_report (Cert.violation_to_string v));
      c.Cert.root.Cert.points = c'.Cert.root.Cert.points)

let () =
  Alcotest.run "cert"
    [ ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [ prop_soundness; prop_corrupted_rejected; prop_check_without_valuation ] );
      ( "violations",
        [ Alcotest.test_case "wrong system" `Quick test_violation_wrong_system;
          Alcotest.test_case "belief measure" `Quick test_violation_belief_measure;
          Alcotest.test_case "fixpoint truncated" `Quick test_violation_fixpoint_truncated;
          Alcotest.test_case "missing cell" `Quick test_violation_missing_cell;
          Alcotest.test_case "child formula" `Quick test_violation_child_formula
        ] );
      ( "json",
        Alcotest.test_case "schema version pinned" `Quick test_schema_version
        :: Alcotest.test_case "malformed and mismatched inputs" `Quick test_json_rejects
        :: List.map QCheck_alcotest.to_alcotest [ prop_json_roundtrip ] );
      ( "observability",
        [ Alcotest.test_case "gfp iteration parity" `Quick test_gfp_iteration_parity;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "budget bounds certify" `Quick test_budget_bounds_certify
        ] );
      ( "surfaces",
        [ Alcotest.test_case "holds_at/size/pp" `Quick test_surface_queries;
          Alcotest.test_case "repeated and unsorted groups" `Quick test_group_spelling
        ] );
      ( "theorems",
        [ Alcotest.test_case "certify and re-check every kind" `Quick
            test_theorem_certificates;
          Alcotest.test_case "certify_sweep" `Quick test_certify_sweep
        ] );
      ( "simplify",
        List.map QCheck_alcotest.to_alcotest [ prop_simplify_certifies ] )
    ]
