(* Tests for pak_guard: the typed error values, budget enforcement at
   each charge site (nodes, points, limbs, fixpoint iterations,
   deadline), nesting/restore semantics of [with_budget], the exempt
   escape hatch, and graceful degradation of belief/constraint queries
   into marked Monte-Carlo estimates. *)

open Pak_rational
open Pak_pps
open Pak_logic
module Error = Pak_guard.Error
module Budget = Pak_guard.Budget
module Graded = Pak_guard.Graded
module Obs = Pak_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Same three-node chain system as test_obs: two agents, two
   equiprobable initial states, one round. *)
let toy () =
  let b = Tree.Builder.create ~n_agents:2 in
  let s0 = Tree.Builder.add_initial b ~prob:Q.half (Gstate.of_labels "e" [ "i"; "x0" ]) in
  let s1 = Tree.Builder.add_initial b ~prob:Q.half (Gstate.of_labels "e" [ "i"; "x1" ]) in
  List.iter
    (fun (parent, bit) ->
      ignore
        (Tree.Builder.add_child b ~parent ~prob:Q.one ~acts:[| "env"; "go"; "noop" |]
           (Gstate.of_labels "e" [ "done"; bit ])))
    [ (s0, "x0"); (s1, "x1") ];
  Tree.Builder.finalize b

let valuation atom g =
  match atom with
  | "x1" -> Gstate.local g 1 = "x1"
  | "done" -> Gstate.local g 0 = "done"
  | _ -> false

let is_budget_error = function
  | { Error.kind = Error.Budget_exceeded; _ } -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Error values                                                        *)
(* ------------------------------------------------------------------ *)

let test_error_values () =
  let e = Error.make Error.Parse "bad token" in
  check_string "to_string" "parse: bad token" (Error.to_string e);
  let e = Error.with_context "Tree_io.of_string" (Error.with_context "parse_sexp" e) in
  check_string "context trail, innermost first"
    "parse: bad token (via parse_sexp < Tree_io.of_string)" (Error.to_string e);
  check_string "kind names" "parse,invalid-system,budget-exceeded,io"
    (String.concat ","
       (List.map Error.kind_name
          [ Error.Parse; Error.Invalid_system; Error.Budget_exceeded; Error.Io ]));
  let e = Error.makef Error.Io "cannot read %s" "x.pps" in
  check_string "makef" "io: cannot read x.pps" (Error.to_string e)

let test_error_of_exn () =
  let kind_of exn =
    match Error.of_exn exn with
    | Some e -> Error.kind_name e.Error.kind
    | None -> "none"
  in
  check_string "own carrier" "io" (kind_of (Error.Error (Error.make Error.Io "x")));
  check_string "typed div-by-zero" "invalid-system" (kind_of (Error.Division_by_zero "Q.inv"));
  check_string "stdlib div-by-zero" "invalid-system" (kind_of Stdlib.Division_by_zero);
  check_string "invalid_arg" "invalid-system" (kind_of (Invalid_argument "agent out of range"));
  check_string "sys_error" "io" (kind_of (Sys_error "no such file"));
  check_string "stack overflow" "budget-exceeded" (kind_of Stack_overflow);
  check_string "unrecognized" "none" (kind_of Exit)

(* ------------------------------------------------------------------ *)
(* Budget enforcement at each charge site                              *)
(* ------------------------------------------------------------------ *)

let test_budget_nodes () =
  match Budget.with_budget (Budget.limits ~max_nodes:3 ()) toy with
  | Ok _ -> Alcotest.fail "6-node build under a 3-node budget should exceed"
  | Error e ->
    check_bool "budget kind" true (is_budget_error e);
    check_bool "names nodes" true
      (String.length e.Error.msg >= 5 && String.sub e.Error.msg 0 5 = "nodes")

let test_budget_points () =
  let tree = toy () in
  (match Budget.with_budget (Budget.limits ~max_points:2 ()) (fun () ->
       Tree.iter_points tree (fun ~run:_ ~time:_ -> ()))
   with
   | Ok () -> Alcotest.fail "4-point sweep under a 2-point budget should exceed"
   | Error e -> check_bool "budget kind" true (is_budget_error e));
  (* A generous budget changes nothing. *)
  match Budget.with_budget (Budget.limits ~max_points:1_000_000 ()) (fun () ->
      Tree.fold_points tree ~init:0 ~f:(fun acc ~run:_ ~time:_ -> acc + 1))
  with
  | Ok n -> check_int "all points visited" 4 n
  | Error e -> Alcotest.fail (Error.to_string e)

let test_budget_limbs () =
  let big = Bignat.pow (Bignat.of_int 10) 200 in
  match Budget.with_budget (Budget.limits ~max_limbs:50 ()) (fun () -> Bignat.mul big big) with
  | Ok _ -> Alcotest.fail "200-digit square under a 50-limb budget should exceed"
  | Error e -> check_bool "budget kind" true (is_budget_error e)

let test_budget_iters () =
  let tree = toy () in
  let f = Parser.parse "C[0,1] done" in
  match Budget.with_budget (Budget.limits ~max_iters:0 ()) (fun () ->
      Semantics.eval tree ~valuation f)
  with
  | Ok _ -> Alcotest.fail "common-knowledge fixpoint under a 0-iteration budget should exceed"
  | Error e -> check_bool "budget kind" true (is_budget_error e)

let test_budget_deadline () =
  let tree = toy () in
  match Budget.with_budget (Budget.limits ~timeout_ms:0 ()) (fun () ->
      (* Keep evaluating until the processor-time clock ticks past the
         (already expired) deadline; charge_iters checks it each
         fixpoint iteration, so this cannot run forever. *)
      let f = Parser.parse "CB[0,1]>=1/2 done" in
      while true do
        ignore (Semantics.eval tree ~valuation f)
      done)
  with
  | Ok () -> Alcotest.fail "unreachable"
  | Error e ->
    check_bool "budget kind" true (is_budget_error e);
    check_bool "names the deadline" true
      (String.length e.Error.msg >= 8 && String.sub e.Error.msg 0 8 = "deadline")

let test_wall_clock_deadline () =
  (* A controllable fake clock: deadlines created while it is
     installed measure "wall" time from it, independent of Sys.time.
     The clock is captured at budget creation, so un-installing it
     afterwards must not retime the live deadline. *)
  let fake = ref 0. in
  Budget.set_wall_clock (Some (fun () -> !fake));
  Fun.protect
    ~finally:(fun () -> Budget.set_wall_clock None)
    (fun () ->
      match
        Budget.with_budget (Budget.limits ~timeout_ms:5_000 ()) (fun () ->
            Budget.check_deadline ();
            fake := 4.9;
            Budget.check_deadline ();
            (* Un-install mid-flight: the captured clock keeps ruling. *)
            Budget.set_wall_clock None;
            fake := 5.1;
            Budget.check_deadline ();
            Alcotest.fail "deadline did not fire at fake-clock 5.1s")
      with
      | Ok _ -> Alcotest.fail "unreachable"
      | Error e ->
        check_bool "budget kind" true (is_budget_error e);
        check_bool "names the deadline" true
          (String.length e.Error.msg >= 8 && String.sub e.Error.msg 0 8 = "deadline"));
  (* With no wall clock installed the CPU-time behavior is unchanged:
     an expired CPU deadline still fires. *)
  match Budget.with_budget (Budget.limits ~timeout_ms:0 ()) (fun () ->
      let rec spin n = if n = 0 then () else (Budget.check_deadline (); spin (n - 1)) in
      (* Sys.time advances with work; keep checking until it fires. *)
      let rec forever () = spin 1_000_000; forever () in
      forever ())
  with
  | Ok () -> Alcotest.fail "unreachable"
  | Error e -> check_bool "cpu fallback still enforces" true (is_budget_error e)

let test_budget_gauges () =
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      (* No budget in scope: the provider stays silent. *)
      Budget.clear ();
      check_bool "no budget, no budget gauges" true
        (List.for_all
           (fun (name, _) -> not (String.length name >= 7 && String.sub name 0 7 = "budget."))
           (Obs.gauges ()));
      match
        Budget.with_budget (Budget.limits ~max_points:100 ~timeout_ms:60_000 ()) (fun () ->
            Budget.charge_points 30;
            let gauges = Obs.gauges () in
            check_bool "spent gauge" true
              (List.assoc_opt "budget.points_spent" gauges = Some 30.);
            check_bool "remaining gauge" true
              (List.assoc_opt "budget.points_remaining" gauges = Some 70.);
            (match List.assoc_opt "budget.deadline_slack_ms" gauges with
             | Some slack -> check_bool "deadline slack positive" true (slack > 0.)
             | None -> Alcotest.fail "deadline slack gauge missing");
            check_bool "unlimited fuel kinds stay silent" true
              (List.assoc_opt "budget.nodes_spent" gauges = None))
      with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Error.to_string e))

let test_budget_restore_and_exempt () =
  (* No ambient budget: charges are no-ops, attempt returns Ok. *)
  Budget.clear ();
  check_bool "inactive by default" false (Atomic.get Budget.live_scopes > 0);
  (match Budget.attempt (fun () -> 41 + 1) with
   | Ok n -> check_int "attempt passthrough" 42 n
   | Error e -> Alcotest.fail (Error.to_string e));
  let tree = toy () in
  let sweep () = Tree.iter_points tree (fun ~run:_ ~time:_ -> ()) in
  (match Budget.with_budget (Budget.limits ~max_points:20 ()) (fun () ->
       sweep ();
       (* Inner scope replaces the ambient budget and restores it. *)
       (match Budget.with_budget (Budget.limits ~max_points:1 ()) sweep with
        | Ok () -> Alcotest.fail "inner budget should exceed"
        | Error _ -> ());
       check_bool "outer budget restored" true (Atomic.get Budget.live_scopes > 0);
       (* Exempt suspends charging entirely. *)
       Budget.exempt (fun () -> sweep (); sweep (); sweep ());
       let spent = List.assoc "points" (Budget.spent ()) in
       check_int "exempt sweeps did not charge" 4 spent;
       sweep ())
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("outer budget should not exceed: " ^ Error.to_string e));
  check_bool "cleared after with_budget" false (Atomic.get Budget.live_scopes > 0)

(* ------------------------------------------------------------------ *)
(* Division by zero: one typed error, everywhere                       *)
(* ------------------------------------------------------------------ *)

let test_division_by_zero_sites () =
  let tree = toy () in
  Alcotest.check_raises "Tree.cond"
    (Error.Division_by_zero "Tree.cond: conditioning event has measure zero") (fun () ->
      ignore (Tree.cond tree (Tree.all_runs tree) ~given:(Tree.empty_event tree)));
  Alcotest.check_raises "Q.inv" (Error.Division_by_zero "Q.inv: inverse of zero") (fun () ->
      ignore (Q.inv Q.zero));
  (* The formula parser maps a zero-denominator literal to a Parse
     error instead of letting the arithmetic exception escape. *)
  match Parser.parse_result "B[0]>=1/0 done" with
  | Ok _ -> Alcotest.fail "zero-denominator literal should not parse"
  | Error e -> check_string "parse kind" "parse" (Error.kind_name e.Error.kind)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

let test_degree_graded () =
  let tree = toy () in
  let fact = Fact.of_state_pred tree (valuation "x1") in
  let exact = Belief.degree fact ~agent:0 ~run:0 ~time:0 in
  (* Without budget pressure the graded query is exact. *)
  (match Belief.degree_graded fact ~agent:0 ~run:0 ~time:0 with
   | Graded.Exact q -> check_bool "exact matches degree" true (Q.equal q exact)
   | Graded.Estimated _ -> Alcotest.fail "should be exact without a budget");
  (* A zero-point budget kills every exact measure query; the graded
     query must degrade to a marked estimate instead of failing. *)
  match Budget.with_budget (Budget.limits ~max_points:0 ()) (fun () ->
      Belief.degree_graded ~samples:2000 ~seed:7 fact ~agent:0 ~run:0 ~time:0)
  with
  | Error e -> Alcotest.fail ("degradation must absorb the budget error: " ^ Error.to_string e)
  | Ok (Graded.Exact _) -> Alcotest.fail "zero-point budget cannot be exact"
  | Ok (Graded.Estimated { value; samples }) ->
    check_int "sample count carried" 2000 samples;
    let err = abs_float (Q.to_float value -. Q.to_float exact) in
    check_bool "estimate near exact" true
      (err <= (5.0 *. Simulate.standard_error ~p:exact ~samples:2000) +. 0.001)

let test_report_graded () =
  let tree = toy () in
  let fact = Fact.of_state_pred tree (valuation "x1") in
  let c = Constr.make ~agent:0 ~act:"go" ~fact ~threshold:Q.half in
  let exact = Constr.report c in
  (match Constr.report_graded c with
   | Graded.Exact r -> check_bool "exact mu" true (Q.equal r.Constr.mu exact.Constr.mu)
   | Graded.Estimated _ -> Alcotest.fail "should be exact without a budget");
  match Budget.with_budget (Budget.limits ~max_points:0 ()) (fun () ->
      Constr.report_graded ~samples:2000 ~seed:11 c)
  with
  | Error e -> Alcotest.fail ("degradation must absorb the budget error: " ^ Error.to_string e)
  | Ok (Graded.Exact _) -> Alcotest.fail "zero-point budget cannot be exact"
  | Ok (Graded.Estimated { value = r; samples }) ->
    check_int "sample count carried" 2000 samples;
    check_bool "estimated satisfied agrees" true (r.Constr.satisfied = exact.Constr.satisfied);
    check_bool "independence not claimed when estimated" false r.Constr.independent;
    let banner = Format.asprintf "%a" Constr.pp_report_graded (Graded.Estimated { value = r; samples }) in
    check_bool "banner marks the estimate" true
      (String.length banner >= 9 && String.sub banner 0 9 = "ESTIMATED")

(* qcheck property: Monte-Carlo estimates agree with the exact measure
   within the stated binomial confidence on small systems. With n
   samples the standard error is sqrt(p(1-p)/n); 5 sigma plus the
   2^-30 draw granularity fails with probability < 1e-6 per case. *)
let prop_estimate_confidence =
  QCheck.Test.make ~count:60 ~name:"Simulate.estimate within 5 sigma of Tree.measure"
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, which) ->
      let tree = toy () in
      let event =
        match which with
        | 0 -> Tree.all_runs tree
        | 1 -> Tree.empty_event tree
        | 2 -> Bitset.add (Tree.empty_event tree) 0
        | _ -> Bitset.add (Tree.empty_event tree) 1
      in
      let exact = Tree.measure tree event in
      let samples = 2000 in
      let est = Simulate.estimate tree ~event ~samples ~seed:(seed + 1) in
      abs_float (Q.to_float est -. Q.to_float exact)
      <= (5.0 *. Simulate.standard_error ~p:exact ~samples) +. 0.001)

(* Same property through the degradation path: the estimated report's
   mu agrees with the exact report's mu within confidence. *)
let prop_degraded_report_confidence =
  QCheck.Test.make ~count:30 ~name:"degraded report mu within 5 sigma of exact"
    QCheck.small_int
    (fun seed ->
      let tree = toy () in
      let fact = Fact.of_state_pred tree (valuation "x1") in
      let c = Constr.make ~agent:0 ~act:"go" ~fact ~threshold:Q.half in
      let exact = Constr.report c in
      match
        Budget.with_budget (Budget.limits ~max_points:0 ()) (fun () ->
            Constr.report_graded ~samples:2000 ~seed:(seed + 1) c)
      with
      | Ok (Graded.Estimated { value = r; _ }) ->
        abs_float (Q.to_float r.Constr.mu -. Q.to_float exact.Constr.mu)
        <= (5.0 *. Simulate.standard_error ~p:exact.Constr.mu ~samples:2000) +. 0.001
      | Ok (Graded.Exact _) | Error _ -> false)

let () =
  Alcotest.run "pak_guard"
    [ ( "errors",
        [ Alcotest.test_case "values and context" `Quick test_error_values;
          Alcotest.test_case "of_exn classification" `Quick test_error_of_exn;
          Alcotest.test_case "division-by-zero sites" `Quick test_division_by_zero_sites
        ] );
      ( "budgets",
        [ Alcotest.test_case "node fuel" `Quick test_budget_nodes;
          Alcotest.test_case "point fuel" `Quick test_budget_points;
          Alcotest.test_case "limb fuel" `Quick test_budget_limbs;
          Alcotest.test_case "fixpoint iteration fuel" `Quick test_budget_iters;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
          Alcotest.test_case "wall-clock deadline" `Quick test_wall_clock_deadline;
          Alcotest.test_case "fuel gauges" `Quick test_budget_gauges;
          Alcotest.test_case "restore and exempt" `Quick test_budget_restore_and_exempt
        ] );
      ( "degradation",
        [ Alcotest.test_case "graded belief degree" `Quick test_degree_graded;
          Alcotest.test_case "graded constraint report" `Quick test_report_graded;
          QCheck_alcotest.to_alcotest prop_estimate_confidence;
          QCheck_alcotest.to_alcotest prop_degraded_report_confidence
        ] )
    ]
