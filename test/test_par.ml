(* Tests for pak_par and its integrations: Pool.map against its
   sequential oracle under every small job count, deterministic
   exception propagation, jobs-independence of Simulate.estimate_par
   and Sweep reports, cross-domain sharing of one Budget's fuel, and
   exact Obs counters under parallel maps. *)

open Pak_rational
open Pak_pps
module Pool = Pak_par.Pool
module Budget = Pak_guard.Budget
module Error = Pak_guard.Error
module Obs = Pak_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Pool primitives vs sequential oracles                               *)
(* ------------------------------------------------------------------ *)

let jobs_under_test = [ 1; 2; 3; 4 ]

let prop_map_oracle =
  QCheck.Test.make ~count:100 ~name:"Pool.map equals Array.map for jobs 1..4"
    QCheck.(pair (list small_int) small_int)
    (fun (items, salt) ->
      let arr = Array.of_list items in
      let f x = (x * 31) + salt in
      let expect = Array.map f arr in
      List.for_all
        (fun jobs -> Pool.with_pool ~jobs (fun pool -> Pool.map pool f arr = expect))
        jobs_under_test)

exception Boom of int

let test_exception_propagation () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (* Several chunks raise; the lowest chunk's exception must win,
         deterministically, and the pool must stay usable after. *)
      let arr = Array.init 64 Fun.id in
      (match Pool.map pool (fun x -> if x >= 16 then raise (Boom x) else x) arr with
       | _ -> Alcotest.fail "expected Boom to propagate"
       | exception Boom _ -> ());
      check_bool "pool still works after an exception" true
        (Pool.map pool (fun i -> 3 * i) (Array.init 4 Fun.id) = [| 0; 3; 6; 9 |]))

let test_create_invalid () =
  check_bool "jobs 0 rejected" true
    (match Pool.create ~jobs:0 with
     | exception Invalid_argument _ -> true
     | pool -> Pool.close pool; false)

let test_empty_input () =
  Pool.with_pool ~jobs:3 (fun pool ->
      check_int "map on [||]" 0 (Array.length (Pool.map pool Fun.id [||])))

(* ------------------------------------------------------------------ *)
(* estimate_par: one result for every pool size                        *)
(* ------------------------------------------------------------------ *)

let test_estimate_par_jobs_invariant () =
  let tree = Gen.tree 11 in
  let event =
    (* the runs where a random past-based fact holds at time 0 *)
    let fact = Gen.past_based_fact tree ~seed:11 in
    let b = ref (Bitset.create (Tree.n_runs tree)) in
    for run = 0 to Tree.n_runs tree - 1 do
      if Fact.holds fact ~run ~time:0 then b := Bitset.add !b run
    done;
    !b
  in
  let samples = 5_000 and seed = 3 in
  let serial = Simulate.estimate_par tree ~event ~samples ~seed in
  List.iter
    (fun jobs ->
      let est =
        Pool.with_pool ~jobs (fun pool -> Simulate.estimate_par ~pool tree ~event ~samples ~seed)
      in
      check_string
        (Printf.sprintf "estimate_par jobs=%d equals no-pool result" jobs)
        (Q.to_string serial) (Q.to_string est))
    jobs_under_test;
  (* And it is a real estimate: within 5 binomial sigma of the measure. *)
  let exact = Tree.measure tree event in
  let sigma = Simulate.standard_error ~p:exact ~samples in
  let err = abs_float (Q.to_float serial -. Q.to_float exact) in
  check_bool "estimate within 5 sigma of exact measure" true (err <= (5. *. sigma) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Sweep: parallel report equals serial report                         *)
(* ------------------------------------------------------------------ *)

let report_to_string r = Format.asprintf "%a" Sweep.pp_report r

let test_sweep_jobs_invariant () =
  List.iter
    (fun check ->
      let serial = Sweep.run check ~first_seed:1 ~count:25 in
      let par =
        Pool.with_pool ~jobs:3 (fun pool -> Sweep.run ~pool check ~first_seed:1 ~count:25)
      in
      check_string
        (Printf.sprintf "sweep %s: jobs=3 report equals serial" (Sweep.check_name check))
        (report_to_string serial) (report_to_string par);
      check_bool
        (Printf.sprintf "sweep %s passes" (Sweep.check_name check))
        true (Sweep.passed serial))
    Sweep.all_checks

let test_sweep_names_roundtrip () =
  List.iter
    (fun c -> check_bool (Sweep.check_name c) true (Sweep.of_name (Sweep.check_name c) = Some c))
    Sweep.all_checks;
  check_bool "unknown name" true (Sweep.of_name "thm99" = None)

(* ------------------------------------------------------------------ *)
(* One shared budget across domains                                    *)
(* ------------------------------------------------------------------ *)

(* Sum of all points the fixed tree family charges for one full sweep
   of each tree: used to pick limits between "one item fits" and "all
   items together do not". *)
let sweep_points tree =
  Tree.fold_points tree ~init:0 ~f:(fun acc ~run:_ ~time:_ -> acc + 1)

let full_sweep tree = ignore (Tree.fold_points tree ~init:0 ~f:(fun acc ~run:_ ~time:_ -> acc + 1))

let test_budget_shared_across_domains () =
  let tree = Gen.tree 5 in
  let p = sweep_points tree in
  (* Budget for ~2.5 sweeps. Two sweeps (a single chunk's worth when
     only one item exists) fit; six sweeps spread over three domains
     must exhaust the SAME budget even though no single domain performs
     more than two. *)
  let lim = Budget.limits ~max_points:((5 * p / 2) + 1) () in
  let two_ok =
    Budget.with_budget lim (fun () ->
        full_sweep tree;
        full_sweep tree)
  in
  check_bool "two sweeps fit the budget" true (Result.is_ok two_ok);
  Pool.with_pool ~jobs:3 (fun pool ->
      let six =
        Budget.with_budget lim (fun () ->
            ignore (Pool.map pool (fun _ -> full_sweep tree) (Array.init 6 Fun.id)))
      in
      (match six with
       | Ok () -> Alcotest.fail "six parallel sweeps escaped a 2.5-sweep shared budget"
       | Error e -> check_bool "typed budget error" true (e.Error.kind = Error.Budget_exceeded));
      (* The scope was restored: charging outside is free again. *)
      full_sweep tree;
      check_bool "budget inactive after with_budget" false (Atomic.get Budget.live_scopes > 0))

let test_budget_not_multiplied () =
  (* The same limit that admits a serial computation admits the
     parallel one: workers inherit the caller's scope instead of
     getting fresh fuel, but they also do not double-charge. *)
  let tree = Gen.tree 6 in
  let p = sweep_points tree in
  let lim = Budget.limits ~max_points:((4 * p) + 1) () in
  Pool.with_pool ~jobs:4 (fun pool ->
      let r =
        Budget.with_budget lim (fun () ->
            ignore (Pool.map pool (fun _ -> full_sweep tree) (Array.init 4 Fun.id)))
      in
      check_bool "four sweeps fit a four-sweep budget across four domains" true
        (Result.is_ok r))

(* The shared-budget body again and again: the pool's workers may
   still be restoring their scopes when [with_budget] returns, and no
   scope may be live once it has. *)
let test_budget_shared_repeated () =
  for _ = 1 to 200 do
    test_budget_shared_across_domains ()
  done

(* Several domains open and close scopes at once. Inside every live
   scope a charge past its limit must raise, at both kinds of charge
   site (a [charge_*] call and [Tree.measure]'s inline check); a
   fast-path switch left stale by another domain's pop would skip it.
   Once every scope has closed, none is live. *)
let test_budget_scopes_race () =
  let tree = Gen.tree 3 in
  let runs = Tree.n_runs tree in
  let lim = Budget.limits ~max_points:(runs - 1) () in
  let worker () =
    for i = 1 to 2000 do
      let over () =
        if i mod 2 = 0 then Budget.charge_points runs
        else ignore (Tree.measure tree (Tree.all_runs tree))
      in
      match Budget.with_budget lim over with
      | Ok () -> failwith "a charge past the limit passed inside a live scope"
      | Error e -> assert (e.Error.kind = Error.Budget_exceeded)
    done
  in
  List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn worker));
  check_int "no scope live after all closed" 0 (Atomic.get Budget.live_scopes)

(* ------------------------------------------------------------------ *)
(* Obs counters are exact under parallel bumps                         *)
(* ------------------------------------------------------------------ *)

let test_obs_counters_parallel_exact () =
  let c = Obs.counter "test_par.bumps" in
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  let before = Obs.value c in
  let bumps_per_item = 1000 and items = 32 in
  Pool.with_pool ~jobs:4 (fun pool ->
      ignore
        (Pool.map pool
           (fun _ ->
             for _ = 1 to bumps_per_item do
               Obs.incr c
             done)
           (Array.init items Fun.id)));
  check_int "no bump lost across domains" (before + (bumps_per_item * items)) (Obs.value c);
  if not was_enabled then Obs.disable ()

let () =
  Alcotest.run "pak_par"
    [ ( "pool",
        [ QCheck_alcotest.to_alcotest prop_map_oracle;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
          Alcotest.test_case "create rejects jobs < 1" `Quick test_create_invalid;
          Alcotest.test_case "empty input" `Quick test_empty_input
        ] );
      ( "simulate",
        [ Alcotest.test_case "estimate_par is jobs-invariant" `Quick
            test_estimate_par_jobs_invariant
        ] );
      ( "sweep",
        [ Alcotest.test_case "reports are jobs-invariant" `Quick test_sweep_jobs_invariant;
          Alcotest.test_case "check names round-trip" `Quick test_sweep_names_roundtrip
        ] );
      ( "budget",
        [ Alcotest.test_case "one budget shared by all domains" `Quick
            test_budget_shared_across_domains;
          Alcotest.test_case "budget not multiplied by domains" `Quick
            test_budget_not_multiplied;
          Alcotest.test_case "shared budget, 200 rounds" `Quick
            test_budget_shared_repeated;
          Alcotest.test_case "scopes raced on four domains" `Quick
            test_budget_scopes_race
        ] );
      ( "obs",
        [ Alcotest.test_case "counters exact under parallel bumps" `Quick
            test_obs_counters_parallel_exact
        ] )
    ]
