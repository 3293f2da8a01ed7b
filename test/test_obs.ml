(* Tests for pak_obs and the instrumentation threaded through the
   checker/measure/constraint engines: counter identities on the
   Semantics memo table, determinism of fixpoint iteration counts, the
   trace sink's output format, and the core invariant that
   instrumentation never changes results (null sink or not). *)

open Pak_rational
open Pak_pps
open Pak_logic
module Obs = Pak_obs.Obs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] with metrics enabled and counters zeroed; always restore the
   null sink so tests cannot leak global state into each other. *)
let with_metrics f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* A three-node chain system with two agents: enough structure for
   knowledge, graded belief and the group fixpoints. *)
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

(* ------------------------------------------------------------------ *)
(* Counter mechanics                                                   *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let c = Obs.counter "test.basics" in
  check_bool "same name, same counter" true (c == Obs.counter "test.basics");
  Obs.disable ();
  Obs.incr c;
  check_int "null sink: incr is a no-op" 0 (Obs.value c);
  with_metrics (fun () ->
      Obs.incr c;
      Obs.add c 4;
      check_int "enabled: counts" 5 (Obs.value c);
      check_int "lookup by name" 5 (Obs.counter_value "test.basics");
      check_int "unknown name reads 0" 0 (Obs.counter_value "test.no_such"));
  check_int "reset zeroes" 0 (Obs.value c)

let test_span_stats () =
  with_metrics (fun () ->
      let v = Obs.span "test.span" (fun () -> 41 + 1) in
      check_int "span returns value" 42 v;
      (try Obs.span "test.span" (fun () -> failwith "boom") with Failure _ -> ());
      match List.filter (fun (n, _, _) -> n = "test.span") (Obs.spans ()) with
      | [ (_, count, total) ] ->
        check_int "both calls recorded (incl. raising one)" 2 count;
        check_bool "total time non-negative" true (total >= 0.)
      | _ -> Alcotest.fail "span stat missing")

(* ------------------------------------------------------------------ *)
(* Memo-table counters on a formula with shared structure              *)
(* ------------------------------------------------------------------ *)

let test_memo_counters () =
  let tree = toy () in
  (* f = (x1 ∧ x1) ∧ K_0 (x1 ∧ x1): four distinct subformulas — x1,
     x1∧x1, K_0(x1∧x1), f — visited six times in total. *)
  let g = Formula.Atom "x1" in
  let gg = Formula.And (g, g) in
  let f = Formula.And (gg, Formula.Knows (0, gg)) in
  with_metrics (fun () ->
      ignore (Semantics.eval tree ~valuation f);
      let hits = Obs.counter_value "semantics.memo_hits" in
      let misses = Obs.counter_value "semantics.memo_misses" in
      check_int "misses = distinct subformulas" 4 misses;
      check_int "hits = shared visits" 2 hits;
      check_int "hits + misses = total subformula evaluations" 6 (hits + misses))

(* ------------------------------------------------------------------ *)
(* Fixpoint iteration counters are deterministic                       *)
(* ------------------------------------------------------------------ *)

let test_fixpoint_determinism () =
  let tree = toy () in
  let ck = Parser.parse "C[0,1] true" in
  let cb = Parser.parse "CB[0,1]>=1/2 x1" in
  let iters formula =
    with_metrics (fun () ->
        ignore (Semantics.eval tree ~valuation formula);
        ( Obs.counter_value "semantics.gfp_iters.common_knowledge",
          Obs.counter_value "semantics.gfp_iters.common_belief",
          Obs.counter_value "semantics.gfp_iters" ))
  in
  let ck1 = iters ck and ck2 = iters ck in
  check_bool "C iteration counts repeat exactly" true (ck1 = ck2);
  let cb1 = iters cb and cb2 = iters cb in
  check_bool "CB iteration counts repeat exactly" true (cb1 = cb2);
  let ck_iters, _, total_ck = ck1 in
  check_bool "C evaluation iterates at least once" true (ck_iters >= 1);
  check_int "total = per-operator sum (C)" total_ck ck_iters;
  let _, cb_iters, total_cb = cb1 in
  check_bool "CB evaluation iterates at least once" true (cb_iters >= 1);
  check_int "total = per-operator sum (CB)" total_cb cb_iters

(* ------------------------------------------------------------------ *)
(* Trace sink emits valid Chrome trace_event JSON                      *)
(* ------------------------------------------------------------------ *)

let test_trace_file () =
  let file = Filename.temp_file "pak_obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Sys.remove file)
    (fun () ->
      Obs.trace_to file;
      check_bool "trace_to implies enabled" true (Obs.enabled ());
      check_bool "tracing is on" true (Obs.tracing ());
      let tree = toy () in
      ignore (Semantics.eval tree ~valuation (Parser.parse "B[0]>=1/2 x1"));
      Obs.trace_stop ();
      check_bool "tracing stopped" false (Obs.tracing ());
      match Obs.validate_trace_file file with
      | Ok s ->
        check_bool "trace has events" true (s.Obs.trace_events > 0);
        check_bool "trace has complete span events" true (s.Obs.trace_complete > 0);
        check_bool "trace has counter samples" true (s.Obs.trace_counter_samples > 0);
        check_bool "trace has gc heap-lane samples" true (s.Obs.trace_gc_samples > 0);
        check_bool "trace has at least one tid lane" true (s.Obs.trace_lanes >= 1)
      | Error msg -> Alcotest.fail ("emitted trace rejected: " ^ msg))

let test_validate_rejects_garbage () =
  let reject content =
    let file = Filename.temp_file "pak_obs_bad" ".json" in
    let ch = open_out file in
    output_string ch content;
    close_out ch;
    let r = Obs.validate_trace_file file in
    Sys.remove file;
    match r with Ok _ -> false | Error _ -> true
  in
  check_bool "not JSON" true (reject "[{");
  check_bool "not an array" true (reject "{\"a\":1}");
  check_bool "event not an object" true (reject "[1,2]");
  check_bool "event missing ph" true (reject "[{\"name\":\"x\",\"ts\":0}]");
  check_bool "event missing pid/tid" true
    (reject "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0.5,\"dur\":1}]");
  check_bool "complete event missing dur" true
    (reject "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0.5,\"pid\":1,\"tid\":0}]");
  check_bool "counter sample missing args.value" true
    (reject "[{\"name\":\"c\",\"ph\":\"C\",\"ts\":0.5,\"pid\":1,\"tid\":0,\"args\":{}}]");
  check_bool "accepts a valid complete event" false
    (reject "[{\"name\":\"x\",\"ph\":\"X\",\"ts\":0.5,\"dur\":1,\"pid\":1,\"tid\":0}]");
  check_bool "accepts a valid counter sample" false
    (reject
       "[{\"name\":\"c\",\"ph\":\"C\",\"ts\":0.5,\"pid\":1,\"tid\":0,\"args\":{\"value\":3}}]");
  (* gc.* heap lanes are held to a stricter contract: integral,
     non-negative samples. A non-gc lane may carry a fractional value. *)
  check_bool "gc lane with fractional sample" true
    (reject
       "[{\"name\":\"gc.minor_words\",\"ph\":\"C\",\"ts\":0.5,\"pid\":1,\"tid\":0,\"args\":\
        {\"value\":3.5}}]");
  check_bool "gc lane with negative sample" true
    (reject
       "[{\"name\":\"gc.heap_words\",\"ph\":\"C\",\"ts\":0.5,\"pid\":1,\"tid\":0,\"args\":\
        {\"value\":-1}}]");
  check_bool "accepts a valid gc lane sample" false
    (reject
       "[{\"name\":\"gc.minor_words\",\"ph\":\"C\",\"ts\":0.5,\"pid\":1,\"tid\":0,\"args\":\
        {\"value\":4096}}]");
  check_bool "non-gc lane may carry a fractional value" false
    (reject "[{\"name\":\"c\",\"ph\":\"C\",\"ts\":0.5,\"pid\":1,\"tid\":0,\"args\":{\"value\":0.5}}]")

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let prop_bucket_partition =
  QCheck.Test.make ~count:500 ~name:"every int lands in exactly one histogram bucket"
    QCheck.(oneof [ int; int_range (-4) 70; map (fun i -> (1 lsl i) - 1) (int_range 1 61) ])
    (fun v ->
      let b = Obs.bucket_of v in
      0 <= b && b < Obs.n_buckets
      && Obs.bucket_lo b <= max v 0
      && max v 0 <= Obs.bucket_hi b
      && (* no other bucket contains v *)
      List.for_all
        (fun j -> j = b || not (Obs.bucket_lo j <= max v 0 && max v 0 <= Obs.bucket_hi j))
        (List.init Obs.n_buckets Fun.id))

let prop_histogram_merge =
  QCheck.Test.make ~count:100
    ~name:"merge of two histograms = histogram of concatenated samples"
    QCheck.(pair (small_list small_nat) (small_list small_nat))
    (fun (xs, ys) ->
      let fill name samples =
        let h = Obs.histogram name in
        List.iter (Obs.record h) samples;
        h
      in
      with_metrics (fun () ->
          let a = fill "test.merge_a" xs
          and b = fill "test.merge_b" ys
          and c = fill "test.merge_c" (xs @ ys) in
          Obs.merge_counts (Obs.histogram_counts a) (Obs.histogram_counts b)
          = Obs.histogram_counts c))

let test_histogram_basics () =
  let h = Obs.histogram "test.hist" in
  Obs.disable ();
  Obs.record h 5;
  check_int "null sink: record is a no-op" 0 (Obs.total_count (Obs.histogram_counts h));
  with_metrics (fun () ->
      List.iter (Obs.record h) [ 1; 2; 3; 500; 0; -7 ];
      let counts = Obs.histogram_counts h in
      check_int "six samples" 6 (Obs.total_count counts);
      check_int "non-positive samples share bucket 0" 2 counts.(0);
      check_int "1 in bucket 1" 1 counts.(Obs.bucket_of 1);
      check_int "500 in its own bucket" 1 counts.(Obs.bucket_of 500);
      check_bool "p99 >= p50" true (Obs.percentile counts 0.99 >= Obs.percentile counts 0.5);
      check_bool "p50 positive" true (Obs.percentile counts 0.5 > 0.));
  check_int "reset zeroes buckets" 0 (Obs.total_count (Obs.histogram_counts h))

let test_span_feeds_histogram () =
  with_metrics (fun () ->
      for _ = 1 to 5 do
        Obs.span "test.span_hist" (fun () -> Sys.opaque_identity (List.init 100 Fun.id))
        |> ignore
      done;
      match List.assoc_opt "test.span_hist" (Obs.histograms ()) with
      | None -> Alcotest.fail "span did not create its duration histogram"
      | Some counts -> check_int "one sample per span call" 5 (Obs.total_count counts))

(* [percentile] takes a fraction; a percent or NaN is a caller error. *)
let test_percentile_domain () =
  let counts = Array.make Obs.n_buckets 0 in
  counts.(11) <- 8;
  counts.(12) <- 2;
  let rejects q =
    match Obs.percentile counts q with exception Invalid_argument _ -> true | _ -> false
  in
  List.iter
    (fun q -> check_bool (Printf.sprintf "q = %g rejected" q) true (rejects q))
    [ 50.; 90.; 99.; 1.0000001; -0.1; Float.nan; Float.infinity; Float.neg_infinity ];
  check_bool "q = 0 is the lower end of the first sample's bucket" true
    (Obs.percentile counts 0. = 1024. +. (1023. /. 8.));
  check_bool "q = 1 is the top of the last bucket" true (Obs.percentile counts 1. = 4095.);
  check_bool "q = 0.5 interpolates inside its bucket" true
    (Obs.percentile counts 0.5 = 1024. +. (1023. *. 5. /. 8.));
  check_bool "an empty histogram still checks q" true
    (match Obs.percentile (Array.make Obs.n_buckets 0) 50. with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Hierarchical span tree                                              *)
(* ------------------------------------------------------------------ *)

let test_span_tree () =
  with_metrics (fun () ->
      for _ = 1 to 3 do
        Obs.span "outer" (fun () ->
            Obs.span "inner" (fun () -> ());
            Obs.span "inner" (fun () -> ()))
      done;
      (try Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> failwith "boom"))
       with Failure _ -> ());
      match Obs.span_tree () with
      | [ root ] ->
        check_bool "root is outer" true (root.Obs.sn_name = "outer");
        check_int "outer called 4 times (incl. the raising one)" 4 root.Obs.sn_count;
        (match root.Obs.sn_children with
         | [ child ] ->
           check_bool "child is inner" true (child.Obs.sn_name = "inner");
           check_int "inner called 7 times under outer" 7 child.Obs.sn_count;
           check_bool "paths are outermost-first" true
             (child.Obs.sn_path = [ "outer"; "inner" ]);
           check_bool "child inclusive <= parent inclusive" true
             (child.Obs.sn_total <= root.Obs.sn_total +. 1e-9)
         | cs -> Alcotest.fail (Printf.sprintf "expected 1 child, got %d" (List.length cs)));
        check_bool "self <= inclusive" true (root.Obs.sn_self <= root.Obs.sn_total +. 1e-9);
        check_bool "self >= 0" true (root.Obs.sn_self >= 0.)
      | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots)))

let rec check_self_invariant (n : Obs.span_node) =
  n.Obs.sn_self >= 0.
  && n.Obs.sn_self <= n.Obs.sn_total +. 1e-9
  && List.for_all check_self_invariant n.Obs.sn_children

let test_span_tree_engine () =
  let tree = toy () in
  with_metrics (fun () ->
      ignore (Semantics.eval tree ~valuation (Parser.parse "K[0] (x1 & x1)"));
      let forest = Obs.span_tree () in
      check_bool "engine run produces a span forest" true (forest <> []);
      check_bool "self-time invariant holds on every node" true
        (List.for_all check_self_invariant forest))

(* ------------------------------------------------------------------ *)
(* Allocation attribution                                              *)
(* ------------------------------------------------------------------ *)

(* ~150k minor words (50k boxed pairs) the optimizer cannot elide. *)
let alloc_work () =
  let acc = ref 0 in
  for i = 1 to 50_000 do
    let pair = Sys.opaque_identity (i, i + 1) in
    acc := !acc + fst pair
  done;
  !acc

let test_span_alloc () =
  with_metrics (fun () ->
      ignore (Obs.span "test.alloc" alloc_work);
      (match
         List.find_opt (fun (n, _, _) -> n = "test.alloc") (Obs.span_allocs ())
       with
       | None -> Alcotest.fail "allocating span missing from span_allocs"
       | Some (_, minor, major) ->
         check_bool "allocating span records > 100k minor words" true (minor > 100_000.);
         check_bool "major words non-negative" true (major >= 0.));
      (* The kill switch zeroes attribution without touching stats. *)
      Obs.set_track_allocations false;
      Fun.protect
        ~finally:(fun () -> Obs.set_track_allocations true)
        (fun () ->
          ignore (Obs.span "test.alloc_off" alloc_work);
          match
            List.find_opt (fun (n, _, _) -> n = "test.alloc_off") (Obs.span_allocs ())
          with
          | None -> Alcotest.fail "kill-switch span missing from span_allocs"
          | Some (_, minor, major) ->
            check_bool "kill switch: zero minor words" true (minor = 0.);
            check_bool "kill switch: zero major words" true (major = 0.);
            check_bool "kill switch: calls still counted" true
              (List.exists (fun (n, c, _) -> n = "test.alloc_off" && c = 1) (Obs.spans ()))))

let rec check_alloc_invariant (n : Obs.span_node) =
  n.Obs.sn_self_minor_aw >= 0.
  && n.Obs.sn_self_minor_aw <= n.Obs.sn_minor_aw +. 1e-9
  && n.Obs.sn_self_major_aw >= 0.
  && n.Obs.sn_self_major_aw <= n.Obs.sn_major_aw +. 1e-9
  && List.for_all check_alloc_invariant n.Obs.sn_children

(* The acceptance bar for span attribution: self words summed over the
   tree (= the roots' inclusive words, telescoping) account for the
   process's minor-word delta to within 10%. What escapes is only the
   instrumentation's own allocation at span boundaries. *)
let test_alloc_coverage () =
  with_metrics (fun () ->
      let mw0 = Gc.minor_words () in
      ignore
        (Obs.span "cov.outer" (fun () ->
             ignore (Obs.span "cov.inner" alloc_work);
             alloc_work ()));
      let delta = Gc.minor_words () -. mw0 in
      let forest = Obs.span_tree () in
      let attributed = List.fold_left (fun acc n -> acc +. n.Obs.sn_minor_aw) 0. forest in
      check_bool "alloc self/inclusive invariant holds on every node" true
        (List.for_all check_alloc_invariant forest);
      check_bool "inner span saw its own allocation" true
        (List.exists
           (fun n ->
             List.exists (fun c -> c.Obs.sn_minor_aw > 100_000.) n.Obs.sn_children)
           forest);
      check_bool
        (Printf.sprintf "spans attribute >= 90%% of process minor words (%.0f of %.0f)"
           attributed delta)
        true
        (delta > 0. && Float.abs ((attributed /. delta) -. 1.) <= 0.1))

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let test_gauges () =
  Obs.register_gauges (fun () -> [ ("test.gauge", 0.25) ]);
  check_bool "registered gauge is polled" true
    (List.assoc_opt "test.gauge" (Obs.gauges ()) = Some 0.25)

let test_gc_gauges () =
  let g = Obs.gauges () in
  List.iter
    (fun k ->
      match List.assoc_opt k g with
      | None -> Alcotest.fail ("built-in gc gauge missing: " ^ k)
      | Some v -> check_bool (k ^ " is non-negative") true (v >= 0.))
    [ "gc.minor_words"; "gc.major_words"; "gc.promoted_words"; "gc.minor_collections";
      "gc.major_collections"; "gc.compactions"; "gc.heap_words"; "gc.top_heap_words" ];
  (* Cumulative gc gauges read as deltas since reset: allocating then
     resetting brings gc.minor_words back near zero. *)
  ignore (alloc_work ());
  let before = List.assoc "gc.minor_words" (Obs.gauges ()) in
  check_bool "allocation shows up in gc.minor_words" true (before > 100_000.);
  Obs.reset ();
  let after = List.assoc "gc.minor_words" (Obs.gauges ()) in
  check_bool "reset re-bases the gc gauges" true (after < before)

(* ------------------------------------------------------------------ *)
(* Snapshots and diffing                                               *)
(* ------------------------------------------------------------------ *)

let snapshot_of_toy_run () =
  let tree = toy () in
  with_metrics (fun () ->
      ignore (Semantics.eval tree ~valuation (Parser.parse "CB[0,1]>=1/2 x1"));
      Obs.Snapshot.capture ())

let test_snapshot_roundtrip () =
  let s = snapshot_of_toy_run () in
  check_int "snapshot carries the schema version" Obs.Snapshot.schema_version
    s.Obs.Snapshot.version;
  check_bool "snapshot has counters" true (s.Obs.Snapshot.counters <> []);
  check_bool "snapshot has histograms" true (s.Obs.Snapshot.histograms <> []);
  check_bool "snapshot has a span tree" true (s.Obs.Snapshot.spans <> []);
  match Obs.Snapshot.of_json_string (Obs.Snapshot.to_json s) with
  | Error msg -> Alcotest.fail ("snapshot JSON does not parse back: " ^ msg)
  | Ok s' ->
    check_bool "serialize/parse round-trip is exact" true (s = s');
    (* A second trip through text must be byte-stable. *)
    check_bool "to_json is stable" true
      (String.equal (Obs.Snapshot.to_json s) (Obs.Snapshot.to_json s'))

let test_snapshot_file_roundtrip () =
  let file = Filename.temp_file "pak_obs_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let s = snapshot_of_toy_run () in
      Obs.Snapshot.write file s;
      match Obs.Snapshot.of_file file with
      | Ok s' -> check_bool "file round-trip is exact" true (s = s')
      | Error msg -> Alcotest.fail ("written snapshot rejected: " ^ msg))

let test_diff_fixtures () =
  let base = snapshot_of_toy_run () in
  let fresh = snapshot_of_toy_run () in
  (* Same deterministic workload twice: counters, call counts and
     sample totals agree; a generous tolerance absorbs timing noise. *)
  let cfg = { Obs.Diff.default with Obs.Diff.time_tol = 1000.; time_floor = 10. } in
  (match Obs.Diff.diff cfg ~baseline:base ~fresh with
   | [] -> ()
   | vs -> Alcotest.fail ("identical workload should pass: " ^ String.concat "; " vs));
  (* Counter regression: any perturbed counter must be reported. *)
  let perturbed =
    { base with
      Obs.Snapshot.counters =
        List.map
          (fun (k, v) -> if k = "semantics.memo_misses" then (k, v + 1) else (k, v))
          base.Obs.Snapshot.counters
    }
  in
  (match Obs.Diff.diff cfg ~baseline:perturbed ~fresh with
   | [] -> Alcotest.fail "counter regression not detected"
   | vs ->
     let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
       at 0
     in
     check_bool "report names the counter" true
       (List.exists (fun v -> contains v "semantics.memo_misses") vs));
  (* The allowlist silences exactly that counter. *)
  (match
     Obs.Diff.diff
       { cfg with Obs.Diff.allow = [ "semantics.memo_misses" ] }
       ~baseline:perturbed ~fresh
   with
   | [] -> ()
   | vs -> Alcotest.fail ("allowlisted counter still reported: " ^ String.concat "; " vs));
  (* Wall-time regression: inflate a span time far past tolerance. *)
  let slow =
    { base with
      Obs.Snapshot.spans =
        List.map
          (fun (n : Obs.span_node) -> { n with Obs.sn_total = n.Obs.sn_total +. 100. })
          base.Obs.Snapshot.spans
    }
  in
  let tight = { Obs.Diff.default with Obs.Diff.time_tol = 0.5; time_floor = 0.001 } in
  (match Obs.Diff.diff tight ~baseline:base ~fresh:slow with
   | [] -> Alcotest.fail "wall-time regression not detected"
   | _ -> ());
  (* Schema mismatch is always a violation. *)
  match Obs.Diff.diff cfg ~baseline:{ base with Obs.Snapshot.version = 999 } ~fresh with
  | [] -> Alcotest.fail "schema version mismatch not detected"
  | _ -> ()

(* The alloc-regression gate: a synthetic 2x allocation regression in a
   hot span must be caught under --alloc-tol, and only there — same
   perturb-and-diff pattern as the time-regression fixtures above. *)
let test_diff_alloc_regression () =
  let snap () =
    with_metrics (fun () ->
        ignore (Obs.span "hot" alloc_work);
        Obs.Snapshot.capture ())
  in
  let base = snap () in
  let cfg =
    { Obs.Diff.default with
      Obs.Diff.time_tol = 1000.;
      time_floor = 10.;
      alloc_tol = 0.5;
      alloc_floor = 1000.
    }
  in
  let regressed =
    { base with
      Obs.Snapshot.spans =
        List.map
          (fun (n : Obs.span_node) ->
            { n with
              Obs.sn_minor_aw = n.Obs.sn_minor_aw *. 2.;
              Obs.sn_self_minor_aw = n.Obs.sn_self_minor_aw *. 2.
            })
          base.Obs.Snapshot.spans
    }
  in
  (* Gauges/counters are untouched, so the only possible violation is
     the span allocation line. *)
  (match Obs.Diff.diff cfg ~baseline:base ~fresh:regressed with
   | [] -> Alcotest.fail "2x allocation regression not detected"
   | vs ->
     let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
       at 0
     in
     check_bool "report names the span and the words" true
       (List.exists (fun v -> contains v "hot" && contains v "words") vs));
  (* Within tolerance (1.4x < 1 + 0.5) passes. *)
  let mild =
    { base with
      Obs.Snapshot.spans =
        List.map
          (fun (n : Obs.span_node) -> { n with Obs.sn_minor_aw = n.Obs.sn_minor_aw *. 1.4 })
          base.Obs.Snapshot.spans
    }
  in
  (match Obs.Diff.diff cfg ~baseline:base ~fresh:mild with
   | [] -> ()
   | vs -> Alcotest.fail ("1.4x within alloc-tol 50% still reported: " ^ String.concat "; " vs));
  (* The allowlist silences the regressed span. *)
  match
    Obs.Diff.diff { cfg with Obs.Diff.allow = [ "hot" ] } ~baseline:base ~fresh:regressed
  with
  | [] -> ()
  | vs -> Alcotest.fail ("allowlisted span still reported: " ^ String.concat "; " vs)

(* Committed v1 fixture (the pre-alloc baseline format): must keep
   parsing, with the alloc columns defaulting to zero. *)
let test_v1_fixture_parses () =
  match Obs.Snapshot.of_file "fixtures/snapshot_v1.json" with
  | Error msg -> Alcotest.fail ("v1 fixture rejected: " ^ msg)
  | Ok s ->
    check_int "fixture is schema v1" 1 s.Obs.Snapshot.version;
    check_bool "fixture has counters" true (s.Obs.Snapshot.counters <> []);
    check_bool "fixture has a span tree" true (s.Obs.Snapshot.spans <> []);
    let rec zero_alloc (n : Obs.span_node) =
      n.Obs.sn_minor_aw = 0.
      && n.Obs.sn_self_minor_aw = 0.
      && n.Obs.sn_major_aw = 0.
      && n.Obs.sn_self_major_aw = 0.
      && List.for_all zero_alloc n.Obs.sn_children
    in
    check_bool "absent alloc fields decode as zero" true
      (List.for_all zero_alloc s.Obs.Snapshot.spans)

(* Random v2 snapshots with nonzero alloc fields round-trip through
   JSON exactly (all numbers integral, so %.17g is trivially exact). *)
let prop_snapshot_v2_roundtrip =
  let open QCheck in
  let gen =
    let open Gen in
    let fnum = map float_of_int (int_bound 1_000_000) in
    let leaf path =
      int_bound 1000 >>= fun sn_count ->
      fnum >>= fun sn_total ->
      fnum >>= fun sn_self ->
      fnum >>= fun sn_minor_aw ->
      fnum >>= fun sn_self_minor_aw ->
      fnum >>= fun sn_major_aw ->
      fnum >>= fun sn_self_major_aw ->
      return
        { Obs.sn_name = List.nth path (List.length path - 1);
          sn_path = path;
          sn_count;
          sn_total;
          sn_self;
          sn_minor_aw;
          sn_self_minor_aw;
          sn_major_aw;
          sn_self_major_aw;
          sn_children = []
        }
    in
    let node name =
      leaf [ name ] >>= fun n ->
      list_size (int_bound 3) (leaf [ name; "child" ]) >>= fun sn_children ->
      return { n with Obs.sn_children } in
    list_size (int_bound 3) (node "root") >>= fun spans ->
    small_nat >>= fun cv ->
    fnum >>= fun gv ->
    return
      { Obs.Snapshot.version = Obs.Snapshot.schema_version;
        counters = [ ("test.counter", cv) ];
        gauges = [ ("test.gauge", gv) ];
        histograms = [];
        spans
      }
  in
  Test.make ~count:100 ~name:"v2 snapshots with alloc fields round-trip through JSON"
    (make gen) (fun s ->
      match Obs.Snapshot.of_json_string (Obs.Snapshot.to_json s) with
      | Ok s' -> s = s'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Instrumentation never changes results                               *)
(* ------------------------------------------------------------------ *)

let facts_agree tree a b =
  Tree.fold_points tree ~init:true ~f:(fun acc ~run ~time ->
      acc && Fact.holds a ~run ~time = Fact.holds b ~run ~time)

let prop_instrumentation_transparent =
  QCheck.Test.make ~count:60 ~name:"metrics on/off leaves eval and measure bit-identical"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tree = Gen.tree seed in
      let formulas =
        [ Parser.parse "B[0]>=1/2 a0_x | F a0_x";
          Parser.parse "K[0] true & CB[0]>=1/3 true";
          Formula.Believes (0, Formula.Geq, Q.of_ints 1 3, Formula.Atom "a0_x")
        ]
      in
      let valuation atom g =
        String.length atom > 3 && atom.[0] = 'a' && atom.[1] = '0' && atom.[2] = '_'
        && Gstate.local g 0 = String.sub atom 3 (String.length atom - 3)
      in
      Obs.disable ();
      let plain = List.map (Semantics.eval tree ~valuation) formulas in
      let plain_mu =
        List.map (fun f -> Semantics.probability tree ~valuation f) formulas
      in
      (* The instrumented run exercises every PR-4 surface on top of
         the counters: span nesting (histograms + span tree feed off
         it), a histogram record, and a full snapshot capture. None of
         it may perturb the computed facts or measures. *)
      let instrumented, instr_mu =
        with_metrics (fun () ->
            let r =
              Obs.span "transparency.outer" (fun () ->
                  Obs.span "transparency.inner" (fun () ->
                      Obs.record (Obs.histogram "transparency.h") seed;
                      ( List.map (Semantics.eval tree ~valuation) formulas,
                        List.map (fun f -> Semantics.probability tree ~valuation f) formulas )))
            in
            ignore (Obs.Snapshot.to_json (Obs.Snapshot.capture ()));
            r)
      in
      List.for_all2 (facts_agree tree) plain instrumented
      && List.for_all2 Q.equal plain_mu instr_mu)

(* ------------------------------------------------------------------ *)
(* Snapshot.diff_capture                                               *)
(* ------------------------------------------------------------------ *)

let test_diff_capture_attribution () =
  with_metrics (fun () ->
      let c = Obs.counter "diffcap.inner" in
      let before_only = Obs.counter "diffcap.before" in
      Obs.add before_only 7;
      Obs.add c 3;
      let x, d =
        Obs.Snapshot.diff_capture (fun () ->
            Obs.add c 5;
            Obs.record (Obs.histogram "diffcap.h") 1_000;
            "result")
      in
      check_bool "value passes through" true (x = "result");
      check_int "only the inner bumps" 5
        (match List.assoc_opt "diffcap.inner" d.Obs.Snapshot.counters with
         | Some n -> n
         | None -> 0);
      check_bool "counters untouched before the scope are dropped" true
        (List.assoc_opt "diffcap.before" d.Obs.Snapshot.counters = None);
      check_int "no global reset: totals still accumulate" 8 (Obs.value c);
      check_bool "inner histogram records appear" true
        (match List.assoc_opt "diffcap.h" d.Obs.Snapshot.histograms with
         | Some buckets -> Array.fold_left ( + ) 0 buckets = 1
         | None -> false))

(* At --jobs 1 every request runs on the captured domain, so a
   per-request delta must never carry span rows from a surrounding or
   preceding request: diff_capture excludes the (cumulative,
   cross-request) span tree entirely rather than misattributing it. *)
let test_diff_capture_no_span_leakage () =
  with_metrics (fun () ->
      Obs.span "diffcap.outer" (fun () ->
          let _, d =
            Obs.Snapshot.diff_capture (fun () ->
                Obs.span "diffcap.request" (fun () -> ignore (Sys.opaque_identity 1)))
          in
          check_bool "no span rows in a delta" true (d.Obs.Snapshot.spans = []));
      let full = Obs.Snapshot.capture () in
      check_bool "spans still reach a full snapshot" true
        (List.exists
           (fun (n : Obs.span_node) -> n.Obs.sn_name = "diffcap.outer")
           full.Obs.Snapshot.spans))

(* ------------------------------------------------------------------ *)
(* Rolling time-series (Series)                                        *)
(* ------------------------------------------------------------------ *)

let test_series_deltas_telescope () =
  with_metrics (fun () ->
      let c = Obs.counter "series.c" in
      let h = Obs.histogram "series.h" in
      let s = Obs.Series.create () in
      Obs.add c 3;
      Obs.record h 10;
      let a = Obs.Series.record s in
      Obs.add c 4;
      let b = Obs.Series.record s in
      let del sample = List.assoc_opt "series.c" sample.Obs.Series.s_counters in
      check_bool "first delta counts from create" true (del a = Some 3);
      check_bool "second delta counts from the first record" true (del b = Some 4);
      check_int "seqs are 0-based and consecutive" 1
        (b.Obs.Series.s_seq - a.Obs.Series.s_seq);
      check_bool "histogram totals are deltas too" true
        (List.assoc_opt "series.h" a.Obs.Series.s_hist_totals = Some 1
        && List.assoc_opt "series.h" b.Obs.Series.s_hist_totals = None);
      (* An idle interval records no counter rows: zero deltas drop. *)
      let idle = Obs.Series.record s in
      check_bool "zero rows dropped" true
        (List.assoc_opt "series.c" idle.Obs.Series.s_counters = None);
      check_int "seq counts every record" 2 idle.Obs.Series.s_seq)

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let om_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_openmetrics_render_checks () =
  let s = snapshot_of_toy_run () in
  let text = Obs.Openmetrics.render s in
  (match Obs.Openmetrics.check text with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("render output rejected by check: " ^ e));
  check_bool "counters become pak_*_total samples" true
    (om_contains text "pak_semantics_memo_misses_total");
  check_bool "TYPE directives present" true (om_contains text "# TYPE ");
  check_bool "histograms expose cumulative buckets" true
    (om_contains text "_bucket{le=\"");
  check_bool "ends with the EOF terminator" true
    (let n = String.length text in
     n >= 6 && String.sub text (n - 6) 6 = "# EOF\n");
  (* Byte-stable: rendering the same snapshot twice is identical. *)
  check_bool "render is deterministic" true
    (String.equal text (Obs.Openmetrics.render s))

let test_openmetrics_sanitizes_names () =
  (* Hostile metric names (spaces, braces, quotes, newlines) must come
     out as legal OpenMetrics names — this is what the fuzzer drives. *)
  with_metrics (fun () ->
      Obs.add (Obs.counter "evil name{x=\"1\"}") 3;
      Obs.add (Obs.counter "semi;colon\nnewline") 1;
      let text = Obs.Openmetrics.render (Obs.Snapshot.capture ()) in
      match Obs.Openmetrics.check text with
      | Ok () -> check_bool "sanitized name appears" true (om_contains text "pak_evil_name")
      | Error e -> Alcotest.fail ("sanitized exposition rejected: " ^ e))

let test_openmetrics_check_rejects () =
  let bad text =
    match Obs.Openmetrics.check text with Ok () -> false | Error _ -> true
  in
  check_bool "missing EOF" true (bad "pak_x_total 1\n");
  check_bool "illegal metric name" true (bad "9bad 1\n# EOF\n");
  check_bool "non-numeric value" true (bad "pak_x_total banana\n# EOF\n");
  check_bool "unbalanced label block" true (bad "pak_x_total{le=\"1\" 1\n# EOF\n");
  check_bool "text after EOF" true (bad "# EOF\npak_x_total 1\n")

(* ------------------------------------------------------------------ *)
(* Flamegraph export                                                   *)
(* ------------------------------------------------------------------ *)

let test_flamegraph_collapsed_stacks () =
  with_metrics (fun () ->
      check_bool "no spans, empty output" true
        (Obs.flamegraph (Obs.Snapshot.capture ()) = "");
      for _ = 1 to 3 do
        Obs.span "flame.outer" (fun () ->
            Obs.span "flame.inner" (fun () -> ignore (Sys.opaque_identity (alloc_work ()))))
      done;
      let lines text = String.split_on_char '\n' (String.trim text) in
      let parse line =
        match String.rindex_opt line ' ' with
        | Some i ->
          ( String.sub line 0 i,
            int_of_string (String.sub line (i + 1) (String.length line - i - 1)) )
        | None -> Alcotest.fail ("malformed collapsed-stack line: " ^ line)
      in
      let snap = Obs.Snapshot.capture () in
      let time_rows = List.map parse (lines (Obs.flamegraph snap)) in
      check_bool "semicolon-joined paths, outermost first" true
        (List.mem_assoc "flame.outer;flame.inner" time_rows);
      check_bool "weights are non-negative" true
        (List.for_all (fun (_, w) -> w >= 0) time_rows);
      check_bool "paths are sorted" true
        (let ps = List.map fst time_rows in
         ps = List.sort compare ps);
      let alloc_rows = List.map parse (lines (Obs.flamegraph ~weight:Obs.Flame_alloc snap)) in
      check_bool "alloc weight: the allocating leaf dominates" true
        (match List.assoc_opt "flame.outer;flame.inner" alloc_rows with
         | Some w -> w > 100_000
         | None -> false))

(* ------------------------------------------------------------------ *)
(* Gc gauge sampling interval + trace context                          *)
(* ------------------------------------------------------------------ *)

let test_gauge_sample_interval () =
  let d = Obs.gauge_sample_interval () in
  Fun.protect
    ~finally:(fun () -> Obs.set_gauge_sample_interval d)
    (fun () ->
      Obs.set_gauge_sample_interval 1;
      check_int "interval readable" 1 (Obs.gauge_sample_interval ());
      check_bool "interval 0 rejected" true
        (match Obs.set_gauge_sample_interval 0 with
         | exception Invalid_argument _ -> true
         | () -> false);
      check_int "rejected set leaves the interval" 1 (Obs.gauge_sample_interval ()))

let test_trace_context () =
  check_bool "no ambient context" true (Obs.trace_context () = None);
  let seen =
    Obs.with_trace_context "deadbeefdeadbeef" (fun () ->
        let outer = Obs.trace_context () in
        let inner =
          Obs.with_trace_context "cafe0000cafe0000" (fun () -> Obs.trace_context ())
        in
        (outer, inner, Obs.trace_context ()))
  in
  check_bool "context installed, nested and restored" true
    (seen
    = (Some "deadbeefdeadbeef", Some "cafe0000cafe0000", Some "deadbeefdeadbeef"));
  check_bool "context cleared at exit" true (Obs.trace_context () = None);
  (* The context survives span detachment and lands in the trace file
     as an args.trace field on the span's X event. *)
  let file = Filename.temp_file "pak_obs_ctx" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ();
      Sys.remove file)
    (fun () ->
      Obs.trace_to file;
      Obs.with_trace_context "feedface00000001" (fun () ->
          Obs.span_detach (fun () ->
              Obs.span "ctx.request" (fun () -> ignore (Sys.opaque_identity 1))));
      Obs.trace_stop ();
      let text = In_channel.with_open_bin file In_channel.input_all in
      check_bool "trace event carries the ambient trace id" true
        (om_contains text "\"trace\":\"feedface00000001\""))

(* ------------------------------------------------------------------ *)
(* Golden renders of a committed snapshot                              *)
(* ------------------------------------------------------------------ *)

(* fixtures/snapshot_v2.json: four counters, gc.* and other gauges, two
   histograms, and a three-level span tree in which "measure" runs both
   at the root and under eval;sweep. *)
let fixture_v2 () =
  match Obs.Snapshot.of_file "fixtures/snapshot_v2.json" with
  | Ok s -> s
  | Error msg -> Alcotest.fail ("v2 fixture rejected: " ^ msg)

(* Byte-for-byte against the committed file; on a mismatch the render
   is left beside the test binary as [<name>.actual]. *)
let check_golden name actual =
  let expected =
    try In_channel.with_open_bin ("fixtures/" ^ name) In_channel.input_all
    with Sys_error _ -> ""
  in
  if not (String.equal expected actual) then begin
    Out_channel.with_open_bin (name ^ ".actual") (fun oc -> output_string oc actual);
    Alcotest.failf "%s differs from the committed render (see %s.actual)" name name
  end

let test_golden_summary () =
  check_golden "snapshot_v2.summary.txt" (Format.asprintf "%a" Obs.pp_summary (fixture_v2 ()))

let test_golden_span_tree () =
  check_golden "snapshot_v2.tree.txt" (Format.asprintf "%a" Obs.pp_span_tree (fixture_v2 ()))

let test_golden_alloc_report () =
  let s = fixture_v2 () in
  check_golden "snapshot_v2.alloc.txt"
    (Format.asprintf "%a%a"
       (fun fmt -> Obs.pp_alloc_report fmt)
       s
       (fun fmt -> Obs.pp_alloc_report ~top:2 fmt)
       s)

let test_golden_flamegraph () =
  let s = fixture_v2 () in
  check_golden "snapshot_v2.flame_time.txt" (Obs.flamegraph s);
  check_golden "snapshot_v2.flame_alloc.txt" (Obs.flamegraph ~weight:Obs.Flame_alloc s)

let test_golden_openmetrics () =
  check_golden "snapshot_v2.openmetrics.txt" (Obs.Openmetrics.render (fixture_v2 ()))

(* ------------------------------------------------------------------ *)
(* Random nested span programs                                         *)
(* ------------------------------------------------------------------ *)

(* A span program: a span name and the spans it runs, in order. Names
   come from a three-letter alphabet, so the same name recurs under
   different parents and inside itself. *)
type span_prog = Run of string * span_prog list

let gen_span_forest =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec prog depth =
    name >>= fun n ->
    (if depth = 0 then return [] else list_size (int_bound 3) (prog (depth - 1)))
    >>= fun kids -> return (Run (n, kids))
  in
  list_size (int_range 1 4) (int_bound 3 >>= prog)

let rec print_prog (Run (n, kids)) =
  if kids = [] then n else n ^ "(" ^ String.concat " " (List.map print_prog kids) ^ ")"

let rec run_prog (Run (n, kids)) = Obs.span n (fun () -> List.iter run_prog kids)

(* Per-name sums in the tree's own pre-order, so float totals add in
   the same order as the library's fold and compare exactly. *)
let tree_sums forest =
  let tbl = Hashtbl.create 8 in
  let rec add (n : Obs.span_node) =
    let c, t, mnr, mjr =
      Option.value (Hashtbl.find_opt tbl n.Obs.sn_name) ~default:(0, 0., 0., 0.)
    in
    Hashtbl.replace tbl n.Obs.sn_name
      (c + n.Obs.sn_count, t +. n.Obs.sn_total, mnr +. n.Obs.sn_minor_aw,
       mjr +. n.Obs.sn_major_aw);
    List.iter add n.Obs.sn_children
  in
  List.iter add forest;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let rec paths_consistent parent (n : Obs.span_node) =
  n.Obs.sn_path = parent @ [ n.Obs.sn_name ]
  && List.for_all (paths_consistent n.Obs.sn_path) n.Obs.sn_children

(* The rows of the summary's span table: name, calls, alloc kw. *)
let summary_span_rows text =
  let rec after_header = function
    | [] -> []
    | l :: rest when String.trim l = "spans:" -> (match rest with _ :: rows -> rows | [] -> [])
    | _ :: rest -> after_header rest
  in
  String.split_on_char '\n' text |> after_header
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | [ name; calls; _; _; _; _; _; kw ] -> Some (name, int_of_string calls, kw)
         | _ -> None)

let prop_span_program_sums =
  QCheck.Test.make ~count:200
    ~name:"spans, span_allocs and summary rows are the per-name sums of the span tree"
    (QCheck.make ~print:(fun f -> String.concat " " (List.map print_prog f)) gen_span_forest)
    (fun forest ->
      with_metrics (fun () ->
          List.iter run_prog forest;
          let tree = Obs.span_tree () in
          let sums = tree_sums tree in
          let snap = Obs.Snapshot.capture () in
          let rec calls acc (Run (n, kids)) =
            List.fold_left calls
              ((n, 1 + Option.value (List.assoc_opt n acc) ~default:0) :: List.remove_assoc n acc)
              kids
          in
          let program_calls = List.sort compare (List.fold_left calls [] forest) in
          let summary = Format.asprintf "%a" Obs.pp_summary snap in
          List.map (fun (n, (c, _, _, _)) -> (n, c)) sums = program_calls
          && Obs.spans () = List.map (fun (n, (c, t, _, _)) -> (n, c, t)) sums
          && Obs.span_allocs () = List.map (fun (n, (_, _, mnr, mjr)) -> (n, mnr, mjr)) sums
          && summary_span_rows summary
             = List.map
                 (fun (n, (c, _, mnr, mjr)) -> (n, c, Printf.sprintf "%.1f" ((mnr +. mjr) /. 1e3)))
                 sums
          && List.for_all (paths_consistent []) tree
          &&
          match Obs.Snapshot.of_json_string (Obs.Snapshot.to_json snap) with
          | Ok back -> back = snap && List.for_all (paths_consistent []) back.Obs.Snapshot.spans
          | Error _ -> false))

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    [ prop_instrumentation_transparent; prop_bucket_partition; prop_histogram_merge;
      prop_snapshot_v2_roundtrip; prop_span_program_sums ]

let () =
  Alcotest.run "pak_obs"
    [ ( "counters",
        [ Alcotest.test_case "basics" `Quick test_counter_basics;
          Alcotest.test_case "spans" `Quick test_span_stats
        ] );
      ( "histograms",
        [ Alcotest.test_case "basics" `Quick test_histogram_basics;
          Alcotest.test_case "span feeds histogram" `Quick test_span_feeds_histogram;
          Alcotest.test_case "percentile domain" `Quick test_percentile_domain
        ] );
      ( "span tree",
        [ Alcotest.test_case "nesting and counts" `Quick test_span_tree;
          Alcotest.test_case "engine run invariant" `Quick test_span_tree_engine
        ] );
      ( "alloc",
        [ Alcotest.test_case "span attribution and kill switch" `Quick test_span_alloc;
          Alcotest.test_case "coverage of process minor words" `Quick test_alloc_coverage
        ] );
      ( "gauges",
        [ Alcotest.test_case "provider polled" `Quick test_gauges;
          Alcotest.test_case "built-in gc gauges" `Quick test_gc_gauges
        ] );
      ( "snapshot",
        [ Alcotest.test_case "json round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "file round-trip" `Quick test_snapshot_file_roundtrip;
          Alcotest.test_case "diff fixtures" `Quick test_diff_fixtures;
          Alcotest.test_case "alloc regression gate" `Quick test_diff_alloc_regression;
          Alcotest.test_case "v1 fixture parse-back" `Quick test_v1_fixture_parses;
          Alcotest.test_case "diff_capture attribution" `Quick test_diff_capture_attribution;
          Alcotest.test_case "diff_capture span leakage" `Quick
            test_diff_capture_no_span_leakage
        ] );
      ( "semantics",
        [ Alcotest.test_case "memo counters" `Quick test_memo_counters;
          Alcotest.test_case "fixpoint determinism" `Quick test_fixpoint_determinism
        ] );
      ( "trace",
        [ Alcotest.test_case "emit + validate" `Quick test_trace_file;
          Alcotest.test_case "validator rejects garbage" `Quick test_validate_rejects_garbage;
          Alcotest.test_case "gauge sample interval" `Quick test_gauge_sample_interval;
          Alcotest.test_case "trace context" `Quick test_trace_context
        ] );
      ( "series",
        [ Alcotest.test_case "deltas telescope" `Quick test_series_deltas_telescope
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "render passes check" `Quick test_openmetrics_render_checks;
          Alcotest.test_case "hostile names sanitized" `Quick test_openmetrics_sanitizes_names;
          Alcotest.test_case "check rejects bad text" `Quick test_openmetrics_check_rejects
        ] );
      ( "flamegraph",
        [ Alcotest.test_case "collapsed stacks" `Quick test_flamegraph_collapsed_stacks ] );
      ("properties", qcheck_cases);
      ( "golden",
        [ Alcotest.test_case "summary" `Quick test_golden_summary;
          Alcotest.test_case "span tree" `Quick test_golden_span_tree;
          Alcotest.test_case "alloc report" `Quick test_golden_alloc_report;
          Alcotest.test_case "flamegraph" `Quick test_golden_flamegraph;
          Alcotest.test_case "openmetrics" `Quick test_golden_openmetrics
        ] )
    ]
