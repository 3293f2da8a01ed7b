(* Tests for pak_serve: the frame codec's round-trip and resync
   behavior, per-request budget isolation, backpressure shedding,
   graceful degradation to marked estimates, result-cache identity,
   the protocol-error/recovery and shutdown semantics, request-scoped
   trace ids, the (op metrics) exposition and the streaming-telemetry
   side channel — all in-process through Serve.run_string. *)

open Pak_rational
open Pak_pps
open Pak_logic
module Obs = Pak_obs.Obs
module Budget = Pak_guard.Budget
module Graded = Pak_guard.Graded
module Serve = Pak_serve.Serve
module Belief = Pak_pps.Belief

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Serve counters are Obs counters: enable metrics around a run and
   read deltas off the new Snapshot.diff_capture, restoring the null
   sink afterwards so tests cannot leak global state. *)
let with_metrics f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let delta snapshot name =
  match List.assoc_opt name snapshot.Obs.Snapshot.counters with
  | Some n -> n
  | None -> 0

let fig1 = lazy (Pak_systems.Figure_one.tree ())
let doc1 = lazy (Tree_io.to_string (Lazy.force fig1))

let request ?(extras = []) ~id ~op ~formula () =
  let open Serve.Sexp in
  let field k v = List [ Atom k; v ] in
  to_string
    (List
       (Atom "request"
       :: field "id" (Atom (string_of_int id))
       :: field "op" (Atom op)
       :: field "system" (Str (Lazy.force doc1))
       :: field "formula" (Str formula)
       :: extras))

let ping id = Printf.sprintf "(ping (id %d))" id

let run ?config payloads =
  let input = String.concat "" (List.map Serve.Frame.encode payloads) in
  Serve.run_string ?config input

let collect_frames out =
  let reader = Serve.Frame.reader (Serve.Frame.source_of_string out) in
  let rec go acc =
    match Serve.Frame.read reader with
    | Serve.Frame.Eof -> List.rev acc
    | Serve.Frame.Payload p -> go (p :: acc)
    | Serve.Frame.Junk _ -> Alcotest.fail "junk in output"
  in
  go []

(* Split a response frame into its trace id and the rendering with the
   trace field removed, so tests can compare responses modulo the
   (per-request, hence necessarily differing) id. *)
let split_trace resp =
  match Serve.Sexp.parse resp with
  | Ok (Serve.Sexp.List (Serve.Sexp.Atom "response" :: fields)) ->
    let trace = ref None in
    let rest =
      List.filter
        (function
          | Serve.Sexp.List [ Serve.Sexp.Atom "trace"; Serve.Sexp.Atom t ] ->
            trace := Some t;
            false
          | _ -> true)
        fields
    in
    (!trace, Serve.Sexp.to_string (Serve.Sexp.List (Serve.Sexp.Atom "response" :: rest)))
  | _ -> (None, resp)

let is_trace_id t =
  String.length t = 16
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) t

(* Remove every " (trace <id>)" field from a rendered stream so
   assertions about adjacent (id N) (code M) fields stay readable. *)
let sans_traces s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let pre = " (trace " in
  let plen = String.length pre in
  let i = ref 0 in
  while !i < n do
    if !i + plen <= n && String.sub s !i plen = pre then
      match String.index_from_opt s (!i + plen) ')' with
      | Some j -> i := j + 1
      | None ->
        Buffer.add_char b s.[!i];
        incr i
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let gen_payload =
  QCheck.string_of_size (QCheck.Gen.int_range 0 300)

let test_frame_roundtrip =
  QCheck.Test.make ~count:200 ~name:"frame encode/read round-trip"
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) gen_payload) (fun payloads ->
      let stream = String.concat "" (List.map Serve.Frame.encode payloads) in
      let reader = Serve.Frame.reader (Serve.Frame.source_of_string stream) in
      let rec go acc =
        match Serve.Frame.read reader with
        | Serve.Frame.Eof -> List.rev acc
        | Serve.Frame.Payload p -> go (p :: acc)
        | Serve.Frame.Junk _ -> acc (* forces the inequality below *)
      in
      go [] = payloads)

let test_frame_junk () =
  let stream =
    Serve.Frame.encode "(a)" ^ "!!garbage!!" ^ Serve.Frame.encode "(b)"
  in
  let reader = Serve.Frame.reader (Serve.Frame.source_of_string stream) in
  check_bool "first payload" true (Serve.Frame.read reader = Serve.Frame.Payload "(a)");
  (match Serve.Frame.read reader with
  | Serve.Frame.Junk (Serve.Frame.Garbage n) -> check_int "garbage bytes" 11 n
  | _ -> Alcotest.fail "expected Garbage junk");
  check_bool "resynced payload" true (Serve.Frame.read reader = Serve.Frame.Payload "(b)");
  check_bool "eof" true (Serve.Frame.read reader = Serve.Frame.Eof)

let test_frame_truncated_and_oversized () =
  let reader =
    Serve.Frame.reader (Serve.Frame.source_of_string "pak1 4096\ntoo short")
  in
  check_bool "truncated" true
    (Serve.Frame.read reader = Serve.Frame.Junk Serve.Frame.Truncated);
  check_bool "eof after truncation" true (Serve.Frame.read reader = Serve.Frame.Eof);
  let big = String.make 200 'z' in
  let stream = Serve.Frame.encode big ^ Serve.Frame.encode "(ok)" in
  let reader = Serve.Frame.reader ~max_frame:64 (Serve.Frame.source_of_string stream) in
  (match Serve.Frame.read reader with
  | Serve.Frame.Junk (Serve.Frame.Oversized n) -> check_int "declared length" 200 n
  | _ -> Alcotest.fail "expected Oversized junk");
  check_bool "frame after oversized payload skipped" true
    (Serve.Frame.read reader = Serve.Frame.Payload "(ok)")

(* A complete frame shorter than the longest possible header is
   answered from the bytes already read: the source is not asked again
   (a blocking pipe would stall the reply until more input or EOF). *)
let test_frame_short_no_wait () =
  let calls = ref 0 in
  let source buf pos len =
    incr calls;
    if !calls > 1 then Alcotest.fail "source read again after a complete frame";
    let frame = "pak1 6\n(ping)" in
    let n = min len (String.length frame) in
    Bytes.blit_string frame 0 buf pos n;
    n
  in
  let reader = Serve.Frame.reader source in
  check_bool "payload" true (Serve.Frame.read reader = Serve.Frame.Payload "(ping)");
  check_int "one source call" 1 !calls

(* ------------------------------------------------------------------ *)
(* Request isolation, shedding, degradation, caching                   *)
(* ------------------------------------------------------------------ *)

let test_budget_isolation () =
  (* A doomed fixpoint query must fail alone: the same query without
     the cap, later in the same server run, still succeeds. *)
  let doomed =
    request ~id:1 ~op:"eval" ~formula:"CB[0]>=1/2 a0_g0"
      ~extras:[ Serve.Sexp.List [ Serve.Sexp.Atom "max-iters"; Serve.Sexp.Atom "0" ] ]
      ()
  in
  let fine = request ~id:2 ~op:"eval" ~formula:"CB[0]>=1/2 a0_g0" () in
  let out, code = run [ doomed; fine ] in
  let out = sans_traces out in
  check_int "clean drain" 0 code;
  check_bool "doomed is a typed budget error" true
    (contains out "(id 1) (code 4)" && contains out "budget-exceeded");
  check_bool "same query later succeeds" true (contains out "(id 2) (code 0) (status ok)")

let test_shed_at_capacity () =
  let cfg = { Serve.default_config with Serve.max_pending = 2; retry_after_ms = 9 } in
  let members =
    List.init 5 (fun j ->
        (* distinct thresholds: no result-cache interference *)
        Printf.sprintf "B[0]>=%d/1000 a0_g0" (j + 1))
  in
  let batch =
    let open Serve.Sexp in
    to_string
      (List
         (Atom "batch"
         :: List.mapi
              (fun j f ->
                match Serve.Sexp.parse (request ~id:(10 + j) ~op:"eval" ~formula:f ())
                with
                | Ok sx -> sx
                | Error e -> Alcotest.fail e)
              members))
  in
  with_metrics (fun () ->
      let (out, code), snap =
        Obs.Snapshot.diff_capture (fun () -> run ~config:cfg [ batch ])
      in
      let out = sans_traces out in
      check_int "clean drain" 0 code;
      check_int "three shed" 3 (delta snap "serve.shed");
      check_bool "first two answered" true
        (contains out "(id 10) (code 0)" && contains out "(id 11) (code 0)");
      List.iter
        (fun id ->
          check_bool
            (Printf.sprintf "id %d overloaded" id)
            true
            (contains out
               (Printf.sprintf "(id %d) (code 4) (status overloaded) (retry-after-ms 9)" id)))
        [ 12; 13; 14 ])

(* Size a points budget to exactly what the formula eval spends, so
   the eval succeeds and the first conditional measure inside
   Belief.degree busts (Q's small-int fast path keeps these fractions
   away from the limb counter entirely). *)
let eval_points_spend tree formula =
  match
    Budget.with_budget
      (Budget.limits ~max_points:max_int ())
      (fun () ->
        ignore (Semantics.eval tree ~valuation:Semantics.generic_valuation
                  (Parser.parse formula));
        List.assoc "points" (Budget.spent ()))
  with
  | Ok n -> n
  | Error _ -> Alcotest.fail "spend probe busted"

let test_degraded_identity () =
  let tree = Lazy.force fig1 in
  let spend = eval_points_spend tree "a0_g1" in
  let samples = 300 and seed = 42 in
  let open Serve.Sexp in
  let num n = List [ Atom n.(0); Atom n.(1) ] in
  let req =
    request ~id:5 ~op:"belief" ~formula:"a0_g1"
      ~extras:
        [ num [| "agent"; "0" |]; num [| "run"; "0" |]; num [| "time"; "0" |];
          num [| "samples"; string_of_int samples |];
          num [| "seed"; string_of_int seed |];
          num [| "max-points"; string_of_int spend |]
        ]
      ()
  in
  (* Warm the parsed-system cache first: document parsing charges the
     points budget too, and the sized budget accounts only for the
     eval (the soak harness warms the cache the same way). *)
  let warm = request ~id:4 ~op:"eval" ~formula:"a0_g0" () in
  let out, code = run [ warm; ping 9; req ] in
  let out = sans_traces out in
  check_int "clean drain" 0 code;
  (* The server's answer must be the exact rendering of the direct
     degraded computation under the same per-request budget. *)
  let expected =
    match
      Budget.with_budget
        (Budget.limits ~max_points:spend ())
        (fun () ->
          let fact =
            Semantics.eval tree ~valuation:Semantics.generic_valuation
              (Parser.parse "a0_g1")
          in
          Belief.degree_graded ~samples ~seed fact ~agent:0 ~run:0 ~time:0)
    with
    | Ok (Graded.Estimated { value; samples }) ->
      Printf.sprintf "(id 5) (code 0) (status estimated) (result (degree %s) (samples %d))"
        (Q.to_string value) samples
    | Ok (Graded.Exact _) -> Alcotest.fail "direct computation stayed exact"
    | Error _ -> Alcotest.fail "direct computation failed"
  in
  check_bool "ESTIMATED and identical to the direct fallback" true (contains out expected)

let test_cache_hit_identical () =
  (* The same request twice (same id, so the whole response frame is
     comparable): the second must be a cache hit and byte-identical
     modulo the trace id, which is scoped to the request — not the
     cached result — and so must differ. *)
  let req = request ~id:7 ~op:"eval" ~formula:"K[0] a0_g0" () in
  with_metrics (fun () ->
      let (out, code), snap =
        Obs.Snapshot.diff_capture (fun () -> run [ req; ping 1; req ])
      in
      check_int "clean drain" 0 code;
      check_int "one miss" 1 (delta snap "serve.cache.misses");
      check_int "one hit" 1 (delta snap "serve.cache.hits");
      match collect_frames out with
      | [ r1; _pong; r2; _bye ] ->
        let t1, b1 = split_trace r1 and t2, b2 = split_trace r2 in
        check_string "identical responses modulo trace id" b1 b2;
        (match (t1, t2) with
         | Some t1, Some t2 ->
           check_bool "trace ids are 16-hex" true (is_trace_id t1 && is_trace_id t2);
           check_bool "trace ids are per-request, not per-result" true (t1 <> t2)
         | _ -> Alcotest.fail "response without a trace id")
      | other ->
        Alcotest.fail (Printf.sprintf "expected 4 output frames, got %d" (List.length other)))

(* ------------------------------------------------------------------ *)
(* Request-scoped trace ids, (op metrics), streaming telemetry         *)
(* ------------------------------------------------------------------ *)

let test_trace_ids_deterministic () =
  (* Trace ids are a pure function of the input byte stream: distinct
     per request, byte-identical across runs and across --jobs. *)
  let payloads =
    [ request ~id:1 ~op:"eval" ~formula:"a0_g0" ();
      ping 2;
      request ~id:3 ~op:"eval" ~formula:"K[0] a0_g0" ()
    ]
  in
  let at jobs = run ~config:{ Serve.default_config with Serve.jobs } payloads in
  let out1, code1 = at 1 in
  let out4, code4 = at 4 in
  check_int "clean drain at jobs 1" 0 code1;
  check_int "clean drain at jobs 4" 0 code4;
  check_string "output (trace ids included) is jobs-invariant" out1 out4;
  let out1', _ = at 1 in
  check_string "output is run-invariant" out1 out1';
  let traces =
    List.filter_map (fun f -> fst (split_trace f)) (collect_frames out1)
  in
  check_int "both responses carry trace ids" 2 (List.length traces);
  check_bool "well-formed ids" true (List.for_all is_trace_id traces);
  check_bool "ids are distinct" true
    (match traces with [ a; b ] -> a <> b | _ -> false)

let test_op_metrics () =
  (* (op metrics) needs no system/formula, answers with an OpenMetrics
     exposition that passes the grammar check, and is never cached. *)
  let metrics id = Printf.sprintf "(request (id %d) (op metrics))" id in
  let eval = request ~id:1 ~op:"eval" ~formula:"a0_g0" () in
  with_metrics (fun () ->
      let (out, code), snap =
        Obs.Snapshot.diff_capture (fun () -> run [ eval; metrics 2; metrics 3 ])
      in
      check_int "clean drain" 0 code;
      check_int "metrics requests never hit the cache" 0 (delta snap "serve.cache.hits");
      match collect_frames out with
      | [ _r1; m1; _m2; _bye ] ->
        check_bool "metrics response is ok" true
          (contains (sans_traces m1) "(id 2) (code 0) (status ok)");
        (match Serve.Sexp.parse m1 with
         | Ok sx ->
           let rec find_exposition = function
             | Serve.Sexp.List [ Serve.Sexp.Atom "openmetrics"; Serve.Sexp.Str text ] ->
               Some text
             | Serve.Sexp.List xs -> List.find_map find_exposition xs
             | _ -> None
           in
           (match find_exposition sx with
            | None -> Alcotest.fail "no (openmetrics \"...\") payload in response"
            | Some text ->
              (match Obs.Openmetrics.check text with
               | Ok () -> ()
               | Error e -> Alcotest.fail ("exposition rejected: " ^ e));
              check_bool "exposition reports the serve counters" true
                (contains text "pak_serve_requests_total"))
         | Error e -> Alcotest.fail ("metrics response does not parse: " ^ e))
      | other ->
        Alcotest.fail (Printf.sprintf "expected 4 output frames, got %d" (List.length other)))

let test_op_status () =
  (* (op status) is introspection: answered synchronously at enqueue,
     never cached, ticking the logical frame clock. *)
  let status id = Printf.sprintf "(request (id %d) (op status))" id in
  let eval = request ~id:1 ~op:"eval" ~formula:"a0_g0" () in
  with_metrics (fun () ->
      let (out, code), snap =
        Obs.Snapshot.diff_capture (fun () -> run [ eval; status 2; status 3 ])
      in
      check_int "clean drain" 0 code;
      check_int "status never hits the cache" 0 (delta snap "serve.cache.hits");
      check_bool "status answers are counted as requests" true
        (delta snap "serve.requests" >= 3);
      match collect_frames out with
      | [ _r1; s1; s2; _bye ] ->
        check_bool "status response is ok" true
          (contains (sans_traces s1) "(id 2) (code 0) (status ok)");
        check_bool "uptime ticks the payload-frame clock" true
          (contains s1 "(uptime-ticks 2)");
        check_bool "a later status reports a later tick" true
          (contains s2 "(uptime-ticks 3)");
        check_bool "no journal configured reads (journal none)" true
          (contains s1 "(journal none)");
        check_bool "cache occupancy reported" true
          (contains s1 "(cache (entries 1) (capacity 256) (hits 0) (misses 1)");
        check_bool "latency percentiles quarantined under (metrics ...)" true
          (contains s1 "(metrics (latencies" && contains s1 "serve.request")
      | other ->
        Alcotest.fail (Printf.sprintf "expected 4 output frames, got %d" (List.length other)))

let test_op_status_pending () =
  (* Status is answered at enqueue, before the batch drains: inside a
     (batch eval eval status) it must see both evaluations pending. *)
  let batch =
    let open Serve.Sexp in
    let r id f =
      match parse (request ~id ~op:"eval" ~formula:f ()) with
      | Ok sx -> sx
      | Error e -> Alcotest.fail e
    in
    to_string
      (List
         [ Atom "batch";
           r 1 "B[0]>=1/1000 a0_g0";
           r 2 "B[0]>=2/1000 a0_g0";
           List [ Atom "request"; List [ Atom "id"; Atom "3" ]; List [ Atom "op"; Atom "status" ] ]
         ])
  in
  let out, code = run [ batch ] in
  check_int "clean drain" 0 code;
  check_bool "status sees both queued evaluations" true (contains out "(pending 2)");
  check_bool "and both still get answered" true
    (let out = sans_traces out in
     contains out "(id 1) (code 0)" && contains out "(id 2) (code 0)")

let test_op_status_jobs_invariant () =
  (* With the drain cadence pinned (--batch 1; the default 0 means
     "batch = jobs") and metrics disabled, the status body — pending
     depth, response counts, cache occupancy — is a pure function of
     the input stream, so the whole output is byte-identical at every
     --jobs, trace ids included. *)
  let status id = Printf.sprintf "(request (id %d) (op status))" id in
  let payloads =
    [ request ~id:1 ~op:"eval" ~formula:"a0_g0" ();
      request ~id:2 ~op:"eval" ~formula:"K[0] a0_g0" ();
      status 3;
      request ~id:4 ~op:"eval" ~formula:"a0_g0" ();
      status 5
    ]
  in
  let at jobs =
    run ~config:{ Serve.default_config with Serve.jobs; batch = 1 } payloads
  in
  let out1, code1 = at 1 in
  let out4, code4 = at 4 in
  check_int "clean drain at jobs 1" 0 code1;
  check_int "clean drain at jobs 4" 0 code4;
  check_string "status output is byte-identical across --jobs" out1 out4;
  check_bool "second status saw the cache hit" true
    (contains out1 "(hits 1)")

let test_status_journal_position () =
  (* With a recorder attached, status reports the journal position —
     and the position it reports is the sink's at the moment the
     status itself is journaled (the request record is already in). *)
  let positions = ref [] in
  let bytes = ref 0 in
  let sink =
    { Pak_journal.Journal.emit =
        (fun e -> bytes := !bytes + String.length (Pak_journal.Journal.encode_entry e));
      position =
        (fun () ->
          positions := !bytes :: !positions;
          !bytes);
      rotations = (fun () -> 0)
    }
  in
  let cfg = { Serve.default_config with Serve.journal = Some sink } in
  let out, code = run ~config:cfg [ "(request (id 1) (op status))" ] in
  check_int "clean drain" 0 code;
  check_bool "status reports the live position" true
    (match !positions with
     | p :: _ -> contains out (Printf.sprintf "(journal (position %d)" p)
     | [] -> false);
  check_bool "rotations reported" true (contains out "(rotations 0)")

let telemetry_run ~jobs ~every payloads =
  let frames = ref [] in
  let cfg =
    { Serve.default_config with
      Serve.jobs;
      telemetry_every = every;
      telemetry = Some (fun line -> frames := line :: !frames)
    }
  in
  let out, code = run ~config:cfg payloads in
  (out, code, List.rev !frames)

let telemetry_payloads =
  lazy
    (List.init 5 (fun j ->
         (* distinct thresholds: five real evaluations, no cache hits *)
         request ~id:(20 + j) ~op:"eval"
           ~formula:(Printf.sprintf "B[0]>=%d/1000 a0_g0" (j + 1))
           ()))

let test_telemetry_frames_telescope () =
  let payloads = Lazy.force telemetry_payloads in
  with_metrics (fun () ->
      let (_, code, frames), snap =
        Obs.Snapshot.diff_capture (fun () -> telemetry_run ~jobs:2 ~every:2 payloads)
      in
      check_int "clean drain" 0 code;
      (* 5 requests at --telemetry-every 2: frames after requests 2 and
         4, plus the final frame at shutdown. *)
      check_int "three frames" 3 (List.length frames);
      let field name = function
        | Obs.Json.Obj fields -> List.assoc_opt name fields
        | _ -> None
      in
      let parsed = List.map Obs.Json.parse frames in
      List.iter
        (fun j ->
          check_bool "frame is marked" true (field "telemetry" j = Some (Obs.Json.Num 1.));
          check_bool "frame has a seq" true (field "seq" j <> None);
          check_bool "no drain-cadence counter in a frame" true
            (match field "counters" j with
             | Some (Obs.Json.Obj rows) -> not (List.mem_assoc "serve.drains" rows)
             | _ -> false);
          check_bool "no drain-cadence histogram in a frame" true
            (match field "histogram_totals" j with
             | Some (Obs.Json.Obj rows) -> not (List.mem_assoc "serve.drain" rows)
             | _ -> false))
        parsed;
      (* The deltas telescope: summed per-frame increments equal the
         run's total for every kept counter. *)
      let summed name =
        List.fold_left
          (fun acc j ->
            match field "counters" j with
            | Some (Obs.Json.Obj rows) -> (
                match List.assoc_opt name rows with
                | Some (Obs.Json.Num v) -> acc + int_of_float v
                | _ -> acc)
            | _ -> acc)
          0 parsed
      in
      List.iter
        (fun name ->
          check_int ("frame deltas telescope to the run total: " ^ name)
            (delta snap name) (summed name))
        [ "serve.requests"; "serve.responses"; "serve.frames"; "serve.cache.misses" ];
      match List.rev parsed with
      | last :: _ ->
        check_bool "final frame reports all requests" true
          (field "requests" last = Some (Obs.Json.Num 5.))
      | [] -> ())

let test_telemetry_jobs_invariant () =
  (* The telemetry side channel is part of the determinism contract:
     the frame stream is byte-identical at every --jobs (the
     drain-cadence metrics, the only jobs-dependent ones, are excluded
     from frames). *)
  let payloads = Lazy.force telemetry_payloads in
  let _, code1, frames1 = telemetry_run ~jobs:1 ~every:2 payloads in
  let _, code4, frames4 = telemetry_run ~jobs:4 ~every:2 payloads in
  check_int "clean drain at jobs 1" 0 code1;
  check_int "clean drain at jobs 4" 0 code4;
  check_string "telemetry frames are byte-identical across --jobs"
    (String.concat "\n" frames1)
    (String.concat "\n" frames4)

let test_protocol_error_recovery () =
  let input =
    Serve.Frame.encode (ping 1) ^ "@@ not a frame @@" ^ Serve.Frame.encode (ping 2)
  in
  with_metrics (fun () ->
      let (out, code), snap =
        Obs.Snapshot.diff_capture (fun () -> Serve.run_string input)
      in
      check_int "clean drain" 0 code;
      check_int "one protocol error" 1 (delta snap "serve.errors.protocol");
      check_bool "typed protocol response" true
        (contains out "(id -1) (code 3)" && contains out "(kind protocol)");
      check_bool "both pings answered" true
        (contains out "(pong (id 1))" && contains out "(pong (id 2))"))

let test_shutdown_semantics () =
  let out, code =
    run [ ping 1; "(shutdown)"; ping 2 ]
  in
  check_int "clean drain" 0 code;
  check_bool "pong before shutdown" true (contains out "(pong (id 1))");
  check_bool "bye frame" true (contains out "(bye (reason shutdown))");
  check_bool "frames after shutdown ignored" false (contains out "(pong (id 2))")

let test_bad_requests () =
  let bad_op = request ~id:1 ~op:"frobnicate" ~formula:"a0_g0" () in
  let bad_formula = request ~id:2 ~op:"eval" ~formula:"K[0" () in
  let bad_system =
    "(request (id 3) (op eval) (system \"(pps\") (formula \"a0_g0\"))"
  in
  let out, code = run [ bad_op; bad_formula; bad_system ] in
  let out = sans_traces out in
  check_int "clean drain" 0 code;
  check_bool "unknown op is code 2" true
    (contains out "(id 1) (code 2)" && contains out "(kind request)");
  check_bool "bad formula is code 3 parse" true
    (contains out "(id 2) (code 3)" && contains out "(kind parse)");
  check_bool "bad system is code 3" true (contains out "(id 3) (code 3)")

let test_validate_config () =
  let bad cfg = Result.is_error (Serve.validate_config cfg) in
  check_bool "default ok" true (Serve.validate_config Serve.default_config = Ok ());
  check_bool "jobs < 1" true (bad { Serve.default_config with Serve.jobs = 0 });
  check_bool "max_pending < 1" true
    (bad { Serve.default_config with Serve.max_pending = 0 });
  check_bool "server-level zero budget" true
    (bad
       { Serve.default_config with
         Serve.limits = Budget.limits ~timeout_ms:0 ()
       });
  check_bool "tiny max_frame" true (bad { Serve.default_config with Serve.max_frame = 8 });
  check_bool "negative telemetry_every" true
    (bad { Serve.default_config with Serve.telemetry_every = -1 });
  check_bool "telemetry_every without a sink" true
    (bad { Serve.default_config with Serve.telemetry_every = 4 });
  check_bool "telemetry_every with a sink ok" true
    (Serve.validate_config
       { Serve.default_config with
         Serve.telemetry_every = 4;
         telemetry = Some ignore
       }
    = Ok ())

let () =
  Alcotest.run "pak_serve"
    [ ( "frame",
        [ QCheck_alcotest.to_alcotest test_frame_roundtrip;
          Alcotest.test_case "junk and resync" `Quick test_frame_junk;
          Alcotest.test_case "truncated and oversized" `Quick
            test_frame_truncated_and_oversized;
          Alcotest.test_case "short frame answered at once" `Quick test_frame_short_no_wait
        ] );
      ( "server",
        [ Alcotest.test_case "budget isolation" `Quick test_budget_isolation;
          Alcotest.test_case "shed at capacity" `Quick test_shed_at_capacity;
          Alcotest.test_case "degraded identity" `Quick test_degraded_identity;
          Alcotest.test_case "cache hit identical" `Quick test_cache_hit_identical;
          Alcotest.test_case "trace ids deterministic" `Quick test_trace_ids_deterministic;
          Alcotest.test_case "op metrics" `Quick test_op_metrics;
          Alcotest.test_case "op status" `Quick test_op_status;
          Alcotest.test_case "op status pending" `Quick test_op_status_pending;
          Alcotest.test_case "op status jobs-invariant" `Quick
            test_op_status_jobs_invariant;
          Alcotest.test_case "status journal position" `Quick
            test_status_journal_position;
          Alcotest.test_case "telemetry frames telescope" `Quick
            test_telemetry_frames_telescope;
          Alcotest.test_case "telemetry jobs-invariant" `Quick
            test_telemetry_jobs_invariant;
          Alcotest.test_case "protocol error recovery" `Quick test_protocol_error_recovery;
          Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
          Alcotest.test_case "bad requests" `Quick test_bad_requests;
          Alcotest.test_case "validate config" `Quick test_validate_config
        ] )
    ]
