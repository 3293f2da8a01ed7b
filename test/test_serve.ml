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

let request ?(extras = []) ?(system = doc1) ~id ~op ~formula () =
  let open Serve.Sexp in
  let field k v = List [ Atom k; v ] in
  to_string
    (List
       (Atom "request"
       :: field "id" (Atom (string_of_int id))
       :: field "op" (Atom op)
       :: field "system" (Str (Lazy.force system))
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

(* [Serve.Sexp.parse] against [Sexp_oracle], the token-list parser it
   replaced: the same value or the same error text. *)
let show_sexp = function
  | Ok v -> "Ok " ^ Serve.Sexp.to_string v
  | Error m -> "Error " ^ m

let same_sexp input =
  let a = Serve.Sexp.parse input and b = Sexp_oracle.parse input in
  if a <> b then
    QCheck.Test.fail_reportf "input %S@.parse:  %s@.oracle: %s" input (show_sexp a)
      (show_sexp b);
  true

let gen_frame_bytes =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ '('; ')'; '"'; '\\'; ' '; '\n'; 'a'; 'b'; '1' ]) (int_range 0 60))

let test_sexp_random =
  QCheck.Test.make ~count:3000 ~name:"Sexp.parse matches the oracle on random frames"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_frame_bytes)
    same_sexp

(* Request frames quoting Gen documents, so every label quote is
   escaped; half are cut short or gain a stray byte. *)
let test_sexp_requests =
  QCheck.Test.make ~count:100 ~name:"Sexp.parse matches the oracle on request frames"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 3))
    (fun (seed, edit) ->
      let params = { Gen.default_params with Gen.depth = 1 + (seed mod 4) } in
      let doc = Tree_io.to_string (Gen.tree ~params seed) in
      let open Serve.Sexp in
      let frame =
        to_string
          (List
             [ Atom "request"; List [ Atom "id"; Atom (string_of_int seed) ];
               List [ Atom "system"; Str doc ]; List [ Atom "formula"; Str "K[0] a0_s1_0" ] ])
      in
      let at = seed mod String.length frame in
      let frame =
        match edit with
        | 0 -> frame
        | 1 -> String.sub frame 0 at
        | 2 -> String.sub frame 0 at ^ "\\" ^ String.sub frame at (String.length frame - at)
        | _ -> String.sub frame 0 at ^ ")" ^ String.sub frame at (String.length frame - at)
      in
      (edit <> 0 || Result.is_ok (Serve.Sexp.parse frame)) && same_sexp frame)

(* Every one-byte delete, double or replace of a small batch frame. *)
let test_sexp_byte_edits () =
  let frame = {|(batch (request (id 1) (op eval) (system "(pps \"a\\\")") (formula "x")) (ping))|} in
  let n = String.length frame in
  for i = 0 to n - 1 do
    let pre = String.sub frame 0 i and post = String.sub frame (i + 1) (n - i - 1) in
    ignore (same_sexp (pre ^ post));
    ignore (same_sexp (pre ^ String.make 2 frame.[i] ^ post));
    List.iter
      (fun c -> ignore (same_sexp (pre ^ String.make 1 c ^ post)))
      [ '('; ')'; '"'; '\\'; ' '; 'x' ]
  done

(* The nesting cap is 200 lists; a lexical error after the cap still
   wins, and trailing data waits on the rest being lexed. *)
let test_sexp_nesting () =
  let nest d = String.make d '(' ^ String.make d ')' in
  List.iter
    (fun (d, want) ->
      check_string (Printf.sprintf "depth %d" d) want (show_sexp (Serve.Sexp.parse (nest d)));
      List.iter
        (fun tail -> ignore (same_sexp (nest d ^ tail)))
        [ ""; " \""; " \"\\"; " x"; " ("; " )" ])
    [ (199, "Ok " ^ nest 199); (200, "Ok " ^ nest 200); (201, "Error nesting too deep") ]

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

(* Every setting's bound, from the table: at [min] the config is
   accepted; one below it is rejected by an error naming the flag. *)
let test_validate_each_setting () =
  check_int "thirteen settings" 13 (List.length Serve.settings);
  List.iter
    (fun (s : Serve.setting) ->
      let at v = Serve.validate_config (s.set Serve.default_config (Some v)) in
      check_bool (s.name ^ " at its bound") true (at s.min = Ok ());
      match at (s.min - 1) with
      | Ok () -> Alcotest.fail (s.name ^ " below its bound accepted")
      | Error m ->
        check_bool (s.name ^ " error names --" ^ s.name ^ ": " ^ m) true
          (contains m ("--" ^ s.name ^ " ")))
    Serve.settings

(* The (op status) latency block, rendered from a snapshot with known
   buckets: quantiles are the 0.5/0.9/0.99 fractions, interpolated
   inside their buckets, so p50 < p90 < p99 where the samples spread. *)
let test_status_latencies () =
  let hist cells =
    let counts = Array.make Obs.n_buckets 0 in
    List.iter (fun (b, c) -> counts.(b) <- c) cells;
    counts
  in
  let snap =
    { Obs.Snapshot.version = Obs.Snapshot.schema_version;
      counters = [ ("serve.requests", 11) ];
      gauges = [];
      histograms =
        [ ("eval", hist [ (11, 4) ]);
          ("serve.drain", hist [ (5, 1) ]);
          ("serve.idle", hist []);
          ("serve.request", hist [ (10, 3); (12, 5); (20, 3) ])
        ];
      spans = []
    }
  in
  check_string "rows, counts and p50/p90/p99"
    " (metrics (latencies (serve.drain (count 1) (p50-ns 31) (p90-ns 31) (p99-ns 31)) \
     (serve.idle (count 0) (p50-ns 0) (p90-ns 0) (p99-ns 0)) \
     (serve.request (count 11) (p50-ns 3276) (p90-ns 873813) (p99-ns 1048575))))"
    (Serve.status_latencies snap)

let test_status_latencies_golden () =
  match Obs.Snapshot.of_file "fixtures/snapshot_v2.json" with
  | Error msg -> Alcotest.fail ("v2 fixture rejected: " ^ msg)
  | Ok snap ->
    check_string "fixtures/snapshot_v2.status.txt"
      (In_channel.with_open_bin "fixtures/snapshot_v2.status.txt" In_channel.input_all)
      (Serve.status_latencies snap ^ "\n")

(* ------------------------------------------------------------------ *)
(* One parse per request: closure builds, long formulas, cache keys    *)
(* ------------------------------------------------------------------ *)

let field k v = Serve.Sexp.(List [ Atom k; Atom v ])
let belief_fields = [ field "agent" "0"; field "run" "1"; field "time" "1" ]

let test_one_closure_per_evaluation () =
  (* Each evaluated request builds one closure, in the evaluator; a
     cache hit, respelled or not, builds none. *)
  let distinct =
    [ request ~id:1 ~op:"eval" ~formula:"a0_g0" ();
      request ~id:2 ~op:"eval" ~formula:"K[0] a0_g0" ();
      request ~id:3 ~op:"eval" ~formula:"CB[0]>=1/2 a0_g0 & !a0_g1" ();
      request ~id:4 ~op:"belief" ~formula:"a0_g1" ~extras:belief_fields ();
      request ~id:5 ~op:"belief" ~formula:"F a0_g1" ~extras:belief_fields ()
    ]
  in
  let repeats =
    [ request ~id:6 ~op:"eval" ~formula:"K[0] a0_g0" ();
      request ~id:7 ~op:"eval" ~formula:"(CB[0] >= 0.5 (a0_g0)) & (!a0_g1)" ();
      request ~id:8 ~op:"belief" ~formula:" a0_g1 " ~extras:belief_fields ()
    ]
  in
  List.iter
    (fun jobs ->
      with_metrics (fun () ->
          let (out, code), snap =
            Obs.Snapshot.diff_capture (fun () ->
                run ~config:{ Serve.default_config with Serve.jobs } (distinct @ repeats))
          in
          check_int "clean drain" 0 code;
          check_bool "all answered ok" false (contains out "(status error)");
          check_int "every repeat hits the cache" (List.length repeats)
            (delta snap "serve.cache.hits");
          check_int "one closure per evaluated request" (List.length distinct)
            (delta snap "closure.builds")))
    [ 1; 4 ]

let test_long_formula () =
  (* A 30,000-term conjunction (a 60 KB frame) is read and evaluated in
     time and memory linear in its length; the request after it is
     answered too and the session ends cleanly. *)
  let long = String.concat "&" (List.init 30_000 (fun _ -> "a")) in
  let out, code =
    run [ request ~id:1 ~op:"eval" ~formula:long (); request ~id:2 ~op:"eval" ~formula:"a0_g0" () ]
  in
  check_int "exit 0" 0 code;
  match List.map sans_traces (collect_frames out) with
  | [ r1; r2; bye ] ->
    check_bool "long formula answered" true (contains r1 "(id 1) (code 0) (status ok)");
    check_bool "next request answered" true (contains r2 "(id 2) (code 0) (status ok)");
    check_string "bye" "(bye (reason eof))" bye
  | other -> Alcotest.fail (Printf.sprintf "expected 3 output frames, got %d" (List.length other))

(* Formulas over a two-agent system, and random spellings of them:
   extra parentheses and whitespace, and each threshold written as
   any of several equal numerals. *)
let fs_doc = lazy (Tree_io.to_string (Pak_systems.Firing_squad.tree Pak_systems.Firing_squad.Original))

let thresholds =
  [| [ "0"; "0/3"; "0.0" ]; [ "1/4"; "2/8"; "0.25" ]; [ "1/3"; "2/6" ];
     [ "1/2"; "0.5"; "2/4"; "0.50" ]; [ "3/4"; "0.75"; "6/8" ]; [ "1"; "1/1"; "1.0" ] |]

let key_atoms = [ "a0_done"; "a1_done"; "p" ]
let key_groups = [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 1; 0 ]; [ 0; 0 ] ]
let key_cmps = Formula.[ Geq; Gt; Leq; Lt; Eq ]
let key_qs = Array.to_list (Array.map (fun l -> Q.of_string (List.hd l)) thresholds)

let gen_key_formula =
  let open QCheck.Gen in
  let agent = int_bound 1 in
  let group = oneofl key_groups and q = oneofl key_qs and cmp = oneofl key_cmps in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         let leaf =
           frequency
             [ (4, map Formula.atom (oneofl key_atoms));
               (1, oneofl Formula.[ True; False ]);
               (1, map2 Formula.does agent (oneofl [ "fire"; "wait" ])) ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           frequency
             [ (1, leaf);
               (2, map Formula.neg sub);
               (3, map2 (fun a b -> Formula.And (a, b)) sub sub);
               (2, map2 (fun a b -> Formula.Or (a, b)) sub sub);
               (1, map2 (fun a b -> Formula.Implies (a, b)) sub sub);
               (1, map2 (fun a b -> Formula.Iff (a, b)) sub sub);
               (2, map2 Formula.k agent sub);
               (2, map4 (fun i c v f -> Formula.Believes (i, c, v, f)) agent cmp q sub);
               (1, map (fun f -> Formula.Eventually f) sub);
               (1, map (fun f -> Formula.Once f) sub);
               (1, map2 (fun g f -> Formula.EveryoneKnows (g, f)) group sub);
               (1, map2 (fun g f -> Formula.CommonKnows (g, f)) group sub);
               (1, map3 (fun g v f -> Formula.EveryoneBelieves (g, v, f)) group q sub);
               (1, map3 (fun g v f -> Formula.CommonBelief (g, v, f)) group q sub) ])

let near rng f =
  Near_miss.formula ~atoms:key_atoms ~agents:[ 0; 1 ] ~groups:key_groups ~cmps:key_cmps
    ~thresholds:key_qs rng f

let spell rng f =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let ws () = pick [ ""; " "; "  "; "\n"; "\t " ] in
  let num v =
    match Array.find_opt (fun l -> Q.equal (Q.of_string (List.hd l)) v) thresholds with
    | Some l -> pick l
    | None -> Q.to_string v
  in
  let group g = String.concat ("," ^ ws ()) (List.map string_of_int g) in
  let rec go (f : Formula.t) =
    let text =
      match f with
      | True | False | Atom _ | Does _ -> Formula.to_string f
      | Not g -> "!" ^ ws () ^ wrap g
      | And (a, b) -> bin a "&" b
      | Or (a, b) -> bin a "|" b
      | Implies (a, b) -> bin a "->" b
      | Iff (a, b) -> bin a "<->" b
      | Knows (i, g) -> Printf.sprintf "K[%d] %s" i (wrap g)
      | Believes (i, c, v, g) ->
        Printf.sprintf "B[%d]%s%s%s %s" i (ws ()) (Formula.cmp_to_string c) (num v) (wrap g)
      | Eventually g -> "F " ^ wrap g
      | Globally g -> "G " ^ wrap g
      | Next g -> "X " ^ wrap g
      | Once g -> "P " ^ wrap g
      | Historically g -> "H " ^ wrap g
      | EveryoneKnows (gr, g) -> Printf.sprintf "E[%s] %s" (group gr) (wrap g)
      | CommonKnows (gr, g) -> Printf.sprintf "C[%s] %s" (group gr) (wrap g)
      | EveryoneBelieves (gr, v, g) ->
        Printf.sprintf "EB[%s]>=%s %s" (group gr) (num v) (wrap g)
      | CommonBelief (gr, v, g) -> Printf.sprintf "CB[%s]>=%s %s" (group gr) (num v) (wrap g)
    in
    if Random.State.int rng 4 = 0 then "(" ^ ws () ^ text ^ ws () ^ ")" else text
  and wrap g = "(" ^ ws () ^ go g ^ ws () ^ ")"
  and bin a op b = wrap a ^ ws () ^ " " ^ op ^ " " ^ ws () ^ wrap b in
  if Random.State.int rng 3 = 0 then Formula.to_string f else ws () ^ go f ^ ws ()

(* A request: op, formula and limits, drawn so that two of them often
   share a formula, an op or limits, and differ in the rest. *)
let gen_key_request =
  let open QCheck.Gen in
  let op =
    oneof
      [ return Cache_key_oracle.Eval;
        map2
          (fun run time ->
            Cache_key_oracle.Belief { agent = 0; run; time; samples = None; seed = None })
          (int_bound 1) (int_bound 1) ]
  in
  let limits =
    oneofl
      [ Budget.unlimited;
        Budget.limits ~max_points:10_000_000 ();
        Budget.limits ~max_points:10_000_001 ();
        Budget.limits ~max_iters:100_000 ~timeout_ms:600_000 () ]
  in
  triple op limits gen_key_formula

let key_request_fields ~id (op, (limits : Budget.limits), text) =
  let caps =
    List.filter_map
      (fun (c : Budget.cap) -> Option.map (fun v -> field c.name (string_of_int v)) (c.get limits))
      Budget.caps
  in
  match op with
  | Cache_key_oracle.Eval -> request ~system:fs_doc ~id ~op:"eval" ~formula:text ~extras:caps ()
  | Cache_key_oracle.Belief { agent; run; time; _ } ->
    request ~system:fs_doc ~id ~op:"belief" ~formula:text
      ~extras:
        ([ field "agent" (string_of_int agent);
           field "run" (string_of_int run);
           field "time" (string_of_int time) ]
        @ caps)
      ()

let test_cache_key_oracle =
  (* The second request of a pair is a cache hit exactly when the old
     key (the closure digest of a second parse) equates the pair. The
     second request respells the first, or keeps its op and limits
     around a near-miss formula, or keeps its formula under another op
     and limits, or is drawn afresh. *)
  QCheck.Test.make ~count:1000 ~name:"cache keys equate what the old keys equate"
    (QCheck.make QCheck.Gen.(quad gen_key_request gen_key_request (int_bound 3) int))
    (fun (((op1, lim1, f1) as r1), ((op2, lim2, _) as drawn), mode, seed) ->
      let rng = Random.State.make [| seed |] in
      let op2, lim2, f2 =
        match mode with
        | 0 -> r1
        | 1 -> (op1, lim1, near rng f1)
        | 2 -> (op2, lim2, f1)
        | _ -> drawn
      in
      let t1 = spell rng f1 and t2 = spell rng f2 in
      let old_key op limits formula =
        Cache_key_oracle.cache_key ~system:(Lazy.force fs_doc) ~op ~formula ~limits
      in
      let same = old_key op1 lim1 t1 = old_key op2 lim2 t2 in
      with_metrics (fun () ->
          let (out, code), snap =
            Obs.Snapshot.diff_capture (fun () ->
                run
                  [ key_request_fields ~id:1 (op1, lim1, t1);
                    key_request_fields ~id:2 (op2, lim2, t2) ])
          in
          code = 0
          && contains (sans_traces out) "(id 1) (code 0) (status ok)"
          && delta snap "serve.cache.hits" = if same then 1 else 0))

let () =
  Alcotest.run "pak_serve"
    [ ( "frame",
        [ QCheck_alcotest.to_alcotest test_frame_roundtrip;
          Alcotest.test_case "junk and resync" `Quick test_frame_junk;
          Alcotest.test_case "truncated and oversized" `Quick
            test_frame_truncated_and_oversized;
          Alcotest.test_case "short frame answered at once" `Quick test_frame_short_no_wait
        ] );
      ( "sexp",
        [ QCheck_alcotest.to_alcotest test_sexp_random;
          QCheck_alcotest.to_alcotest test_sexp_requests;
          Alcotest.test_case "one-byte edits match the oracle" `Quick test_sexp_byte_edits;
          Alcotest.test_case "nesting at 199, 200 and 201" `Quick test_sexp_nesting
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
          Alcotest.test_case "validate config" `Quick test_validate_config;
          Alcotest.test_case "validate each setting at its bound" `Quick
            test_validate_each_setting;
          Alcotest.test_case "status latencies" `Quick test_status_latencies;
          Alcotest.test_case "status latencies golden" `Quick test_status_latencies_golden
        ] );
      ( "parse",
        [ Alcotest.test_case "one closure per evaluated request" `Quick
            test_one_closure_per_evaluation;
          Alcotest.test_case "30,000-term formula" `Quick test_long_formula;
          QCheck_alcotest.to_alcotest test_cache_key_oracle
        ] )
    ]
