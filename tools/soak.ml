(* soak [--requests N] [--inject all|none|bitflip|garbage|oversize|truncate]
        [--jobs J] [--shutdown] — the robustness acceptance oracle for
   `pak serve`.

   Plays a deterministic mixed stream of N requests against an
   in-process server (Serve.run_string) and checks the whole response
   stream event-by-event:

   - eval and belief requests over the figure-one and firing-squad
     systems, whose responses must equal a locally recomputed rendering
     (direct Semantics/Belief evaluation — the spot-check against
     `pak load`);
   - deadline-doomed fixpoint queries (per-request max-iters 0) that
     must come back as typed budget errors, never kill the server;
   - budget-degraded belief queries (a per-request max-points cap sized
     so the formula eval fits but the exact degree busts) that
     must come back ESTIMATED with exactly the value the direct
     degree_graded fallback produces under the same budget;
   - batches larger than --max-pending whose overflow must be shed
     with an overloaded + retry-after-ms response, in order;
   - malformed requests (unknown op, unparsable formula) that must get
     typed request/input errors;
   - injected frame faults — bit-flipped payloads, inter-frame
     garbage, oversized frames, a truncated final frame — each of
     which must produce exactly one typed protocol error and a resync;
   - a mid-stream client disconnect (write raises EPIPE) after which
     the server must still return exit code 0.

   Responses must arrive in request order, the server must exit 0, and
   the serve.* counters must account for every injected fault. Exits 0
   and prints SOAK_OK only if every check passes. *)

open Pak
module Serve = Pak.Serve
module Sexp = Serve.Sexp
module Frame = Serve.Frame

let requests = ref 500
let inject = ref "all"
let jobs = ref 2
let shutdown = ref false
let emit_stream = ref None
let journal = ref None

let usage () =
  prerr_endline
    "usage: soak [--requests N] [--inject all|none|bitflip|garbage|oversize|truncate] [--jobs J] [--shutdown]";
  prerr_endline "            [--emit-stream FILE]   write the input stream and exit";
  prerr_endline
    "            [--journal FILE]       record the session to a flight-recorder journal";
  exit 2

let rec parse_args = function
  | [] -> ()
  | "--requests" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n > 0 -> requests := n
      | _ -> usage ());
      parse_args rest
  | "--inject" :: v :: rest ->
      (match v with
      | "all" | "none" | "bitflip" | "garbage" | "oversize" | "truncate" ->
          inject := v
      | _ -> usage ());
      parse_args rest
  | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some n when n > 0 -> jobs := n
      | _ -> usage ());
      parse_args rest
  | "--shutdown" :: rest ->
      shutdown := true;
      parse_args rest
  | "--emit-stream" :: file :: rest ->
      emit_stream := Some file;
      parse_args rest
  | "--journal" :: file :: rest ->
      journal := Some file;
      parse_args rest
  | _ -> usage ()

let want kind = !inject = "all" || !inject = kind

(* ------------------------------------------------------------------ *)
(* Request construction                                                *)
(* ------------------------------------------------------------------ *)

let field k v = Sexp.List [ Sexp.Atom k; v ]
let int_f k v = field k (Sexp.Atom (string_of_int v))

let request_sexp ~id ~op ~system ~formula extras =
  Sexp.List
    (Sexp.Atom "request" :: int_f "id" id
    :: field "op" (Sexp.Atom op)
    :: field "system" (Sexp.Str system)
    :: field "formula" (Sexp.Str formula)
    :: extras)

let frame_of sexp = Frame.encode (Sexp.to_string sexp)

(* ------------------------------------------------------------------ *)
(* The local oracle: recompute what the server must answer             *)
(* ------------------------------------------------------------------ *)

let valuation = Semantics.generic_valuation

(* Must render exactly what lib/serve renders for an ok outcome. *)
let eval_body tree formula =
  let f = Parser.parse formula in
  let fact = Semantics.eval tree ~valuation f in
  let sat = ref 0 in
  Tree.iter_points tree (fun ~run ~time ->
      if Fact.holds fact ~run ~time then incr sat);
  let initially =
    Bitset.init (Tree.n_runs tree) (fun r -> Fact.holds fact ~run:r ~time:0)
  in
  Printf.sprintf
    "(code 0) (status ok) (result (points %d) (sat %d) (valid %b) (prob %s))"
    (Tree.n_points tree) !sat
    (!sat = Tree.n_points tree)
    (Q.to_string (Tree.measure tree initially))

let belief_exact_body tree formula ~agent ~run ~time =
  let fact = Semantics.eval tree ~valuation (Parser.parse formula) in
  Printf.sprintf "(code 0) (status ok) (result (degree %s))"
    (Q.to_string (Belief.degree fact ~agent ~run ~time))

(* Q's small-int fast path keeps figure-one's tiny fractions out of
   Bignat entirely, so a limb cap cannot starve the exact degree. Points
   are charged on every [Tree.measure] instead: size a points budget to
   exactly what the formula eval spends, so the eval succeeds and the
   first conditional measure inside [Belief.degree] busts. The probe
   goes through [Semantics.eval], the evaluation the server runs. *)
let eval_points_spend tree formula =
  match
    Budget.with_budget
      (Budget.limits ~max_points:max_int ())
      (fun () ->
        ignore (Semantics.eval tree ~valuation (Parser.parse formula));
        List.assoc "points" (Budget.spent ()))
  with
  | Ok n -> n
  | Error _ -> failwith "oracle: eval spend probe busted"

(* Replicates the degraded path under the same per-request budget the
   server installs: formula eval inside the scope, then the graded
   degree whose exact attempt busts the points cap and falls back to
   the budget-exempt estimator. *)
let belief_degraded_body tree formula ~agent ~run ~time ~samples ~seed
    ~max_points =
  let lim = Budget.limits ~max_points () in
  match
    Budget.with_budget lim (fun () ->
        let fact = Semantics.eval tree ~valuation (Parser.parse formula) in
        Belief.degree_graded ~samples ~seed fact ~agent ~run ~time)
  with
  | Ok (Graded.Estimated { value; samples }) ->
      Printf.sprintf
        "(code 0) (status estimated) (result (degree %s) (samples %d))"
        (Q.to_string value) samples
  | Ok (Graded.Exact _) ->
      failwith "oracle: degraded query unexpectedly stayed exact"
  | Error e -> failwith ("oracle: degraded query failed: " ^ Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Expected response stream                                            *)
(* ------------------------------------------------------------------ *)

type check =
  | Exact of string  (* full body must match *)
  | Code_kind of int * string  (* (code C) and (kind K) must match *)
  | Overloaded of int  (* retry-after-ms hint *)
  | Status_ok  (* (op status): code 0, status ok, uptime-ticks present *)

type expected = X_resp of int * check | X_pong of int | X_bye

(* ------------------------------------------------------------------ *)
(* Stream construction                                                 *)
(* ------------------------------------------------------------------ *)

let max_pending = 16
let max_frame = 65536
let retry_after = 25

let build () =
  let fig1 = Systems.Figure_one.tree () in
  let fsq = Systems.Firing_squad.tree Systems.Firing_squad.Original in
  let doc1 = Tree_io.to_string fig1 in
  let doc2 = Tree_io.to_string fsq in
  let deg_points = eval_points_spend fig1 "a0_g1" in
  let fml1 =
    [|
      "a0_g0";
      "K[0] a0_g0";
      "B[0]>=1/4 F a0_g1";
      "a0_g0 | a0_g1 | a0_g2";
      "CB[0]>=1/2 (a0_g0 | a0_g1 | a0_g2)";
    |]
  in
  let fml2 =
    [| "a0_done"; "K[1] a0_done"; "B[1]>=1/2 F a0_done"; "CB[0,1]>=3/4 a0_done" |]
  in
  let input = Buffer.create (1 lsl 16) in
  let expected = ref [] in
  let protocol_faults = ref 0 in
  let counts =
    object
      val mutable requests = 0
      val mutable pings = 0
      val mutable shed = 0
      val mutable doomed = 0
      val mutable degraded = 0
      val mutable bad_request = 0
      val mutable bad_input = 0
      method bump_requests = requests <- requests + 1
      method bump_pings = pings <- pings + 1
      method bump_shed = shed <- shed + 1
      method bump_doomed = doomed <- doomed + 1
      method bump_degraded = degraded <- degraded + 1
      method bump_bad_request = bad_request <- bad_request + 1
      method bump_bad_input = bad_input <- bad_input + 1
      method requests = requests
      method pings = pings
      method shed = shed
      method doomed = doomed
      method degraded = degraded
      method bad_request = bad_request
      method bad_input = bad_input
    end
  in
  let expect x = expected := x :: !expected in
  let emit_request ?(extras = []) ~id ~op ~system ~formula check =
    counts#bump_requests;
    Buffer.add_string input
      (frame_of (request_sexp ~id ~op ~system ~formula extras));
    expect (X_resp (id, check))
  in
  let protocol_fault () =
    incr protocol_faults;
    expect (X_resp (-1, Code_kind (3, "protocol")))
  in
  (* Warm both parsed-system caches in their own drain so later
     concurrent requests on the same documents hit the tree cache. *)
  emit_request ~id:1 ~op:"eval" ~system:doc1 ~formula:fml1.(0)
    (Exact (eval_body fig1 fml1.(0)));
  emit_request ~id:2 ~op:"eval" ~system:doc2 ~formula:fml2.(0)
    (Exact (eval_body fsq fml2.(0)));
  counts#bump_pings;
  Buffer.add_string input (frame_of (Sexp.List [ Sexp.Atom "ping"; int_f "id" 3 ]));
  expect (X_pong 3);
  for i = 0 to !requests - 1 do
    let id = 100 + (100 * i) in
    (match i mod 10 with
    | 0 | 2 ->
        let f = fml1.((i / 2) mod Array.length fml1) in
        emit_request ~id ~op:"eval" ~system:doc1 ~formula:f
          (Exact (eval_body fig1 f))
    | 1 | 4 ->
        let f = fml2.(i mod Array.length fml2) in
        emit_request ~id ~op:"eval" ~system:doc2 ~formula:f
          (Exact (eval_body fsq f))
    | 3 ->
        let run = i mod Tree.n_runs fig1 in
        emit_request ~id ~op:"belief" ~system:doc1 ~formula:"a0_g1"
          ~extras:[ int_f "agent" 0; int_f "run" run; int_f "time" 0 ]
          (Exact (belief_exact_body fig1 "a0_g1" ~agent:0 ~run ~time:0))
    | 5 ->
        counts#bump_pings;
        Buffer.add_string input
          (frame_of (Sexp.List [ Sexp.Atom "ping"; int_f "id" id ]));
        expect (X_pong id);
        (* Introspection after a forced drain: the queue is empty, so
           the status answer is a pure function of the stream prefix —
           deterministic at every --jobs. *)
        counts#bump_requests;
        Buffer.add_string input
          (frame_of
             (Sexp.List
                [
                  Sexp.Atom "request";
                  int_f "id" (id + 1);
                  field "op" (Sexp.Atom "status");
                ]));
        expect (X_resp (id + 1, Status_ok))
    | 6 ->
        (* Deadline-doomed fixpoint query: the per-request iteration
           cap kills the C/CB gfp immediately, as a typed budget error. *)
        counts#bump_doomed;
        emit_request ~id ~op:"eval" ~system:doc1 ~formula:fml1.(4)
          ~extras:[ int_f "max-iters" 0 ]
          (Code_kind (4, "budget-exceeded"))
    | 7 ->
        let run = (i / 2) mod Tree.n_runs fsq in
        emit_request ~id ~op:"belief" ~system:doc2 ~formula:"a0_done"
          ~extras:[ int_f "agent" 1; int_f "run" run; int_f "time" 0 ]
          (Exact (belief_exact_body fsq "a0_done" ~agent:1 ~run ~time:0))
    | 8 ->
        counts#bump_degraded;
        let samples = 400 and seed = 1000 + i in
        emit_request ~id ~op:"belief" ~system:doc1 ~formula:"a0_g1"
          ~extras:
            [
              int_f "agent" 0;
              int_f "run" 0;
              int_f "time" 0;
              int_f "samples" samples;
              int_f "seed" seed;
              int_f "max-points" deg_points;
            ]
          (Exact
             (belief_degraded_body fig1 "a0_g1" ~agent:0 ~run:0 ~time:0 ~samples
                ~seed ~max_points:deg_points))
    | 9 ->
        if i / 10 mod 3 = 0 then begin
          (* A batch bigger than --max-pending: the tail must shed. A
             ping first forces a full drain so the batch meets an empty
             queue and the shed boundary is exact at any --jobs; the
             threshold numerator is the globally unique request id so no
             member ever hits the result cache and every slot is really
             occupied by live work. *)
          counts#bump_pings;
          Buffer.add_string input
            (frame_of (Sexp.List [ Sexp.Atom "ping"; int_f "id" (id - 1) ]));
          expect (X_pong (id - 1));
          let n = max_pending + 3 in
          let members =
            List.init n (fun j ->
                counts#bump_requests;
                let f = Printf.sprintf "B[0]>=%d/1000000 a0_g0" (id + j) in
                let check =
                  if j < max_pending then Exact (eval_body fig1 f)
                  else begin
                    counts#bump_shed;
                    Overloaded retry_after
                  end
                in
                expect (X_resp (id + j, check));
                request_sexp ~id:(id + j) ~op:"eval" ~system:doc1 ~formula:f [])
          in
          Buffer.add_string input
            (frame_of (Sexp.List (Sexp.Atom "batch" :: members)))
        end
        else if i mod 2 = 0 then begin
          counts#bump_bad_request;
          emit_request ~id ~op:"frobnicate" ~system:doc1 ~formula:"a0_g0"
            (Code_kind (2, "request"))
        end
        else begin
          counts#bump_bad_input;
          emit_request ~id ~op:"eval" ~system:doc1 ~formula:"K[0"
            (Code_kind (3, "parse"))
        end
    | _ -> assert false);
    (* Frame-level fault injection, always between frames so the
       oracle stays exact: each fault costs one typed protocol error
       and nothing else. *)
    if want "bitflip" && i mod 13 = 5 then begin
      let payload = Sexp.to_string (Sexp.List [ Sexp.Atom "ping" ]) in
      let flipped = Bytes.of_string payload in
      Bytes.set flipped 0 ')';
      Buffer.add_string input (Frame.encode (Bytes.to_string flipped));
      protocol_fault ()
    end;
    if want "garbage" && i mod 7 = 3 then begin
      Buffer.add_string input "@@@ line noise, not a frame @@@";
      protocol_fault ()
    end;
    if want "oversize" && i mod 17 = 11 then begin
      Buffer.add_string input
        (Printf.sprintf "pak1 %d\n%s" (max_frame + 1)
           (String.make (max_frame + 1) 'z'));
      protocol_fault ()
    end
  done;
  if !shutdown then begin
    Buffer.add_string input (frame_of (Sexp.List [ Sexp.Atom "shutdown" ]));
    (* Anything after shutdown must be ignored, not answered. *)
    Buffer.add_string input
      (frame_of (request_sexp ~id:99 ~op:"eval" ~system:doc1 ~formula:"a0_g0" []))
  end
  else if want "truncate" then begin
    (* The stream dies mid-frame: one protocol error, then a clean
       EOF drain. *)
    Buffer.add_string input "pak1 4096\ntoo short";
    protocol_fault ()
  end;
  expect X_bye;
  (Buffer.contents input, List.rev !expected, !protocol_faults, counts)

(* ------------------------------------------------------------------ *)
(* Response stream checking                                            *)
(* ------------------------------------------------------------------ *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      if !failures <= 20 then prerr_endline ("FAIL: " ^ m))
    fmt

let fields_of = function
  | Sexp.List (Sexp.Atom tag :: fields) -> Some (tag, fields)
  | _ -> None

let get_int fields name =
  List.find_map
    (function
      | Sexp.List [ Sexp.Atom k; Sexp.Atom v ] when k = name ->
          int_of_string_opt v
      | _ -> None)
    fields

let get_atom fields name =
  List.find_map
    (function
      | Sexp.List [ Sexp.Atom k; Sexp.Atom v ] when k = name -> Some v
      | _ -> None)
    fields

(* The response body as rendered: everything after "(id N)" and the
   request-scoped "(trace <id>)" field (present on every response that
   had a request behind it; its value is input-dependent, so the exact
   oracle compares the remainder). *)
let body_of_response payload =
  let marker = ") " in
  match String.index_opt payload ')' with
  | Some i when i + 2 <= String.length payload ->
      let start = i + String.length marker in
      (* payload = "(response (id N) [(trace T) ]BODY)" *)
      let start =
        let pfx = "(trace " in
        if
          String.length payload - start > String.length pfx
          && String.sub payload start (String.length pfx) = pfx
        then
          match String.index_from_opt payload start ')' with
          | Some j when j + 2 <= String.length payload -> j + 2
          | _ -> start
        else start
      in
      String.sub payload start (String.length payload - start - 1)
  | _ -> payload

let check_event i payload x =
  match (Sexp.parse payload, x) with
  | Error m, _ -> fail "event %d: unparsable response frame (%s): %s" i m payload
  | Ok sx, X_pong want_id -> (
      match fields_of sx with
      | Some ("pong", fields) when get_int fields "id" = Some want_id -> ()
      | _ -> fail "event %d: expected (pong (id %d)), got %s" i want_id payload)
  | Ok sx, X_bye -> (
      match fields_of sx with
      | Some ("bye", _) -> ()
      | _ -> fail "event %d: expected (bye ...), got %s" i payload)
  | Ok sx, X_resp (want_id, check) -> (
      match fields_of sx with
      | Some ("response", fields) -> (
          (match get_int fields "id" with
          | Some got when got = want_id -> ()
          | got ->
              fail "event %d: expected id %d, got %s" i want_id
                (match got with Some g -> string_of_int g | None -> "none"));
          match check with
          | Exact body ->
              let got = body_of_response payload in
              if got <> body then
                fail "event %d (id %d): body mismatch\n  want: %s\n  got:  %s" i
                  want_id body got
          | Code_kind (code, kind) ->
              if get_int fields "code" <> Some code then
                fail "event %d (id %d): expected code %d in %s" i want_id code
                  payload;
              if get_atom fields "kind" <> Some kind then
                fail "event %d (id %d): expected kind %s in %s" i want_id kind
                  payload
          | Overloaded retry ->
              if get_atom fields "status" <> Some "overloaded" then
                fail "event %d (id %d): expected overloaded status in %s" i
                  want_id payload;
              if get_int fields "retry-after-ms" <> Some retry then
                fail "event %d (id %d): expected retry-after-ms %d in %s" i
                  want_id retry payload
          | Status_ok ->
              if get_int fields "code" <> Some 0 then
                fail "event %d (id %d): expected code 0 in %s" i want_id payload;
              if get_atom fields "status" <> Some "ok" then
                fail "event %d (id %d): expected status ok in %s" i want_id
                  payload;
              let contains hay needle =
                let nh = String.length hay and nn = String.length needle in
                let rec go k =
                  k + nn <= nh && (String.sub hay k nn = needle || go (k + 1))
                in
                go 0
              in
              if not (contains payload "(uptime-ticks ") then
                fail "event %d (id %d): status without uptime-ticks: %s" i
                  want_id payload)
      | _ -> fail "event %d: expected a response frame, got %s" i payload)

let counter delta name =
  match List.assoc_opt name delta.Obs.Snapshot.counters with
  | Some v -> v
  | None -> 0

let check_counter delta name want =
  let got = counter delta name in
  if got <> want then fail "counter %s = %d, want %d" name got want

let () =
  parse_args (List.tl (Array.to_list Sys.argv));
  Obs.enable ();
  Budget.set_wall_clock (Some Unix.gettimeofday);
  let input, expected, protocol_faults, counts = build () in
  (match !emit_stream with
  | Some file ->
      (* Stream-generator mode: write the deterministic input stream
         for an out-of-process `pak serve` (the CI telemetry and
         trace-id smoke) and stop — the in-process checks don't run. *)
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc input);
      Printf.printf "soak: wrote %d-byte input stream (%d requests) to %s\n"
        (String.length input) counts#requests file;
      exit 0
  | None -> ());
  let cfg =
    {
      Serve.default_config with
      jobs = !jobs;
      max_pending;
      max_frame;
      cache_max = 64;
      retry_after_ms = retry_after;
      drain_ms = Some 10_000;
      clock = Some Unix.gettimeofday;
    }
  in
  (* Flight recorder: the journal meta records [cfg] so a later
     `pak replay` re-executes this session under identical limits. *)
  let journal_writer =
    match !journal with
    | None -> None
    | Some file -> (
        match
          Journal.Writer.create ~meta:(Replay.meta_of_config cfg) file
        with
        | Ok w -> Some w
        | Error msg ->
            Printf.eprintf "soak: cannot open journal %s: %s\n" file msg;
            exit 2)
  in
  let cfg =
    { cfg with Serve.journal = Option.map Journal.Writer.sink journal_writer }
  in
  let t0 = Unix.gettimeofday () in
  let (output, code), delta =
    Obs.Snapshot.diff_capture (fun () -> Serve.run_string ~config:cfg input)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Option.iter Journal.Writer.close journal_writer;
  if code <> 0 then fail "server exited %d, want 0" code;
  (* Replay the response stream against the expected event list. *)
  let rd = Frame.reader ~max_frame:(1 lsl 24) (Frame.source_of_string output) in
  let remaining = ref expected in
  let events = ref 0 in
  let stop = ref false in
  while not !stop do
    match Frame.read rd with
    | Frame.Eof -> stop := true
    | Frame.Junk _ ->
        fail "response stream contains junk";
        stop := true
    | Frame.Payload p -> (
        incr events;
        match !remaining with
        | [] -> fail "unexpected extra response: %s" p
        | x :: rest ->
            check_event !events p x;
            remaining := rest)
  done;
  List.iter
    (fun x ->
      match x with
      | X_resp (id, _) -> fail "missing response for id %d" id
      | X_pong id -> fail "missing pong %d" id
      | X_bye -> fail "missing bye frame")
    !remaining;
  (* Counter accounting: every injected fault and every shed/degraded/
     doomed request shows up in serve.*. *)
  check_counter delta "serve.errors.protocol" protocol_faults;
  check_counter delta "serve.shed" counts#shed;
  check_counter delta "serve.errors.budget" counts#doomed;
  check_counter delta "serve.errors.request" counts#bad_request;
  check_counter delta "serve.errors.input" counts#bad_input;
  check_counter delta "serve.degraded" counts#degraded;
  check_counter delta "serve.requests" counts#requests;
  check_counter delta "serve.pings" counts#pings;
  check_counter delta "serve.errors.internal" 0;
  if counter delta "serve.cache.hits" = 0 then
    fail "expected some result-cache hits (formulas repeat)";
  (* Mid-stream client disconnect: the writer dies, the server must
     still drain quietly and exit 0. *)
  let writes = ref 0 in
  let dead_write _ =
    incr writes;
    if !writes > 3 then raise (Sys_error "Broken pipe")
  in
  let disconnect_code =
    (* The journal writer is closed: this re-run must not record. *)
    Serve.run { cfg with Serve.journal = None }
      ~source:(Frame.source_of_string input) ~write:dead_write
  in
  if disconnect_code <> 0 then
    fail "disconnected-client run exited %d, want 0" disconnect_code;
  Printf.printf
    "soak: %d requests (%d shed, %d degraded, %d doomed), %d pings, %d faults injected, %d responses checked, jobs=%d, %.2fs\n"
    counts#requests counts#shed counts#degraded counts#doomed counts#pings
    protocol_faults !events !jobs dt;
  if !failures > 0 then begin
    Printf.eprintf "soak: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "SOAK_OK"
