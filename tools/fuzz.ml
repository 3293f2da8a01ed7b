(* fuzz [--mode boundaries|explain|frame|openmetrics|journal]
        [--iters N] [--seed S] [--corpus DIR] [--jobs J] — in-process
   fuzzer for the untrusted-input boundaries.

   The default mode feeds three input streams to Parser.parse_result
   and Tree_io.of_string_result, asserting the crash-free contract:
   every input yields Ok or a typed Pak_guard.Error.t — never an
   escaped exception, never a stack overflow, and (under the built-in
   budget) never a hang. Streams:

   - random byte strings, length 0..400;
   - mutations of valid round-trip documents and formulas (byte flips,
     structural-byte insertion, deletion, slice duplication,
     truncation);
   - the committed regression corpus, replayed first when --corpus is
     given.

   --mode explain drives the same streams through the provenance
   pipeline instead: parse -> certify -> independent check -> JSON
   round-trip -> re-check, on a fixed small system. The contract is
   stricter than crash-freedom: a parsed formula must always certify,
   the certificate's root points must be exactly the fact
   Semantics.eval returns, the fresh certificate must always verify,
   and its JSON must parse back to a certificate that verifies again —
   a rejection anywhere in that chain is a finding, not a graceful
   Rejected. Mutated
   certificate JSON additionally probes Cert.of_json_string, which
   must return Ok or Error without raising.

   --mode frame targets the serve front end's wire boundary with raw
   bytes, mutated frame streams and valid headers over mutated
   payloads. Two contracts: Serve.Frame.read must turn ANY byte stream
   into a finite sequence of typed events ending in Eof without
   raising; and the full Serve.run_string loop must answer any byte
   stream without raising and always drain to exit code 0 — faults
   become typed error responses, never crashes and never a poisoned
   server.

   --mode journal targets the flight recorder's read side and the
   replay pipeline behind it with random bytes, mutants of a valid
   in-memory recording and truncations of it. Two contracts:
   Journal.read_string must turn ANY byte string into Ok or Error
   without raising (corrupt tails degrade to r_tail, never an
   exception); and any journal that reads must also replay —
   Replay.run re-executes the recorded requests through the live
   engine under the probe budget and may report divergences or reject
   a broken meta, but must never raise. A crash in either is exactly
   the bug a flight recorder cannot afford: the tool you reach for
   after a failure must not fail on the evidence.

   --mode openmetrics targets the exposition writer: any input that
   Obs.Snapshot.of_json_string accepts — including mutants smuggling
   control characters, quotes or UTF-8 junk into metric names — must
   render through Obs.Openmetrics.render without raising, and the
   rendered text must pass Obs.Openmetrics.check (the minimal line
   grammar a Prometheus scraper relies on). A render exception or a
   grammar rejection is a finding.

   Every iteration derives its own generator from (seed, iteration
   index), so the probed inputs — and therefore any finding — are
   identical for every --jobs value; parallelism only divides the wall
   time. Findings are buffered per chunk and printed in iteration
   order after the run.

   Exits 0 after N crash-free iterations, printing a one-line summary;
   on the first contract violation prints the input (escaped) and
   exits 1, so the offender can be added to test/corpus/. Used by CI
   as the fuzz smoke job. *)

open Pak
module Error = Pak.Error

let iters = ref 10_000
let seed = ref 0
let corpus = ref ""
let jobs = ref 1
let mode = ref "boundaries"

let usage () =
  prerr_endline
    "usage: fuzz [--mode boundaries|explain|frame|openmetrics|journal] [--iters N] [--seed S] [--corpus DIR] [--jobs J]";
  exit 2

let rec parse_args = function
  | [] -> ()
  | "--mode" :: v :: rest ->
    (match v with
    | "boundaries" | "explain" | "frame" | "openmetrics" | "journal" ->
      mode := v
    | _ -> usage ());
    parse_args rest
  | "--iters" :: v :: rest ->
    (match int_of_string_opt v with Some n when n > 0 -> iters := n | _ -> usage ());
    parse_args rest
  | "--seed" :: v :: rest ->
    (match int_of_string_opt v with Some n -> seed := n | _ -> usage ());
    parse_args rest
  | "--corpus" :: v :: rest ->
    corpus := v;
    parse_args rest
  | "--jobs" :: v :: rest ->
    (match int_of_string_opt v with Some n when n > 0 -> jobs := n | _ -> usage ());
    parse_args rest
  | _ -> usage ()

(* ------------------------------------------------------------------ *)
(* Boundaries under test                                               *)
(* ------------------------------------------------------------------ *)

type outcome = Accepted | Rejected of Error.t

let boundaries =
  [ ( "parser",
      fun input ->
        match Parser.parse_result input with Ok _ -> Accepted | Error e -> Rejected e );
    ( "tree_io",
      fun input ->
        match Tree_io.of_string_result input with Ok _ -> Accepted | Error e -> Rejected e )
  ]

(* Each probe runs under a modest budget so a pathological input that
   is merely slow (rather than crashing) also counts as a finding:
   the contract includes "never a hang". The budget scope is
   domain-local, so parallel probes cannot exhaust each other. The
   iteration cap exists for --mode explain, where a parsed formula may
   drive common-knowledge fixpoints. *)
let probe_limits =
  Budget.limits ~max_nodes:100_000 ~max_limbs:1_000_000 ~max_iters:100_000 ~timeout_ms:2_000 ()

(* --mode explain: the provenance pipeline on one small fixed system.
   Everything past a successful parse is covered by the soundness
   contract, so any rejection downstream is raised (and so counted as
   a crash finding) rather than returned as Rejected. *)
let explain_tree = lazy (Systems.Figure_one.tree ~p_alpha:Q.half ())

let explain_boundaries =
  [ ( "explain",
      fun input ->
        match Parser.parse_result input with
        | Error e -> Rejected e
        | Ok f ->
          let tree = Lazy.force explain_tree in
          let valuation = Semantics.generic_valuation in
          (match Cert.certify_result tree ~valuation f with
          | Error e -> Rejected e
          | Ok cert ->
            if Fact.to_list (Semantics.eval tree ~valuation f) <> cert.Cert.root.Cert.points
            then failwith "certificate root differs from Semantics.eval's fact";
            (match Cert.check ~valuation tree cert with
            | Ok () -> ()
            | Error v ->
              failwith ("fresh certificate rejected: " ^ Cert.violation_to_string v));
            (match Cert.of_json_string (Cert.to_json cert) with
            | Error msg -> failwith ("emitted JSON does not parse back: " ^ msg)
            | Ok cert' ->
              (match Cert.check ~valuation tree cert' with
              | Ok () -> Accepted
              | Error v ->
                failwith
                  ("re-parsed certificate rejected: " ^ Cert.violation_to_string v)))) );
    ( "cert_json",
      fun input ->
        match Cert.of_json_string input with
        | Ok _ -> Accepted
        | Error msg -> Rejected (Error.make Error.Parse msg) )
  ]

(* --mode frame: the serve wire boundary. The server's own per-request
   budgets (frame_config.limits) bound fuzzed requests that happen to
   parse; the reader event cap turns a non-terminating resync loop
   into a finding rather than a hang. *)
let frame_config =
  { Serve.default_config with
    Serve.max_pending = 8;
    max_frame = 4096;
    cache_max = 8;
    tree_cache_max = 4;
    drain_ms = Some 1000;
    limits = probe_limits
  }

(* --mode openmetrics: snapshot JSON in, exposition text out. The
   snapshot parser accepts arbitrary strings as metric names, so
   mutants reach the renderer's sanitize/escape paths directly. *)
let openmetrics_boundaries =
  [ ( "openmetrics",
      fun input ->
        match Obs.Snapshot.of_json_string input with
        | Error msg -> Rejected (Error.make Error.Parse msg)
        | Ok snap -> (
          let text = Obs.Openmetrics.render snap in
          match Obs.Openmetrics.check text with
          | Ok () -> Accepted
          | Error msg ->
            failwith
              (Printf.sprintf "rendered exposition fails the grammar: %s" msg)) )
  ]

(* --mode journal: the flight-recorder boundary. [journal-read] is
   pure crash-freedom of the segment decoder; [journal-replay] drives
   anything that decodes through the full replay pipeline —
   meta-to-config parsing, stream reconstruction, a live serve session
   and the response diff. The probe [limits] override neuters
   whatever budgets a mutated meta declares, so a hostile journal can
   slow a probe down only as far as the standard probe budget allows.
   Divergences are the expected outcome on mutants (the recording no
   longer matches what the engine says), so only an escaped exception
   counts as a finding. *)
let journal_boundaries =
  [ ( "journal-read",
      fun input ->
        match Journal.read_string input with
        | Ok _ -> Accepted
        | Error msg -> Rejected (Error.make Error.Parse msg) );
    ( "journal-replay",
      fun input ->
        match Journal.read_string input with
        | Error msg -> Rejected (Error.make Error.Parse msg)
        | Ok rr -> (
          match Replay.run ~jobs:1 ~limits:probe_limits rr with
          | Ok _ -> Accepted
          | Error msg -> Rejected (Error.make Error.Parse msg)) )
  ]

let frame_boundaries =
  [ ( "frame",
      fun input ->
        let reader =
          Serve.Frame.reader ~max_frame:4096 (Serve.Frame.source_of_string input)
        in
        let rec drain n =
          if n > 100_000 then failwith "frame reader did not reach Eof"
          else
            match Serve.Frame.read reader with
            | Serve.Frame.Eof -> Accepted
            | Serve.Frame.Payload _ | Serve.Frame.Junk _ -> drain (n + 1)
        in
        drain 0 );
    ( "serve",
      fun input ->
        let _out, code = Serve.run_string ~config:frame_config input in
        if code = 0 then Accepted
        else failwith (Printf.sprintf "server exited %d on fuzzed stream" code) )
  ]

let crashes = Atomic.make 0

(* [Some report] on a contract violation. *)
let probe name boundary input =
  match Budget.with_budget probe_limits (fun () -> boundary input) with
  | Ok Accepted | Ok (Rejected _) -> None
  | Error (_ : Error.t) -> None (* budget exhaustion is a typed, contractual outcome *)
  | exception exn ->
    ignore (Atomic.fetch_and_add crashes 1);
    Some (Printf.sprintf "CRASH %s: %s\n  input: %S\n" name (Printexc.to_string exn) input)

(* ------------------------------------------------------------------ *)
(* Input generation                                                    *)
(* ------------------------------------------------------------------ *)

type rng = { mutable st : int }

(* SplitMix-style mix of (seed, iteration): each iteration owns an
   independent stream keyed by its INDEX, so the fuzzed inputs do not
   depend on how iterations are divided among domains. *)
let rng_for s i =
  let z = (s + ((i + 1) * 0x9E3779B9)) land max_int in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B land max_int in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 land max_int in
  { st = ((z lxor (z lsr 16)) lxor 0x9e3779b9) land max_int }

(* xorshift-ish; deterministic, independent of Random. *)
let next r =
  let x = r.st in
  let x = x lxor (x lsl 13) land max_int in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) land max_int in
  r.st <- x;
  x

let random_bytes r =
  let len = next r mod 401 in
  String.init len (fun _ -> Char.chr (next r mod 256))

let structural = [| '('; ')'; '"'; '\\'; '-'; '/'; ' '; '['; ']'; '>'; '='; '\000' |]

let mutate r s =
  if String.length s = 0 then s
  else begin
    let edits = 1 + (next r mod 8) in
    let out = ref s in
    for _ = 1 to edits do
      let s = !out in
      let n = String.length s in
      if n > 0 then begin
        let pos = next r mod n in
        out :=
          (match next r mod 5 with
           | 0 ->
             String.sub s 0 pos
             ^ String.make 1 (Char.chr (next r mod 256))
             ^ String.sub s (pos + 1) (n - pos - 1)
           | 1 ->
             String.sub s 0 pos
             ^ String.make 1 structural.(next r mod Array.length structural)
             ^ String.sub s pos (n - pos)
           | 2 -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
           | 3 ->
             let len = min (next r mod 32) (n - pos) in
             String.sub s 0 (pos + len) ^ String.sub s pos (n - pos)
           | _ -> String.sub s 0 pos)
      end
    done;
    !out
  end

let seed_formulas =
  [| "K[0] (x1 -> B[1]>=3/4 done)";
     "CB[0,1]>=1/2 (done & !x1) <-> E[0,1] F done";
     "does[0](go) | G (p -> X q)";
     "B[0]>=19/20 (a0_fire & a1_fire)"
  |]

let seed_doc =
  lazy
    (let t = Systems.Figure_one.tree ~p_alpha:Q.half () in
     Tree_io.to_string t)

(* --mode explain seeds: formulas over the fixed system's generic
   atoms, covering every certificate node kind, plus one valid
   certificate JSON for the cert_json boundary's mutants. *)
let explain_formulas =
  [| "K[0] a0_g0 & B[0]>=1/2 F a0_h";
     "CB[0]>=3/4 (a0_g0 | !a0_g0)";
     "C[0] (a0_g1 -> X a0_g2)";
     "does[0](alpha) -> B[0]>=1/3 O a0_g1";
     "EB[0]>=2/3 G (a0_g0 <-> H a0_g0)"
  |]

let seed_cert_json =
  lazy
    (let tree = Lazy.force explain_tree in
     Cert.to_json
       (Semantics.certify tree ~valuation:Semantics.generic_valuation
          (Parser.parse "K[0] a0_g0 | B[0]>=1/4 F a0_g1")))

(* --mode frame seeds: one valid request/ping/shutdown payload set over
   the small fixed system (the Sexp printer handles escaping), and the
   concatenated frame stream built from them. *)
let seed_frame_payloads =
  lazy
    (let open Serve.Sexp in
     let doc = Lazy.force seed_doc in
     let field k v = List [ Atom k; v ] in
     let req id op formula extras =
       to_string
         (List
            (Atom "request"
            :: field "id" (Atom (string_of_int id))
            :: field "op" (Atom op)
            :: field "system" (Str doc)
            :: field "formula" (Str formula)
            :: extras))
     in
     [| req 1 "eval" "K[0] a0_g0" [];
        req 2 "belief" "a0_g1"
          [ field "agent" (Atom "0"); field "run" (Atom "0"); field "time" (Atom "0") ];
        req 3 "eval" "CB[0]>=1/2 a0_g0" [ field "max-iters" (Atom "0") ];
        to_string (List [ Atom "ping"; field "id" (Atom "4") ]);
        to_string (List [ Atom "shutdown" ])
     |])

let seed_frame_stream =
  lazy
    (Lazy.force seed_frame_payloads |> Array.to_list
    |> List.map Serve.Frame.encode |> String.concat "")

(* --mode journal seed: a real recording, made in memory by running a
   serve session over the frame-mode seed stream with a Buffer-backed
   sink — so mutants start from a valid header, meta and record set
   and reach the deep parsing paths instead of dying at the magic. *)
let seed_journal =
  lazy
    (let buf = Buffer.create 4096 in
     Buffer.add_string buf
       (Journal.segment_header ~meta:(Replay.meta_of_config frame_config));
     let sink =
       { Journal.emit = (fun e -> Buffer.add_string buf (Journal.encode_entry e));
         position = (fun () -> Buffer.length buf);
         rotations = (fun () -> 0)
       }
     in
     ignore
       (Serve.run_string
          ~config:{ frame_config with Serve.journal = Some sink }
          (Lazy.force seed_frame_stream));
     Buffer.contents buf)

(* --mode openmetrics seeds: a real snapshot of this process (after a
   little recorded activity, so counters/histograms/spans are all
   non-empty) and a handcrafted one whose metric names smuggle every
   character class the renderer must neutralize. *)
let seed_snapshot_json =
  lazy
    (Obs.enable ();
     ignore
       (Obs.span "fuzz.seed" (fun () ->
            Semantics.eval (Lazy.force explain_tree)
              ~valuation:Semantics.generic_valuation
              (Parser.parse "K[0] a0_g0 | B[0]>=1/4 F a0_g1")));
     Obs.Snapshot.to_json (Obs.Snapshot.capture ()))

let nasty_snapshot_json =
  {|{"schema_version":2,"counters":{"evil\nname":3,"a{b}\"c\\":1,"":7,"sp ace":2},"gauges":{"gx":0.5,"huge":1e308},"histograms":{"h;na me":{"count":2,"p50_ns":10,"p90_ns":10,"p99_ns":10,"buckets":[[0,1],[5,1]]}},"span_tree":[]}|}

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let replay_corpus boundaries dir =
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare files;
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let ic = open_in_bin path in
      let input =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      List.iter
        (fun (bname, b) ->
          match probe (bname ^ "/" ^ name) b input with
          | None -> ()
          | Some report -> print_string report)
        boundaries)
    files;
  Array.length files

let () =
  parse_args (List.tl (Array.to_list Sys.argv));
  let boundaries =
    match !mode with
    | "explain" -> explain_boundaries
    | "frame" -> frame_boundaries
    | "openmetrics" -> openmetrics_boundaries
    | "journal" -> journal_boundaries
    | _ -> boundaries
  in
  let replayed = if !corpus = "" then 0 else replay_corpus boundaries !corpus in
  (* Force the seed inputs before any domain spawns: Lazy values are
     not safe to force concurrently. *)
  let doc = Lazy.force seed_doc in
  let cert_json = if !mode = "explain" then Lazy.force seed_cert_json else "" in
  let frame_payloads, frame_stream =
    if !mode = "frame" then (Lazy.force seed_frame_payloads, Lazy.force seed_frame_stream)
    else ([||], "")
  in
  let snapshot_json =
    if !mode = "openmetrics" then Lazy.force seed_snapshot_json else ""
  in
  let journal_seed = if !mode = "journal" then Lazy.force seed_journal else "" in
  let run_iteration i =
    let r = rng_for !seed i in
    let input =
      match !mode with
      | "explain" ->
        (match i mod 3 with
         | 0 -> random_bytes r
         | 1 -> mutate r explain_formulas.(next r mod Array.length explain_formulas)
         | _ -> mutate r cert_json)
      | "frame" ->
        (* Whole-stream mutants attack the reader's resync; valid
           headers over mutated payloads get past it and attack the
           request parser and evaluator. *)
        (match i mod 3 with
         | 0 -> random_bytes r
         | 1 -> mutate r frame_stream
         | _ ->
           Serve.Frame.encode
             (mutate r frame_payloads.(next r mod Array.length frame_payloads)))
      | "openmetrics" ->
        (* Mutants of valid snapshot JSON dominate: random bytes rarely
           parse, and the grammar contract only bites past the snapshot
           parser. The nasty seed starts inside the renderer's
           worst-case character classes. *)
        (match i mod 3 with
         | 0 -> random_bytes r
         | 1 -> mutate r snapshot_json
         | _ -> mutate r nasty_snapshot_json)
      | "journal" ->
        (* Truncations are a first-class stream, not just a mutation
           arm: the tail-recovery contract is about cuts at every
           byte offset, including mid-header and mid-payload. *)
        (match i mod 3 with
         | 0 -> random_bytes r
         | 1 -> mutate r journal_seed
         | _ -> String.sub journal_seed 0 (next r mod (String.length journal_seed + 1)))
      | _ ->
        (match i mod 3 with
         | 0 -> random_bytes r
         | 1 -> mutate r seed_formulas.(next r mod Array.length seed_formulas)
         | _ -> mutate r doc)
    in
    (* Round-robin keeps both boundaries at iters/2 probes minimum;
       formula mutants also go to the other boundary and vice versa,
       which is the point — boundaries must reject foreign input
       gracefully too. *)
    List.filter_map (fun (name, b) -> probe name b input) boundaries
  in
  let indices = Array.init !iters Fun.id in
  let findings =
    if !jobs <= 1 then Array.map run_iteration indices
    else Pool.with_pool ~jobs:!jobs (fun pool -> Pool.map pool run_iteration indices)
  in
  Array.iter (List.iter print_string) findings;
  Printf.printf "fuzz: %d iterations x %d boundaries (+%d corpus files), %d crashes (seed %d)\n"
    !iters (List.length boundaries) replayed (Atomic.get crashes) !seed;
  if Atomic.get crashes > 0 then exit 1
