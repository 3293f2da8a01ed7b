(* Tests for the flight recorder: the journal codec round-trip,
   size-exact writer rotation, the reader's rotated-segment spanning
   and truncated-tail recovery, the journal.* counter identities, the
   replay normalizer, and the record -> replay -> byte-diff loop
   itself — including the contract that a tampered recording makes the
   replay diverge and name the offending frame. *)

open Pak_pps
module Obs = Pak_obs.Obs
module Budget = Pak_guard.Budget
module Journal = Pak_journal.Journal
module Serve = Pak_serve.Serve
module Replay = Pak_serve.Replay

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let with_metrics f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let delta snapshot name =
  match List.assoc_opt name snapshot.Obs.Snapshot.counters with
  | Some n -> n
  | None -> 0

let entry ?(kind = Journal.Request) ?(seq = 1) ?(code = -1) ?(disp = "frame")
    ?(trace = "") ?(ts = 0) payload =
  { Journal.e_kind = kind;
    e_seq = seq;
    e_code = code;
    e_disp = disp;
    e_trace = trace;
    e_ts_us = ts;
    e_payload = payload
  }

(* A scratch journal base path; rotated segments appear as PATH.N next
   to it, so clean both up afterwards. *)
let with_journal_path f =
  let path = Filename.temp_file "pakjournal_test" ".j" in
  Fun.protect
    ~finally:(fun () ->
      let rm p = try Sys.remove p with Sys_error _ -> () in
      rm path;
      let i = ref 1 in
      while Sys.file_exists (Printf.sprintf "%s.%d" path !i) do
        rm (Printf.sprintf "%s.%d" path !i);
        incr i
      done)
    (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Codec round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let meta = {|(serve-config (version 1) (note "parens ) and quotes"))|} in
  let entries =
    [ entry ~seq:1 "(request (id 1) (op eval))";
      entry ~kind:Journal.Response ~seq:1 ~code:0 ~disp:"ok"
        ~trace:"0123456789abcdef" ~ts:42 "(response (id 1))";
      entry ~seq:2 "multi\nline\npayload\n";
      entry ~kind:Journal.Response ~seq:2 ~code:4 ~disp:"shed" "";
      entry ~seq:3 {|payload with " quotes and (parens|}
    ]
  in
  let s =
    Journal.segment_header ~meta
    ^ String.concat "" (List.map Journal.encode_entry entries)
  in
  match Journal.read_string s with
  | Error e -> Alcotest.fail e
  | Ok rr ->
    check_string "meta round-trips" meta rr.Journal.r_meta;
    check_bool "no tail" true (rr.Journal.r_tail = None);
    check_int "one segment" 1 rr.Journal.r_segments;
    check_bool "entries round-trip byte-exactly" true (rr.Journal.r_entries = entries)

let test_token_sanitization () =
  (* Disposition and trace are single tokens on the record header
     line: spaces and newlines in them must not desynchronize the
     reader, so the encoder rewrites them to '_'. *)
  let e = entry ~disp:"we ird\ndisp" ~trace:"bad trace" "p" in
  let s = Journal.segment_header ~meta:"" ^ Journal.encode_entry e in
  match Journal.read_string s with
  | Error e -> Alcotest.fail e
  | Ok rr -> (
    match rr.Journal.r_entries with
    | [ e' ] ->
      check_bool "no tail despite hostile tokens" true (rr.Journal.r_tail = None);
      check_string "disposition sanitized" "we_ird_disp" e'.Journal.e_disp;
      check_string "trace sanitized" "bad_trace" e'.Journal.e_trace;
      check_string "payload untouched" "p" e'.Journal.e_payload
    | l -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length l)))

(* ------------------------------------------------------------------ *)
(* Writer rotation                                                     *)
(* ------------------------------------------------------------------ *)

let test_rotation_boundary () =
  with_journal_path (fun path ->
      let header_len = String.length (Journal.segment_header ~meta:"m") in
      let e i = entry ~seq:i (Printf.sprintf "ab%d" i) in
      let rlen = String.length (Journal.encode_entry (e 1)) in
      (* Cap = header + exactly two records: landing ON the cap must
         not rotate (the condition is strictly "would exceed"), the
         third record must. *)
      let cap = header_len + (2 * rlen) in
      match Journal.Writer.create ~max_bytes:cap ~meta:"m" path with
      | Error msg -> Alcotest.fail msg
      | Ok w ->
        Journal.Writer.append w (e 1);
        Journal.Writer.append w (e 2);
        check_int "exact fit does not rotate" 0 (Journal.Writer.rotations w);
        Journal.Writer.append w (e 3);
        check_int "overflow rotates" 1 (Journal.Writer.rotations w);
        Journal.Writer.append w (e 4);
        check_int "refilled segment holds two again" 1 (Journal.Writer.rotations w);
        Journal.Writer.append w (e 5);
        check_int "second rotation" 2 (Journal.Writer.rotations w);
        check_int "segments = rotations + 1" 3 (Journal.Writer.segments w);
        check_int "position counts every segment, headers included"
          ((3 * header_len) + (5 * rlen))
          (Journal.Writer.position w);
        Journal.Writer.close w;
        check_bool "active segment on disk" true (Sys.file_exists path);
        check_bool "rotated segments on disk" true
          (Sys.file_exists (path ^ ".1") && Sys.file_exists (path ^ ".2"));
        (* The reader spans all three segments, oldest first. *)
        (match Journal.read path with
         | Error msg -> Alcotest.fail msg
         | Ok rr ->
           check_int "three segments read" 3 rr.Journal.r_segments;
           check_string "meta from the first segment" "m" rr.Journal.r_meta;
           check_bool "clean read" true (rr.Journal.r_tail = None);
           check_string "append order across rotations" "ab1 ab2 ab3 ab4 ab5"
             (String.concat " "
                (List.map (fun e -> e.Journal.e_payload) rr.Journal.r_entries))))

let test_oversized_record_terminates () =
  (* A record bigger than max_bytes still lands (a segment always
     accepts at least one record): rotation is once per oversized
     record, never a loop. *)
  with_journal_path (fun path ->
      match Journal.Writer.create ~max_bytes:64 ~meta:"m" path with
      | Error msg -> Alcotest.fail msg
      | Ok w ->
        let big i = entry ~seq:i (String.make 500 (Char.chr (Char.code 'a' + i))) in
        Journal.Writer.append w (big 0);
        check_int "first oversized record does not rotate" 0
          (Journal.Writer.rotations w);
        Journal.Writer.append w (big 1);
        Journal.Writer.append w (big 2);
        check_int "one rotation per further record" 2 (Journal.Writer.rotations w);
        Journal.Writer.close w;
        match Journal.read path with
        | Error msg -> Alcotest.fail msg
        | Ok rr ->
          check_int "all three records read back" 3
            (List.length rr.Journal.r_entries))

let test_create_removes_stale_segments () =
  with_journal_path (fun path ->
      write_file (path ^ ".1")
        (Journal.segment_header ~meta:"stale" ^ Journal.encode_entry (entry "old"));
      match Journal.Writer.create ~meta:"fresh" path with
      | Error msg -> Alcotest.fail msg
      | Ok w ->
        Journal.Writer.append w (entry "new");
        Journal.Writer.close w;
        check_bool "stale rotated segment removed" false
          (Sys.file_exists (path ^ ".1"));
        match Journal.read path with
        | Error msg -> Alcotest.fail msg
        | Ok rr ->
          check_string "only the fresh session remains" "new"
            (match rr.Journal.r_entries with [ e ] -> e.Journal.e_payload | _ -> ""))

(* ------------------------------------------------------------------ *)
(* Tail recovery and reader errors                                     *)
(* ------------------------------------------------------------------ *)

let test_truncated_tail () =
  let s =
    Journal.segment_header ~meta:"m"
    ^ Journal.encode_entry (entry ~seq:1 "first")
    ^ Journal.encode_entry (entry ~seq:2 "hello world")
  in
  let keeps_first cut expect_why =
    match Journal.read_string (String.sub s 0 cut) with
    | Error e -> Alcotest.fail e
    | Ok rr ->
      check_int "first entry intact" 1 (List.length rr.Journal.r_entries);
      check_string "its payload is whole" "first"
        (List.hd rr.Journal.r_entries).Journal.e_payload;
      (match rr.Journal.r_tail with
       | Some why -> check_bool ("tail says " ^ expect_why) true (contains why expect_why)
       | None -> Alcotest.fail "expected a tail diagnostic")
  in
  keeps_first (String.length s - 3) "truncated record payload";
  let e2_start =
    String.length s
    - String.length (Journal.encode_entry (entry ~seq:2 "hello world"))
  in
  keeps_first (e2_start + 4) "truncated record header";
  (* A mangled (not just cut) record header also degrades to a tail. *)
  let mangled = Bytes.of_string s in
  Bytes.set mangled e2_start 'x';
  (match Journal.read_string (Bytes.to_string mangled) with
   | Error e -> Alcotest.fail e
   | Ok rr ->
     check_int "entries before the mangling intact" 1
       (List.length rr.Journal.r_entries);
     check_bool "mangled header is a tail, not a crash" true
       (match rr.Journal.r_tail with
        | Some why -> contains why "malformed record header"
        | None -> false))

let test_corrupt_segment_stops_spanning () =
  (* A damaged later segment poisons everything after it but keeps
     what was read: base.1 is fine, the active segment is not. *)
  with_journal_path (fun path ->
      write_file (path ^ ".1")
        (Journal.segment_header ~meta:"m" ^ Journal.encode_entry (entry "kept"));
      write_file path "this is not a pak journal";
      match Journal.read path with
      | Error e -> Alcotest.fail e
      | Ok rr ->
        check_int "first segment read" 1 (List.length rr.Journal.r_entries);
        check_bool "bad active segment reported as tail" true
          (match rr.Journal.r_tail with
           | Some why -> contains why "bad magic"
           | None -> false))

let test_reader_errors () =
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "empty input" true (is_err (Journal.read_string ""));
  check_bool "bad magic" true (is_err (Journal.read_string "garbage bytes"));
  check_bool "future version refused" true
    (is_err (Journal.read_string "pakjournal 99 0\n\n"));
  check_bool "missing journal path" true
    (is_err (Journal.read "/nonexistent/journal/path"))

let test_counter_identities () =
  (* journal.read.records = journal.appends, and append_bytes sums the
     encoded record sizes — the identities doc/PERFORMANCE.md sells. *)
  with_journal_path (fun path ->
      with_metrics (fun () ->
          let entries = List.init 3 (fun i -> entry ~seq:i (Printf.sprintf "p%d" i)) in
          let bytes =
            List.fold_left
              (fun acc e -> acc + String.length (Journal.encode_entry e))
              0 entries
          in
          let (), snap =
            Obs.Snapshot.diff_capture (fun () ->
                (match Journal.Writer.create ~meta:"m" path with
                 | Error msg -> Alcotest.fail msg
                 | Ok w ->
                   List.iter (Journal.Writer.append w) entries;
                   Journal.Writer.close w);
                match Journal.read path with
                | Error msg -> Alcotest.fail msg
                | Ok rr -> check_int "read back" 3 (List.length rr.Journal.r_entries))
          in
          check_int "read.records = appends" (delta snap "journal.appends")
            (delta snap "journal.read.records");
          check_int "three appends" 3 (delta snap "journal.appends");
          check_int "append_bytes sums encoded records" bytes
            (delta snap "journal.append_bytes")))

(* ------------------------------------------------------------------ *)
(* Replay normalization                                                *)
(* ------------------------------------------------------------------ *)

let test_strip_groups () =
  check_string "named group and its leading space removed"
    "(response (id 1) (result x))"
    (Replay.strip_groups [ "trace" ] "(response (id 1) (trace abc) (result x))");
  check_string "nested groups removed whole" "(a b)"
    (Replay.strip_groups [ "metrics" ] "(a (metrics (x (y 1)) (z 2)) b)");
  check_string "quoted parens do not confuse the matcher"
    {|(a (result "(trace 2)"))|}
    (Replay.strip_groups [ "trace" ] {|(a (trace 1) (result "(trace 2)"))|});
  check_string "name must match whole atom" "(r (tracex 1))"
    (Replay.strip_groups [ "trace" ] "(r (tracex 1) (trace 2))");
  check_string "status disposition also strips the result"
    "(response (id 1) (code 0) (status ok))"
    (Replay.normalize ~disp:"status"
       "(response (id 1) (code 0) (status ok) (result (uptime-ticks 5)) (metrics (m 1)))");
  check_string "ordinary dispositions keep the result"
    "(response (id 1) (code 0) (status ok) (result true))"
    (Replay.normalize ~disp:"ok"
       "(response (id 1) (code 0) (status ok) (result true) (trace aa))")

let test_meta_roundtrip () =
  let cfg =
    { Serve.default_config with
      Serve.jobs = 3;
      max_pending = 7;
      batch = 2;
      cache_max = 11;
      drain_ms = None;
      limits = Budget.limits ~max_points:1234 ~timeout_ms:500 ()
    }
  in
  let cfg' = Replay.config_of_meta (Replay.meta_of_config cfg) in
  check_int "jobs" 3 cfg'.Serve.jobs;
  check_int "max_pending" 7 cfg'.Serve.max_pending;
  check_int "batch" 2 cfg'.Serve.batch;
  check_int "cache_max" 11 cfg'.Serve.cache_max;
  check_bool "drain_ms none survives" true (cfg'.Serve.drain_ms = None);
  check_bool "limits survive" true
    (cfg'.Serve.limits.Budget.max_points = Some 1234
    && cfg'.Serve.limits.Budget.timeout_ms = Some 500
    && cfg'.Serve.limits.Budget.max_nodes = None);
  (* Tolerance: garbage meta degrades to the defaults, no exception. *)
  let dflt = Replay.config_of_meta "not a serve-config" in
  check_int "garbage meta falls back to default jobs"
    Serve.default_config.Serve.jobs dflt.Serve.jobs

(* Recorders that still had an evaluator selector wrote an
   (engine recursive|vectorized) field right after the version. Such
   journals must replay under the same configuration as ones without
   it: the field is ignored. *)
let test_meta_engine_field_ignored () =
  let cfg =
    { Serve.default_config with
      Serve.jobs = 2;
      cache_max = 5;
      limits = Budget.limits ~max_iters:9 ~timeout_ms:250 ()
    }
  in
  let meta = Replay.meta_of_config cfg in
  check_bool "no engine field written" false (contains meta "(engine");
  let prefix = "(serve-config (version 1) " in
  check_bool "meta starts with the version" true
    (String.length meta > String.length prefix
    && String.sub meta 0 (String.length prefix) = prefix);
  let rest = String.sub meta (String.length prefix) (String.length meta - String.length prefix) in
  List.iter
    (fun engine ->
      let older = prefix ^ "(engine " ^ engine ^ ") " ^ rest in
      check_string
        (Printf.sprintf "(engine %s) parses to the same config" engine)
        meta
        (Replay.meta_of_config (Replay.config_of_meta older)))
    [ "recursive"; "vectorized" ]

(* ------------------------------------------------------------------ *)
(* Record -> replay round-trip                                         *)
(* ------------------------------------------------------------------ *)

let doc1 = lazy (Tree_io.to_string (Pak_systems.Figure_one.tree ()))

let request ~id ~formula =
  let open Serve.Sexp in
  let field k v = List [ Atom k; v ] in
  to_string
    (List
       [ Atom "request";
         field "id" (Atom (string_of_int id));
         field "op" (Atom "eval");
         field "system" (Str (Lazy.force doc1));
         field "formula" (Str formula)
       ])

(* One recorded session, in memory: two real evaluations (the second a
   cache hit), a junk blob between them, a ping and an (op status) —
   every disposition class the differ treats specially. *)
let record_session () =
  let buf = Buffer.create 4096 in
  let cfg = { Serve.default_config with Serve.batch = 1 } in
  Buffer.add_string buf
    (Journal.segment_header ~meta:(Replay.meta_of_config cfg));
  let sink =
    { Journal.emit = (fun e -> Buffer.add_string buf (Journal.encode_entry e));
      position = (fun () -> Buffer.length buf);
      rotations = (fun () -> 0)
    }
  in
  let input =
    Serve.Frame.encode (request ~id:1 ~formula:"K[0] a0_g0")
    ^ "!!junk!!"
    ^ Serve.Frame.encode (request ~id:2 ~formula:"K[0] a0_g0")
    ^ Serve.Frame.encode "(ping (id 3))"
    ^ Serve.Frame.encode "(request (id 4) (op status))"
  in
  let _out, code =
    Serve.run_string ~config:{ cfg with Serve.journal = Some sink } input
  in
  check_int "recording session drains clean" 0 code;
  Buffer.contents buf

let test_record_replay_roundtrip () =
  let journal = record_session () in
  match Journal.read_string journal with
  | Error e -> Alcotest.fail e
  | Ok rr ->
    let replay jobs =
      match Replay.run ~jobs rr with
      | Error e -> Alcotest.fail e
      | Ok rep ->
        check_int "four request frames" 4 rep.Replay.rp_requests;
        check_int "junk request and its response skipped" 2
          rep.Replay.rp_skipped_junk;
        check_int "five responses compared" 5 rep.Replay.rp_compared;
        check_int "all matched" rep.Replay.rp_compared rep.Replay.rp_matched;
        check_bool "no divergences" true (rep.Replay.rp_divergences = []);
        check_int "nothing missing" 0 rep.Replay.rp_missing;
        check_int "nothing extra" 0 rep.Replay.rp_extra;
        check_bool "clean tail" true (rep.Replay.rp_tail = None)
    in
    replay 1;
    replay 4

let test_tampered_journal_diverges () =
  let journal = record_session () in
  (* The acceptance tamper: flip one byte of the first recorded
     "(status ok)" — sed '0,/(status ok)/s//(status oK)/'. *)
  let ix =
    match find journal "(status ok)" with
    | Some i -> i
    | None -> Alcotest.fail "no (status ok) in the recording"
  in
  let b = Bytes.of_string journal in
  Bytes.set b (ix + String.length "(status o") 'K';
  match Journal.read_string (Bytes.to_string b) with
  | Error e -> Alcotest.fail e
  | Ok rr -> (
    (* The frame the tamper landed in, per the untampered recording. *)
    let expected =
      match Journal.read_string journal with
      | Ok orig ->
        List.find
          (fun e ->
            e.Journal.e_kind = Journal.Response
            && contains e.Journal.e_payload "(status ok)")
          orig.Journal.r_entries
      | Error e -> Alcotest.fail e
    in
    match Replay.run ~jobs:1 rr with
    | Error e -> Alcotest.fail e
    | Ok rep -> (
      match rep.Replay.rp_divergences with
      | [ d ] ->
        check_int "divergence names the tampered frame seq"
          expected.Journal.e_seq d.Replay.d_seq;
        check_string "and carries its trace id" expected.Journal.e_trace
          d.Replay.d_trace;
        check_bool "recorded side shows the tamper" true
          (contains d.Replay.d_want "(status oK)");
        check_bool "replayed side shows the truth" true
          (contains d.Replay.d_got "(status ok)");
        check_int "everything else still matches"
          (rep.Replay.rp_compared - 1) rep.Replay.rp_matched
      | l ->
        Alcotest.fail
          (Printf.sprintf "expected exactly 1 divergence, got %d" (List.length l))))

let () =
  Alcotest.run "pak_journal"
    [ ( "codec",
        [ Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "token sanitization" `Quick test_token_sanitization
        ] );
      ( "writer",
        [ Alcotest.test_case "rotation at the exact size boundary" `Quick
            test_rotation_boundary;
          Alcotest.test_case "oversized record terminates" `Quick
            test_oversized_record_terminates;
          Alcotest.test_case "create removes stale segments" `Quick
            test_create_removes_stale_segments
        ] );
      ( "reader",
        [ Alcotest.test_case "truncated tail recovery" `Quick test_truncated_tail;
          Alcotest.test_case "corrupt segment stops spanning" `Quick
            test_corrupt_segment_stops_spanning;
          Alcotest.test_case "reader errors" `Quick test_reader_errors;
          Alcotest.test_case "counter identities" `Quick test_counter_identities
        ] );
      ( "replay",
        [ Alcotest.test_case "strip groups" `Quick test_strip_groups;
          Alcotest.test_case "meta round-trip" `Quick test_meta_roundtrip;
          Alcotest.test_case "record/replay round-trip" `Quick
            test_record_replay_roundtrip;
          Alcotest.test_case "tampered journal diverges" `Quick
            test_tampered_journal_diverges;
          Alcotest.test_case "older meta with an engine field" `Quick
            test_meta_engine_field_ignored
        ] )
    ]
