(* Deterministic journal replay (see replay.mli for the contract).

   The whole scheme rests on serve's responses being a pure function
   of the input byte stream: trace ids are digests of (frame seq, item
   index, payload), which requests are shed does not depend on --jobs,
   and Monte-Carlo degradation is seeded. The only impurities are the
   observability fields — (trace ...) / (metrics ...) groups and the
   (result ...) of introspection ops — which [normalize] strips before
   the byte comparison. *)

module Journal = Pak_journal.Journal
module Sexp = Serve.Sexp

type divergence = {
  d_seq : int;
  d_trace : string;
  d_want : string;
  d_got : string;
}

type report = {
  rp_requests : int;
  rp_skipped_junk : int;
  rp_compared : int;
  rp_matched : int;
  rp_divergences : divergence list;
  rp_missing : int;
  rp_extra : int;
  rp_tail : string option;
}

(* ------------------------------------------------------------------ *)
(* Meta: the recorded serve configuration                              *)
(* ------------------------------------------------------------------ *)

(* [(jobs N)] first, then every journaled setting in table order. *)
let meta_of_config (cfg : Serve.config) =
  let b = Buffer.create 256 in
  Printf.bprintf b "(serve-config (version 1) (jobs %d)" cfg.Serve.jobs;
  List.iter
    (fun (s : Serve.setting) ->
      if s.journaled then
        Printf.bprintf b " (%s %s)" s.name
          (match s.get cfg with None -> "none" | Some v -> string_of_int v))
    Serve.settings;
  Buffer.add_char b ')';
  Buffer.contents b

(* Fields this binary does not know (a newer recorder's, or an older
   one's (engine ...) selector) and malformed values are ignored. *)
let config_of_meta meta =
  let field (cfg : Serve.config) = function
    | Sexp.List [ Sexp.Atom "jobs"; Sexp.Atom v ] -> (
        match int_of_string_opt v with Some n -> { cfg with jobs = n } | None -> cfg)
    | Sexp.List [ Sexp.Atom key; Sexp.Atom v ] -> (
        match
          List.find_opt (fun (s : Serve.setting) -> s.journaled && s.name = key) Serve.settings
        with
        | Some s when s.optional && v = "none" -> s.set cfg None
        | Some s -> (
            match int_of_string_opt v with Some n -> s.set cfg (Some n) | None -> cfg)
        | None -> cfg)
    | _ -> cfg
  in
  match Sexp.parse meta with
  | Ok (Sexp.List (Sexp.Atom "serve-config" :: fields)) ->
      List.fold_left field Serve.default_config fields
  | _ -> Serve.default_config

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let strip_groups names s =
  let rec strip = function
    | Sexp.List xs ->
        Sexp.List
          (List.filter_map
             (function
               | Sexp.List (Sexp.Atom n :: _) when List.mem n names -> None
               | x -> Some (strip x))
             xs)
    | x -> x
  in
  match Sexp.parse s with
  | Ok x -> Sexp.to_string (strip x)
  | Result.Error _ -> s

let normalize ~disp s =
  let s = strip_groups [ "trace"; "metrics" ] s in
  if disp = "metrics" || disp = "status" then strip_groups [ "result" ] s else s

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Split a response byte stream back into frame payloads. The stream
   is our own output, so junk here would itself be a bug — surface it
   as a payload so it shows up as a divergence, not silently. *)
let decode_frames bytes =
  let rd = Serve.Frame.reader (Serve.Frame.source_of_string bytes) in
  let rec go acc =
    match Serve.Frame.read rd with
    | Serve.Frame.Eof -> List.rev acc
    | Serve.Frame.Payload p -> go (p :: acc)
    | Serve.Frame.Junk _ -> go ("<unframed bytes in replay output>" :: acc)
  in
  go []

let run ?jobs ?clock ?limits (rr : Journal.read_result) =
  let cfg = config_of_meta rr.Journal.r_meta in
  let cfg =
    {
      cfg with
      Serve.journal = None;
      telemetry = None;
      telemetry_every = 0;
      clock;
    }
  in
  let cfg = match jobs with Some j -> { cfg with Serve.jobs = j } | None -> cfg in
  let cfg =
    match limits with Some l -> { cfg with Serve.limits = l } | None -> cfg
  in
  match Serve.validate_config cfg with
  | Result.Error m ->
      Result.Error ("journal meta yields an invalid configuration: " ^ m)
  | Ok () ->
      let requests, junk_requests =
        List.partition
          (fun e -> e.Journal.e_disp <> "junk")
          (List.filter
             (fun e -> e.Journal.e_kind = Journal.Request)
             rr.Journal.r_entries)
      in
      let expected, junk_responses =
        List.partition
          (fun e -> e.Journal.e_disp <> "junk")
          (List.filter
             (fun e -> e.Journal.e_kind = Journal.Response)
             rr.Journal.r_entries)
      in
      let input = Buffer.create 4096 in
      List.iter
        (fun e ->
          Buffer.add_string input (Serve.Frame.encode e.Journal.e_payload))
        requests;
      let out, _code = Serve.run_string ~config:cfg (Buffer.contents input) in
      let got = decode_frames out in
      let rec pair exp got compared matched divs =
        match (exp, got) with
        | [], rest ->
            (compared, matched, List.rev divs, 0, List.length rest)
        | rest, [] ->
            (compared, matched, List.rev divs, List.length rest, 0)
        | e :: exp', g :: got' ->
            let want = normalize ~disp:e.Journal.e_disp e.Journal.e_payload in
            let got_n = normalize ~disp:e.Journal.e_disp g in
            if want = got_n then pair exp' got' (compared + 1) (matched + 1) divs
            else
              pair exp' got' (compared + 1) matched
                ({
                   d_seq = e.Journal.e_seq;
                   d_trace = e.Journal.e_trace;
                   d_want = want;
                   d_got = got_n;
                 }
                :: divs)
      in
      let compared, matched, divergences, missing, extra =
        pair expected got 0 0 []
      in
      Ok
        {
          rp_requests = List.length requests;
          rp_skipped_junk = List.length junk_requests + List.length junk_responses;
          rp_compared = compared;
          rp_matched = matched;
          rp_divergences = divergences;
          rp_missing = missing;
          rp_extra = extra;
          rp_tail = rr.Journal.r_tail;
        }
