(* pak_serve — a fault-isolated batch/server front end (ROADMAP item 2).

   One long-lived process, many (system × formula) requests:
   length-prefixed s-expression frames arrive on a byte source,
   responses leave through a write callback, evaluation is scheduled on
   the pak_par pool. The invariants this file defends:

   - a request failure of any kind (malformed frame, unparsable
     system/formula, exhausted budget, worker exception) produces an
     error *response* and never terminates the loop;
   - memory is bounded: frames are capped, the pending queue is
     bounded by shedding, caches are FIFO-bounded;
   - responses are written in arrival order (shed and error responses
     join the same queue as real results);
   - everything observable is a serve.* counter or span. *)

module Error = Pak_guard.Error
module Budget = Pak_guard.Budget
module Graded = Pak_guard.Graded
module Obs = Pak_obs.Obs
module Journal = Pak_journal.Journal
module Pool = Pak_par.Pool
module Q = Pak_rational.Q
module Tree = Pak_pps.Tree
module Tree_io = Pak_pps.Tree_io
module Fact = Pak_pps.Fact
module Belief = Pak_pps.Belief
module Bitset = Pak_pps.Bitset
module Parser = Pak_logic.Parser
module Semantics = Pak_logic.Semantics
module Closure = Pak_logic.Closure

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let c_frames = Obs.counter "serve.frames"
let c_requests = Obs.counter "serve.requests"
let c_responses = Obs.counter "serve.responses"
let c_batches = Obs.counter "serve.batches"
let c_pings = Obs.counter "serve.pings"
let c_drains = Obs.counter "serve.drains"
let c_shed = Obs.counter "serve.shed"
let c_degraded = Obs.counter "serve.degraded"
let c_err_protocol = Obs.counter "serve.errors.protocol"
let c_err_request = Obs.counter "serve.errors.request"
let c_err_input = Obs.counter "serve.errors.input"
let c_err_budget = Obs.counter "serve.errors.budget"
let c_err_internal = Obs.counter "serve.errors.internal"
let c_cache_hits = Obs.counter "serve.cache.hits"
let c_cache_misses = Obs.counter "serve.cache.misses"
let c_cache_evictions = Obs.counter "serve.cache.evictions"
let c_tree_hits = Obs.counter "serve.tree_cache.hits"
let c_tree_misses = Obs.counter "serve.tree_cache.misses"

(* Live levels for the gauge provider. Deterministic at capture time:
   the queue is empty whenever control is outside [drain], and the
   cache level is a pure function of the request history. *)
let g_pending = Atomic.make 0
let g_cache_entries = Atomic.make 0

let () =
  Obs.register_gauges (fun () ->
      [
        ("serve.pending", float_of_int (Atomic.get g_pending));
        ("serve.cache_entries", float_of_int (Atomic.get g_cache_entries));
      ])

(* ------------------------------------------------------------------ *)
(* S-expressions (same dialect as Tree_io)                             *)
(* ------------------------------------------------------------------ *)

module Sexp = struct
  type t = Atom of string | Str of string | List of t list

  let max_nesting = 200

  exception Bad of string

  let quote buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let rec add_to_buffer buf = function
    | Atom s -> Buffer.add_string buf s
    | Str s -> quote buf s
    | List xs ->
        Buffer.add_char buf '(';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ' ';
            add_to_buffer buf x)
          xs;
        Buffer.add_char buf ')'

  let to_string x =
    let buf = Buffer.create 64 in
    add_to_buffer buf x;
    Buffer.contents buf

  let tokenize input =
    let n = String.length input in
    let toks = ref [] in
    let i = ref 0 in
    while !i < n do
      let c = input.[!i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
      else if c = '(' then begin
        toks := `Open :: !toks;
        incr i
      end
      else if c = ')' then begin
        toks := `Close :: !toks;
        incr i
      end
      else if c = '"' then begin
        (* Each run of plain bytes is copied with one blit. *)
        let buf = Buffer.create 16 in
        incr i;
        let start = ref !i in
        let closed = ref false in
        while (not !closed) && !i < n do
          match input.[!i] with
          | '"' ->
              Buffer.add_substring buf input !start (!i - !start);
              closed := true;
              incr i
          | '\\' ->
              if !i + 1 >= n then raise (Bad "dangling escape in string");
              Buffer.add_substring buf input !start (!i - !start);
              Buffer.add_char buf input.[!i + 1];
              i := !i + 2;
              start := !i
          | _ -> incr i
        done;
        if not !closed then raise (Bad "unterminated string");
        toks := `Str (Buffer.contents buf) :: !toks
      end
      else begin
        let start = !i in
        while
          !i < n
          &&
          let c = input.[!i] in
          not
            (c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')'
           || c = '"')
        do
          incr i
        done;
        toks := `Atom (String.sub input start (!i - start)) :: !toks
      end
    done;
    List.rev !toks

  let parse input =
    try
      let stack = ref [] in
      let depth = ref 0 in
      let result = ref None in
      let push v =
        match !stack with
        | items :: rest -> stack := (v :: items) :: rest
        | [] -> (
            match !result with
            | None -> result := Some v
            | Some _ -> raise (Bad "trailing data after toplevel form"))
      in
      List.iter
        (function
          | `Open ->
              if !depth >= max_nesting then raise (Bad "nesting too deep");
              incr depth;
              stack := [] :: !stack
          | `Close -> (
              match !stack with
              | items :: rest ->
                  decr depth;
                  stack := rest;
                  push (List (List.rev items))
              | [] -> raise (Bad "unbalanced ')'"))
          | `Atom s -> push (Atom s)
          | `Str s -> push (Str s))
        (tokenize input);
      if !stack <> [] then raise (Bad "unbalanced '('");
      match !result with None -> raise (Bad "empty frame") | Some v -> Ok v
    with Bad m -> Result.Error m
end

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

module Frame = struct
  let magic = "pak1 "
  let magic_len = String.length magic
  let default_max_frame = 1 lsl 20

  type source = bytes -> int -> int -> int

  let source_of_channel ic buf pos len = input ic buf pos len

  let source_of_string s =
    let off = ref 0 in
    fun buf pos len ->
      let n = min len (String.length s - !off) in
      Bytes.blit_string s !off buf pos n;
      off := !off + n;
      n

  type junk = Garbage of int | Oversized of int | Truncated
  type event = Eof | Payload of string | Junk of junk

  type reader = {
    source : source;
    max_frame : int;
    mutable buf : Bytes.t;
    mutable pos : int;  (* start of unconsumed data *)
    mutable len : int;  (* end of valid data *)
    mutable eof : bool;  (* the source is exhausted *)
  }

  let reader ?(max_frame = default_max_frame) source =
    { source; max_frame; buf = Bytes.create 8192; pos = 0; len = 0; eof = false }

  (* Refill until at least [n] bytes are buffered past [pos] or the
     source ends; returns how many are available. A source exception is
     end-of-stream (robustness: a dying client must not kill us). *)
  let ensure r n =
    while r.len - r.pos < n && not r.eof do
      if r.pos > 0 then begin
        Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
        r.len <- r.len - r.pos;
        r.pos <- 0
      end;
      if Bytes.length r.buf < n then begin
        let b = Bytes.create (max n (2 * Bytes.length r.buf)) in
        Bytes.blit r.buf 0 b 0 r.len;
        r.buf <- b
      end;
      let got =
        try r.source r.buf r.len (Bytes.length r.buf - r.len) with _ -> 0
      in
      if got <= 0 then r.eof <- true else r.len <- r.len + got
    done;
    r.len - r.pos

  let magic_at r i =
    let ok = ref true in
    for k = 0 to magic_len - 1 do
      if Bytes.get r.buf (i + k) <> magic.[k] then ok := false
    done;
    !ok

  (* Skip up to [n] payload bytes without growing the buffer; returns
     how many were actually consumed (fewer only at EOF). *)
  let skip_n r n =
    let remaining = ref n in
    let stop = ref false in
    while !remaining > 0 && not !stop do
      let avail = r.len - r.pos in
      if avail > 0 then begin
        let take = min avail !remaining in
        r.pos <- r.pos + take;
        remaining := !remaining - take
      end
      else if ensure r 1 = 0 then stop := true
    done;
    n - !remaining

  (* The reader is mispositioned: drop at least one byte, then scan
     forward to the next magic (or EOF) and report how much was
     dropped. *)
  let resync r =
    r.pos <- r.pos + 1;
    let skipped = ref 1 in
    let result = ref (-1) in
    while !result < 0 do
      let avail = ensure r magic_len in
      if avail < magic_len then begin
        (* EOF tail shorter than a magic: drop it. *)
        skipped := !skipped + avail;
        r.pos <- r.len;
        result := 0
      end
      else begin
        let last = r.len - magic_len in
        let found = ref (-1) in
        let i = ref r.pos in
        while !found < 0 && !i <= last do
          if Bytes.get r.buf !i = 'p' && magic_at r !i then found := !i
          else incr i
        done;
        match !found with
        | -1 ->
            (* Keep a magic-sized tail for the next scan. *)
            let keep_from = r.len - (magic_len - 1) in
            skipped := !skipped + (keep_from - r.pos);
            r.pos <- keep_from
        | at ->
            skipped := !skipped + (at - r.pos);
            r.pos <- at;
            result := 0
      end
    done;
    Junk (Garbage !skipped)

  let is_digit c = c >= '0' && c <= '9'

  (* At most 11 length digits: fits in an int, and anything longer is
     garbage by fiat. *)
  let max_digits = 11

  (* The header is pulled in a byte at a time, up to its newline or the
     digit cap, so a complete frame shorter than the longest header is
     answered without waiting for more input. *)
  let read r =
    if ensure r 1 = 0 then Eof
    else if ensure r magic_len < magic_len || not (magic_at r r.pos) then resync r
    else begin
      (* The header byte [k] bytes past [pos]; [None] at EOF. *)
      let byte_at k =
        if ensure r (k + 1) > k then Some (Bytes.get r.buf (r.pos + k)) else None
      in
      let rec digits_end k =
        if k > magic_len + max_digits then k
        else match byte_at k with Some c when is_digit c -> digits_end (k + 1) | _ -> k
      in
      let k = digits_end magic_len in
      let ndigits = k - magic_len in
      if ndigits = 0 || ndigits > max_digits then resync r
      else
        match byte_at k with
        | None ->
            (* "pak1 123" then EOF: a frame was started, never finished. *)
            r.pos <- r.len;
            Junk Truncated
        | Some c when c <> '\n' -> resync r
        | Some _ ->
            let len = int_of_string (Bytes.sub_string r.buf (r.pos + magic_len) ndigits) in
            r.pos <- r.pos + k + 1;
            if len > r.max_frame then
              (* Oversized but plausibly honest: skip the declared
                 payload so the next frame parses. Absurd declared
                 lengths (16x the cap) are treated as garbage instead of
                 skipping gigabytes of a hostile stream. *)
              if len > 16 * r.max_frame then begin
                r.pos <- r.pos - 1;
                resync r
              end
              else begin
                let skipped = skip_n r len in
                if skipped < len then Junk Truncated else Junk (Oversized len)
              end
            else begin
              let got = ensure r len in
              if got < len then begin
                r.pos <- r.len;
                Junk Truncated
              end
              else begin
                let payload = Bytes.sub_string r.buf r.pos len in
                r.pos <- r.pos + len;
                Payload payload
              end
            end
    end

  let encode payload =
    let b = Buffer.create (String.length payload + magic_len + 8) in
    Buffer.add_string b magic;
    Buffer.add_string b (string_of_int (String.length payload));
    Buffer.add_char b '\n';
    Buffer.add_string b payload;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type op =
  | Op_eval
  | Op_belief of {
      agent : int;
      run : int;
      time : int;
      samples : int option;
      seed : int option;
    }
  | Op_metrics
  | Op_status

type request = {
  req_id : int;
  op : op;
  system : string;
  formula : string;
  req_limits : Budget.limits;
  want_metrics : bool;
  req_trace : string;
  req_seq : int;  (* originating payload-frame sequence number *)
}

(* Request-scoped trace id: a digest of (payload-frame sequence number,
   item index within the frame, payload digest), truncated to 16 hex
   chars. A pure function of the input byte stream — byte-identical at
   every --jobs — and unique per request: distinct frames differ in
   [seq], batch members in [ix]. Returned in the response, installed
   as the Obs trace context while the request runs (so its spans'
   trace events carry it), and stamped into per-request metrics. *)
let trace_id ~seq ~ix payload =
  String.sub
    (Digest.to_hex
       (Digest.string (Printf.sprintf "%d:%d:%s" seq ix (Digest.string payload))))
    0 16

exception Bad_request of string

let parse_request fields =
  let id = ref None in
  let op = ref None in
  let system = ref None in
  let formula = ref None in
  let agent = ref None in
  let run = ref None in
  let time = ref None in
  let samples = ref None in
  let seed = ref None in
  let mp = ref None in
  let mn = ref None in
  let ml = ref None in
  let mi = ref None in
  let tm = ref None in
  let metrics = ref false in
  try
    List.iter
      (function
        | Sexp.List (Sexp.Atom key :: rest) -> (
            let one () =
              match rest with
              | [ v ] -> v
              | _ -> raise (Bad_request (key ^ ": expected one value"))
            in
            let int_v () =
              match one () with
              | Sexp.Atom s -> (
                  match int_of_string_opt s with
                  | Some v -> v
                  | None -> raise (Bad_request (key ^ ": not an integer")))
              | _ -> raise (Bad_request (key ^ ": not an integer"))
            in
            let text_v () =
              match one () with
              | Sexp.Atom s | Sexp.Str s -> s
              | _ -> raise (Bad_request (key ^ ": expected text"))
            in
            let cap r =
              let v = int_v () in
              if v < 0 then raise (Bad_request (key ^ ": negative"));
              r := Some v
            in
            match key with
            | "id" -> id := Some (int_v ())
            | "op" -> (
                match text_v () with
                | "eval" -> op := Some `Eval
                | "belief" -> op := Some `Belief
                | "metrics" -> op := Some `Metrics
                | "status" -> op := Some `Status
                | other -> raise (Bad_request ("unknown op " ^ other)))
            | "system" -> system := Some (text_v ())
            | "formula" -> formula := Some (text_v ())
            | "agent" -> agent := Some (int_v ())
            | "run" -> run := Some (int_v ())
            | "time" -> time := Some (int_v ())
            | "samples" ->
                let v = int_v () in
                if v < 1 then raise (Bad_request "samples: must be >= 1");
                samples := Some v
            | "seed" -> seed := Some (int_v ())
            | "max-points" -> cap mp
            | "max-nodes" -> cap mn
            | "max-limbs" -> cap ml
            | "max-iters" -> cap mi
            | "timeout-ms" -> cap tm
            | "metrics" -> (
                match text_v () with
                | "true" -> metrics := true
                | "false" -> metrics := false
                | _ -> raise (Bad_request "metrics: expected true or false"))
            | other -> raise (Bad_request ("unknown field " ^ other)))
        | _ -> raise (Bad_request "request fields must be (key value) lists"))
      fields;
    let need key r =
      match !r with
      | Some v -> v
      | None -> raise (Bad_request ("missing field " ^ key))
    in
    let rid = need "id" id in
    let op =
      match need "op" op with
      | `Eval -> Op_eval
      | `Belief ->
          Op_belief
            {
              agent = need "agent" agent;
              run = need "run" run;
              time = need "time" time;
              samples = !samples;
              seed = !seed;
            }
      | `Metrics -> Op_metrics
      | `Status -> Op_status
    in
    (* A metrics or status request introspects the server itself; it
       carries no system or formula. *)
    let text key r =
      if op = Op_metrics || op = Op_status then Option.value !r ~default:""
      else need key r
    in
    Ok
      {
        req_id = rid;
        op;
        system = text "system" system;
        formula = text "formula" formula;
        req_limits =
          {
            Budget.max_points = !mp;
            max_nodes = !mn;
            max_limbs = !ml;
            max_iters = !mi;
            timeout_ms = !tm;
          };
        want_metrics = !metrics;
        req_trace = "";
        req_seq = 0;
      }
  with Bad_request m ->
    Result.Error ((match !id with Some i -> i | None -> -1), m)

type item = Item_req of request | Item_bad of int * string * string  (* trace *)

type msg = Msg_items of item list * bool  (* is_batch *) | Msg_ping of int | Msg_shutdown

let item_of_fields ~seq ~trace fields =
  match parse_request fields with
  | Ok r -> Item_req { r with req_trace = trace; req_seq = seq }
  | Error (id, m) -> Item_bad (id, m, trace)

(* [trace ix] yields the trace id for item index [ix] of the frame. *)
let parse_msg ~seq ~trace = function
  | Sexp.List (Sexp.Atom "request" :: fields) ->
      Msg_items ([ item_of_fields ~seq ~trace:(trace 0) fields ], false)
  | Sexp.List (Sexp.Atom "batch" :: entries) ->
      let items =
        List.mapi
          (fun ix entry ->
            match entry with
            | Sexp.List (Sexp.Atom "request" :: fields) ->
                item_of_fields ~seq ~trace:(trace ix) fields
            | _ -> Item_bad (-1, "batch entries must be (request ...)", trace ix))
          entries
      in
      Msg_items (items, true)
  | Sexp.List [ Sexp.Atom "ping" ] -> Msg_ping 0
  | Sexp.List [ Sexp.Atom "ping"; Sexp.List [ Sexp.Atom "id"; Sexp.Atom v ] ]
    when int_of_string_opt v <> None ->
      Msg_ping (int_of_string v)
  | Sexp.List [ Sexp.Atom "shutdown" ] -> Msg_shutdown
  | _ -> Msg_items ([ Item_bad (-1, "unknown frame form", trace 0) ], false)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  jobs : int;
  max_pending : int;
  batch : int;
  max_frame : int;
  cache_max : int;
  tree_cache_max : int;
  drain_ms : int option;
  retry_after_ms : int;
  limits : Budget.limits;
  clock : (unit -> float) option;
  telemetry_every : int;  (* 0 = off: emit a telemetry frame per N requests *)
  telemetry : (string -> unit) option;  (* side-channel sink, one line per frame *)
  journal : Journal.sink option;  (* flight recorder, None = off *)
}

let default_config =
  {
    jobs = 1;
    max_pending = 64;
    batch = 0;
    max_frame = Frame.default_max_frame;
    cache_max = 256;
    tree_cache_max = 32;
    drain_ms = Some 2_000;
    retry_after_ms = 50;
    limits = Budget.unlimited;
    clock = None;
    telemetry_every = 0;
    telemetry = None;
    journal = None;
  }

let validate_config cfg =
  let err fmt = Printf.ksprintf (fun m -> Result.Error m) fmt in
  if cfg.jobs < 1 then err "--jobs must be >= 1 (got %d)" cfg.jobs
  else if cfg.max_pending < 1 then
    err "--max-pending must be >= 1 (got %d)" cfg.max_pending
  else if cfg.batch < 0 then err "--batch must be >= 0 (got %d)" cfg.batch
  else if cfg.batch > cfg.max_pending then
    err "--batch %d exceeds --max-pending %d" cfg.batch cfg.max_pending
  else if cfg.max_frame < 64 then
    err "--max-frame must be >= 64 bytes (got %d)" cfg.max_frame
  else if cfg.cache_max < 0 then
    err "--cache-max must be >= 0 (got %d)" cfg.cache_max
  else if cfg.tree_cache_max < 1 then
    err "--tree-cache-max must be >= 1 (got %d)" cfg.tree_cache_max
  else if cfg.retry_after_ms < 1 then
    err "--retry-after-ms must be >= 1 (got %d)" cfg.retry_after_ms
  else if (match cfg.drain_ms with Some d -> d < 0 | None -> false) then
    err "--drain-ms must be >= 0"
  else if cfg.telemetry_every < 0 then
    err "--telemetry-every must be >= 0 (got %d)" cfg.telemetry_every
  else if cfg.telemetry_every > 0 && Option.is_none cfg.telemetry then
    err "--telemetry-every requires a telemetry sink (--telemetry-file)"
  else
    let bad_cap =
      List.find_opt
        (fun (_, v) -> match v with Some v -> v <= 0 | None -> false)
        [
          ("--max-points", cfg.limits.Budget.max_points);
          ("--max-nodes", cfg.limits.Budget.max_nodes);
          ("--max-limbs", cfg.limits.Budget.max_limbs);
          ("--max-iters", cfg.limits.Budget.max_iters);
          ("--timeout-ms", cfg.limits.Budget.timeout_ms);
        ]
    in
    match bad_cap with
    | Some (name, _) ->
        err "server-level %s of 0 or less would fail every request" name
    | None -> Ok ()

(* A request may only lower the server-level caps. *)
let merge_limits server req =
  let field s r =
    match (s, r) with
    | None, v | v, None -> v
    | Some s, Some r -> Some (min s r)
  in
  {
    Budget.max_points = field server.Budget.max_points req.Budget.max_points;
    max_nodes = field server.Budget.max_nodes req.Budget.max_nodes;
    max_limbs = field server.Budget.max_limbs req.Budget.max_limbs;
    max_iters = field server.Budget.max_iters req.Budget.max_iters;
    timeout_ms = field server.Budget.timeout_ms req.Budget.timeout_ms;
  }

(* ------------------------------------------------------------------ *)
(* Outcomes and rendering                                              *)
(* ------------------------------------------------------------------ *)

type outcome = {
  out_id : int;
  out_body : string;  (* rendered "(code ..) (status ..) ..." fields *)
  out_metrics : string;  (* "" or a rendered " (metrics ...)" *)
  out_cacheable : bool;
  out_trace : string;  (* "" = no trace field (junk/protocol outcomes) *)
  out_code : int;  (* exit-taxonomy code, journaled with the response *)
  out_disp : string;  (* journal disposition token *)
  out_seq : int;  (* originating payload-frame sequence number *)
}

let quoted s =
  let b = Buffer.create (String.length s + 2) in
  Sexp.quote b s;
  Buffer.contents b

let ok_outcome ?(disp = "ok") id body ~cacheable =
  {
    out_id = id;
    out_body = body;
    out_metrics = "";
    out_cacheable = cacheable;
    out_trace = "";
    out_code = 0;
    out_disp = disp;
    out_seq = 0;
  }

let error_outcome id (e : Error.t) =
  let code =
    match e.Error.kind with
    | Error.Budget_exceeded ->
        Obs.incr c_err_budget;
        4
    | Error.Parse | Error.Invalid_system | Error.Io ->
        Obs.incr c_err_input;
        3
  in
  {
    out_id = id;
    out_body =
      Printf.sprintf "(code %d) (status error) (kind %s) (error %s)" code
        (Error.kind_name e.Error.kind)
        (quoted (Error.to_string e));
    out_metrics = "";
    out_cacheable = false;
    out_trace = "";
    out_code = code;
    out_disp = "error";
    out_seq = 0;
  }

let internal_outcome id exn =
  Obs.incr c_err_internal;
  {
    out_id = id;
    out_body =
      Printf.sprintf "(code 125) (status error) (kind internal) (error %s)"
        (quoted (Printexc.to_string exn));
    out_metrics = "";
    out_cacheable = false;
    out_trace = "";
    out_code = 125;
    out_disp = "internal";
    out_seq = 0;
  }

let bad_request_outcome id msg =
  Obs.incr c_err_request;
  {
    out_id = id;
    out_body =
      Printf.sprintf "(code 2) (status error) (kind request) (error %s)"
        (quoted msg);
    out_metrics = "";
    out_cacheable = false;
    out_trace = "";
    out_code = 2;
    out_disp = "bad-request";
    out_seq = 0;
  }

let protocol_outcome msg =
  {
    out_id = -1;
    out_body =
      Printf.sprintf "(code 3) (status error) (kind protocol) (error %s)"
        (quoted msg);
    out_metrics = "";
    out_cacheable = false;
    out_trace = "";
    out_code = 3;
    out_disp = "protocol";
    out_seq = 0;
  }

let junk_outcome j =
  let o =
    match j with
    | Frame.Garbage n ->
        protocol_outcome (Printf.sprintf "garbage on stream: skipped %d bytes" n)
    | Frame.Oversized n ->
        protocol_outcome (Printf.sprintf "frame of %d bytes exceeds the cap" n)
    | Frame.Truncated -> protocol_outcome "stream ended inside a frame"
  in
  { o with out_disp = "junk" }

let overloaded_outcome cfg id =
  {
    out_id = id;
    out_body =
      Printf.sprintf "(code 4) (status overloaded) (retry-after-ms %d)"
        cfg.retry_after_ms;
    out_metrics = "";
    out_cacheable = false;
    out_trace = "";
    out_code = 4;
    out_disp = "shed";
    out_seq = 0;
  }

let render_metrics ~trace (d : Obs.Snapshot.t) =
  let b = Buffer.create 128 in
  Buffer.add_string b " (metrics";
  if trace <> "" then Printf.bprintf b " (trace %s)" trace;
  Buffer.add_string b " (counters";
  List.iter
    (fun (n, v) -> Printf.bprintf b " (%s %d)" n v)
    d.Obs.Snapshot.counters;
  Buffer.add_string b ") (histograms";
  List.iter
    (fun (n, counts) -> Printf.bprintf b " (%s %d)" n (Obs.total_count counts))
    d.Obs.Snapshot.histograms;
  Buffer.add_string b "))";
  Buffer.contents b

let render_response o =
  let trace =
    if o.out_trace = "" then "" else Printf.sprintf " (trace %s)" o.out_trace
  in
  Printf.sprintf "(response (id %d)%s %s%s)" o.out_id trace o.out_body
    o.out_metrics

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type pending = P_live of request * string option  (* cache key *) | P_done of outcome

type state = {
  cfg : config;
  pool : Pool.t option;
  q : pending Queue.t;
  mutable live : int;  (* P_live entries in [q] *)
  (* Parsed-system cache: written from worker domains, hence the
     mutex. FIFO-bounded. *)
  trees : (string, Tree.t) Hashtbl.t;
  tree_order : string Queue.t;
  tree_mutex : Mutex.t;
  (* Cross-request result cache: touched only on the main domain
     (lookups at enqueue, inserts after a drain), so no lock. *)
  results : (string, string) Hashtbl.t;
  result_order : string Queue.t;
  write_frame : string -> unit;
  (* (op status) tallies. The mutable ints are touched only on the main
     domain (enqueue / write_response / cache_put); the atomics are
     bumped from worker domains mid-drain. A status request is answered
     at enqueue time, when no drain is in flight, so every field below
     is settled — a pure function of the input stream so far, hence
     byte-identical at every --jobs. *)
  mutable frames : int;  (* payload-frame sequence counter *)
  mutable n_requests : int;
  mutable n_responses : int;
  mutable n_shed : int;
  mutable n_cache_hits : int;
  mutable n_cache_misses : int;
  mutable n_cache_evictions : int;
  n_degraded : int Atomic.t;
  n_tree_hits : int Atomic.t;
  n_tree_misses : int Atomic.t;
  t0 : float;  (* session start per the injected clock *)
}

let now st = match st.cfg.clock with Some f -> f () | None -> Sys.time ()

(* Injected-clock timestamp for journal records, in microseconds since
   the session began. *)
let ts_us st = int_of_float ((now st -. st.t0) *. 1e6)

let journal_emit st ~kind ~seq ~code ~disp ~trace payload =
  match st.cfg.journal with
  | None -> ()
  | Some sink ->
      sink.Journal.emit
        {
          Journal.e_kind = kind;
          e_seq = seq;
          e_code = code;
          e_disp = disp;
          e_trace = trace;
          e_ts_us = ts_us st;
          e_payload = payload;
        }

let cache_key cfg req =
  if cfg.cache_max = 0 || req.op = Op_metrics || req.op = Op_status then None
  else begin
    let b = Buffer.create 96 in
    Buffer.add_string b (Digest.to_hex (Digest.string req.system));
    Buffer.add_char b '|';
    (match req.op with
    | Op_eval -> Buffer.add_string b "eval"
    | Op_belief { agent; run; time; samples; seed } ->
        Printf.bprintf b "belief:%d:%d:%d:%d:%d" agent run time
          (Option.value samples ~default:(-1))
          (Option.value seed ~default:(-1))
    | Op_metrics | Op_status -> assert false  (* cache_key returns None above *));
    Buffer.add_char b '|';
    (* Formula component: the formula's closure digest when it parses — the digest canonicalizes spelling, so
       differently written but structurally identical queries share a
       cache slot (and closure-identical queries at the same limits are
       subsumed by one computed entry). A formula that does not parse
       keys on its raw text; its request fails in the worker and is
       never cached, so the fallback only disambiguates misses. *)
    (match Parser.parse_result req.formula with
    | Ok f -> Buffer.add_string b (Closure.digest (Closure.of_formula f))
    | Result.Error _ -> Buffer.add_string b req.formula);
    Buffer.add_char b '|';
    let lim = function None -> "-" | Some v -> string_of_int v in
    let l = req.req_limits in
    Printf.bprintf b "%s,%s,%s,%s,%s" (lim l.Budget.max_points)
      (lim l.Budget.max_nodes) (lim l.Budget.max_limbs) (lim l.Budget.max_iters)
      (lim l.Budget.timeout_ms);
    Some (Buffer.contents b)
  end

let cache_put st key body =
  if not (Hashtbl.mem st.results key) then begin
    Hashtbl.add st.results key body;
    Queue.add key st.result_order;
    while Hashtbl.length st.results > st.cfg.cache_max do
      Obs.incr c_cache_evictions;
      st.n_cache_evictions <- st.n_cache_evictions + 1;
      Hashtbl.remove st.results (Queue.pop st.result_order)
    done;
    Atomic.set g_cache_entries (Hashtbl.length st.results)
  end

let tree_of_system st doc =
  let digest = Digest.string doc in
  let cached =
    Mutex.lock st.tree_mutex;
    let r = Hashtbl.find_opt st.trees digest in
    Mutex.unlock st.tree_mutex;
    r
  in
  match cached with
  | Some t ->
      Obs.incr c_tree_hits;
      Atomic.incr st.n_tree_hits;
      t
  | None -> (
      Obs.incr c_tree_misses;
      Atomic.incr st.n_tree_misses;
      match Tree_io.of_string_result doc with
      | Result.Error e -> raise (Error.Error (Error.with_context "system" e))
      | Ok t ->
          Mutex.lock st.tree_mutex;
          if not (Hashtbl.mem st.trees digest) then begin
            Hashtbl.add st.trees digest t;
            Queue.add digest st.tree_order;
            while Hashtbl.length st.trees > st.cfg.tree_cache_max do
              Hashtbl.remove st.trees (Queue.pop st.tree_order)
            done
          end;
          Mutex.unlock st.tree_mutex;
          t)

(* ------------------------------------------------------------------ *)
(* Request execution (worker side)                                     *)
(* ------------------------------------------------------------------ *)

let rec perform st req =
  match req.op with
  | Op_metrics ->
      (* Introspection: render the server's cumulative metrics as
         OpenMetrics text. Never cached — the answer changes with every
         request served. *)
      ok_outcome ~disp:"metrics" req.req_id
        (Printf.sprintf "(code 0) (status ok) (result (openmetrics %s))"
           (quoted (Obs.Openmetrics.render (Obs.Snapshot.capture ()))))
        ~cacheable:false
  | Op_status ->
      (* Answered at enqueue time on the main domain (status_outcome);
         it never reaches a worker. *)
      assert false
  | Op_eval | Op_belief _ -> perform_query st req

and perform_query st req =
  let tree = tree_of_system st req.system in
  let formula =
    match Parser.parse_result req.formula with
    | Ok f -> f
    | Result.Error e -> raise (Error.Error (Error.with_context "formula" e))
  in
  (* No pool: serve's parallelism is across requests (one worker domain
     each), not within one. *)
  let fact = Semantics.eval tree ~valuation:Semantics.generic_valuation formula in
  match req.op with
  | Op_eval ->
      let sat = ref 0 in
      Tree.iter_points tree (fun ~run ~time ->
          if Fact.holds fact ~run ~time then incr sat);
      let initially =
        Bitset.init (Tree.n_runs tree) (fun r -> Fact.holds fact ~run:r ~time:0)
      in
      let prob = Tree.measure tree initially in
      ok_outcome req.req_id
        (Printf.sprintf
           "(code 0) (status ok) (result (points %d) (sat %d) (valid %b) (prob %s))"
           (Tree.n_points tree) !sat
           (!sat = Tree.n_points tree)
           (Q.to_string prob))
        ~cacheable:true
  | Op_belief { agent; run; time; samples; seed } ->
      let bound name v hi =
        if v < 0 || v >= hi then
          raise
            (Error.Error
               (Error.makef Error.Invalid_system "%s %d out of range [0,%d)"
                  name v hi))
      in
      bound "agent" agent (Tree.n_agents tree);
      bound "run" run (Tree.n_runs tree);
      bound "time" time (Tree.run_length tree run);
      (match Belief.degree_graded ?samples ?seed fact ~agent ~run ~time with
      | Graded.Exact q ->
          ok_outcome req.req_id
            (Printf.sprintf "(code 0) (status ok) (result (degree %s))"
               (Q.to_string q))
            ~cacheable:true
      | Graded.Estimated { value; samples } ->
          Obs.incr c_degraded;
          Atomic.incr st.n_degraded;
          ok_outcome ~disp:"estimated" req.req_id
            (Printf.sprintf
               "(code 0) (status estimated) (result (degree %s) (samples %d))"
               (Q.to_string value) samples)
            ~cacheable:false)
  | Op_metrics | Op_status -> assert false  (* handled in [perform] *)

(* Per-request fault isolation: a fresh budget scope per request, and
   every failure mode folded into an error outcome. Nothing escapes. *)
let execute st ~grace req =
  let eff = merge_limits st.cfg.limits req.req_limits in
  let eff =
    match grace with
    | None -> eff
    | Some (t0, grace_ms) ->
        let elapsed_ms = int_of_float ((now st -. t0) *. 1000.) in
        let remaining = max 0 (grace_ms - elapsed_ms) in
        {
          eff with
          Budget.timeout_ms =
            Some
              (match eff.Budget.timeout_ms with
              | None -> remaining
              | Some t -> min t remaining);
        }
  in
  if eff.Budget.timeout_ms = Some 0 then
    error_outcome req.req_id
      (Error.make Error.Budget_exceeded "drain grace deadline exceeded")
  else
    (* Per-op latency histograms: the (op status) percentiles read these. *)
    let op_span =
      match req.op with
      | Op_eval -> "serve.op.eval"
      | Op_belief _ -> "serve.op.belief"
      | Op_metrics -> "serve.op.metrics"
      | Op_status -> "serve.op.status"
    in
    match
      Budget.with_budget eff (fun () -> Obs.span op_span (fun () -> perform st req))
    with
    | Ok o -> o
    | Result.Error e -> error_outcome req.req_id e
    | exception Error.Error e -> error_outcome req.req_id e
    | exception exn -> (
        match Error.of_exn exn with
        | Some e -> error_outcome req.req_id e
        | None -> internal_outcome req.req_id exn)

let process st ~grace req =
  (* The trace context rides its own DLS slot, so it survives the
     span-stack detach in pooled drains and every span this request
     opens carries its id in the Chrome trace. *)
  let compute () =
    Obs.with_trace_context req.req_trace (fun () ->
        Obs.span "serve.request" (fun () -> execute st ~grace req))
  in
  let o =
    if req.want_metrics then begin
      let o, delta = Obs.Snapshot.diff_capture compute in
      { o with out_metrics = render_metrics ~trace:req.req_trace delta }
    end
    else compute ()
  in
  { o with out_trace = req.req_trace; out_seq = req.req_seq }

(* ------------------------------------------------------------------ *)
(* (op status): live introspection (main-domain side)                  *)
(* ------------------------------------------------------------------ *)

(* Answered synchronously at enqueue time: never queued, never shed,
   never cached. Everything in (result ...) is a pure function of the
   input stream so far — byte-identical at every --jobs. The trailing
   (metrics (latencies ...)) group reads wall-clock histograms, which
   is why it lives under (metrics ...): replay diffs responses modulo
   that field. [uptime-ticks] is the logical clock — payload frames
   received — not wall time, for the same determinism reason. *)
let status_outcome st req =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "(code 0) (status ok) (result (uptime-ticks %d) (pending %d) (requests %d) \
     (responses %d) (shed %d) (degraded %d)"
    st.frames st.live st.n_requests st.n_responses st.n_shed
    (Atomic.get st.n_degraded);
  Printf.bprintf b
    " (cache (entries %d) (capacity %d) (hits %d) (misses %d) (evictions %d))"
    (Hashtbl.length st.results)
    st.cfg.cache_max st.n_cache_hits st.n_cache_misses st.n_cache_evictions;
  let tree_entries =
    Mutex.lock st.tree_mutex;
    let n = Hashtbl.length st.trees in
    Mutex.unlock st.tree_mutex;
    n
  in
  Printf.bprintf b
    " (tree-cache (entries %d) (capacity %d) (hits %d) (misses %d))"
    tree_entries st.cfg.tree_cache_max
    (Atomic.get st.n_tree_hits)
    (Atomic.get st.n_tree_misses);
  (match st.cfg.journal with
  | None -> Buffer.add_string b " (journal none)"
  | Some s ->
      Printf.bprintf b " (journal (position %d) (rotations %d))"
        (s.Journal.position ()) (s.Journal.rotations ()));
  Buffer.add_string b ")";
  let snap = Obs.Snapshot.capture () in
  Buffer.add_string b " (metrics (latencies";
  List.iter
    (fun (n, counts) ->
      if String.length n >= 6 && String.sub n 0 6 = "serve." then
        Printf.bprintf b
          " (%s (count %d) (p50-ns %.0f) (p90-ns %.0f) (p99-ns %.0f))" n
          (Obs.total_count counts) (Obs.percentile counts 50.)
          (Obs.percentile counts 90.) (Obs.percentile counts 99.))
    snap.Obs.Snapshot.histograms;
  Buffer.add_string b "))";
  {
    (ok_outcome ~disp:"status" req.req_id (Buffer.contents b) ~cacheable:false) with
    out_trace = req.req_trace;
    out_seq = req.req_seq;
  }

(* ------------------------------------------------------------------ *)
(* Queue, drain, shed                                                  *)
(* ------------------------------------------------------------------ *)

let write_response st o =
  Obs.incr c_responses;
  st.n_responses <- st.n_responses + 1;
  let text = render_response o in
  journal_emit st ~kind:Journal.Response ~seq:o.out_seq ~code:o.out_code
    ~disp:o.out_disp ~trace:o.out_trace text;
  st.write_frame text

let enqueue st ~seq = function
  | Item_bad (id, msg, trace) ->
      Queue.add
        (P_done
           { (bad_request_outcome id msg) with out_trace = trace; out_seq = seq })
        st.q
  | Item_req req -> (
      Obs.incr c_requests;
      st.n_requests <- st.n_requests + 1;
      if req.op = Op_status then
        (* Introspection is answered inline: never queued (so it can
           report pending depth), never shed (so it works under load),
           never cached. *)
        Queue.add (P_done (status_outcome st req)) st.q
      else if st.live >= st.cfg.max_pending then begin
        Obs.incr c_shed;
        st.n_shed <- st.n_shed + 1;
        Queue.add
          (P_done
             {
               (overloaded_outcome st.cfg req.req_id) with
               out_trace = req.req_trace;
               out_seq = seq;
             })
          st.q
      end
      else
        let key = cache_key st.cfg req in
        match key with
        | Some k when Hashtbl.mem st.results k ->
            Obs.incr c_cache_hits;
            st.n_cache_hits <- st.n_cache_hits + 1;
            Queue.add
              (P_done
                 {
                   out_id = req.req_id;
                   out_body = Hashtbl.find st.results k;
                   out_metrics = "";
                   out_cacheable = false;
                   out_trace = req.req_trace;
                   out_code = 0;
                   out_disp = "cache-hit";
                   out_seq = seq;
                 })
              st.q
        | _ ->
            if key <> None then begin
              Obs.incr c_cache_misses;
              st.n_cache_misses <- st.n_cache_misses + 1
            end;
            st.live <- st.live + 1;
            Atomic.set g_pending st.live;
            Queue.add (P_live (req, key)) st.q)

let drain st ~final =
  if not (Queue.is_empty st.q) then begin
    Obs.incr c_drains;
    Obs.span "serve.drain" (fun () ->
        let entries = Array.make (Queue.length st.q) (P_done (protocol_outcome "")) in
        let n = Array.length entries in
        for i = 0 to n - 1 do
          entries.(i) <- Queue.pop st.q
        done;
        st.live <- 0;
        Atomic.set g_pending 0;
        let grace =
          if final then
            match st.cfg.drain_ms with
            | Some ms -> Some (now st, ms)
            | None -> None
          else None
        in
        let live_ix = ref [] in
        Array.iteri
          (fun i e -> match e with P_live _ -> live_ix := i :: !live_ix | P_done _ -> ())
          entries;
        let ixs = Array.of_list (List.rev !live_ix) in
        let compute i =
          match entries.(i) with
          | P_live (req, _) -> (i, process st ~grace req)
          | P_done _ -> assert false
        in
        let outcomes =
          match st.pool with
          | Some pool when Array.length ixs > 1 ->
              (* A pool task may be claimed by a worker (empty span
                 stack) or by the caller (inside serve.drain): detach
                 the span stack so every pooled request records the
                 same root-level serve.request path and the span tree
                 stays deterministic at every job count. *)
              Pool.map pool (fun i -> Obs.span_detach (fun () -> compute i)) ixs
          | _ -> Array.map compute ixs
        in
        let resolved = Hashtbl.create (max 1 (Array.length outcomes)) in
        Array.iter (fun (i, o) -> Hashtbl.replace resolved i o) outcomes;
        Array.iteri
          (fun i e ->
            match e with
            | P_done o -> write_response st o
            | P_live (_, key) ->
                let o = Hashtbl.find resolved i in
                (match key with
                | Some k when o.out_cacheable -> cache_put st k o.out_body
                | _ -> ());
                write_response st o)
          entries)
  end

(* ------------------------------------------------------------------ *)
(* The request loop                                                    *)
(* ------------------------------------------------------------------ *)

exception Client_gone

let run cfg ~source ~write =
  match validate_config cfg with
  | Result.Error _ -> 3
  | Ok () ->
      let rd = Frame.reader ~max_frame:cfg.max_frame source in
      let write_frame text =
        try write (Frame.encode text) with Sys_error _ -> raise Client_gone
      in
      let st =
        {
          cfg;
          pool = (if cfg.jobs > 1 then Some (Pool.create ~jobs:cfg.jobs) else None);
          q = Queue.create ();
          live = 0;
          trees = Hashtbl.create 8;
          tree_order = Queue.create ();
          tree_mutex = Mutex.create ();
          results = Hashtbl.create 64;
          result_order = Queue.create ();
          write_frame;
          frames = 0;
          n_requests = 0;
          n_responses = 0;
          n_shed = 0;
          n_cache_hits = 0;
          n_cache_misses = 0;
          n_cache_evictions = 0;
          n_degraded = Atomic.make 0;
          n_tree_hits = Atomic.make 0;
          n_tree_misses = Atomic.make 0;
          t0 = (match cfg.clock with Some f -> f () | None -> Sys.time ());
        }
      in
      let batch_threshold = if cfg.batch = 0 then cfg.jobs else cfg.batch in
      let maybe_drain () =
        if Queue.length st.q >= batch_threshold then drain st ~final:false
      in
      (* Streaming telemetry: every [telemetry_every] requests, force a
         drain (so the delta covers whole requests, independent of the
         jobs-dependent batching cadence) and emit one line-delimited
         JSON frame of counter / histogram-total deltas since the last
         frame. The drain-cadence metrics themselves (counter
         serve.drains, histogram serve.drain) are excluded: they track
         scheduling, not work, and differ across --jobs. Everything
         kept is a pure function of the input stream, so frames are
         byte-identical at every job count. *)
      let telemetry_on = cfg.telemetry_every > 0 in
      let series =
        if telemetry_on then Some (Obs.Series.create ~capacity:64) else None
      in
      let tele_reqs = ref 0 in
      let tele_mark = ref 0 in
      let emit_telemetry () =
        match (series, cfg.telemetry) with
        | Some series, Some sink ->
            drain st ~final:false;
            let s = Obs.Series.record series in
            let b = Buffer.create 256 in
            Printf.bprintf b "{\"telemetry\":1,\"seq\":%d,\"requests\":%d"
              s.Obs.Series.s_seq !tele_reqs;
            let obj label skip rows render =
              Printf.bprintf b ",\"%s\":{" label;
              let first = ref true in
              List.iter
                (fun (n, v) ->
                  if n <> skip then begin
                    if not !first then Buffer.add_char b ',';
                    first := false;
                    Printf.bprintf b "\"%s\":%s" n (render v)
                  end)
                rows;
              Buffer.add_char b '}'
            in
            obj "counters" "serve.drains" s.Obs.Series.s_counters
              string_of_int;
            obj "histogram_totals" "serve.drain" s.Obs.Series.s_hist_totals
              string_of_int;
            Buffer.add_char b '}';
            sink (Buffer.contents b)
        | _ -> ()
      in
      let maybe_telemetry () =
        if telemetry_on && !tele_reqs - !tele_mark >= cfg.telemetry_every
        then begin
          tele_mark := !tele_reqs;
          emit_telemetry ()
        end
      in
      let finish reason =
        drain st ~final:true;
        if telemetry_on then emit_telemetry ();
        let bye = Printf.sprintf "(bye (reason %s))" reason in
        journal_emit st ~kind:Journal.Response ~seq:st.frames ~code:0
          ~disp:"bye" ~trace:"" bye;
        write_frame bye;
        0
      in
      let rec loop () =
        match Frame.read rd with
        | Frame.Eof -> finish "eof"
        | Frame.Junk j ->
            Obs.incr c_err_protocol;
            (* Junk does not advance the frame sequence (replay drops
               it and must reproduce the recorded trace ids); the bytes
               themselves are gone, so journal a description. *)
            journal_emit st ~kind:Journal.Request ~seq:st.frames ~code:(-1)
              ~disp:"junk" ~trace:""
              (match j with
              | Frame.Garbage n -> Printf.sprintf "garbage %d" n
              | Frame.Oversized n -> Printf.sprintf "oversized %d" n
              | Frame.Truncated -> "truncated");
            Queue.add (P_done { (junk_outcome j) with out_seq = st.frames }) st.q;
            maybe_drain ();
            loop ()
        | Frame.Payload p -> (
            Obs.incr c_frames;
            st.frames <- st.frames + 1;
            let seq = st.frames in
            journal_emit st ~kind:Journal.Request ~seq ~code:(-1) ~disp:"frame"
              ~trace:(trace_id ~seq ~ix:0 p) p;
            let trace ix = trace_id ~seq ~ix p in
            match Sexp.parse p with
            | Result.Error m ->
                Obs.incr c_err_protocol;
                Queue.add
                  (P_done
                     {
                       (protocol_outcome ("unparsable frame payload: " ^ m)) with
                       out_seq = seq;
                     })
                  st.q;
                maybe_drain ();
                loop ()
            | Ok sx -> (
                match parse_msg ~seq ~trace sx with
                | Msg_ping id ->
                    Obs.incr c_pings;
                    drain st ~final:false;
                    let pong = Printf.sprintf "(pong (id %d))" id in
                    journal_emit st ~kind:Journal.Response ~seq ~code:0
                      ~disp:"pong" ~trace:"" pong;
                    write_frame pong;
                    loop ()
                | Msg_shutdown -> finish "shutdown"
                | Msg_items (items, is_batch) ->
                    if is_batch then Obs.incr c_batches;
                    List.iter (enqueue st ~seq) items;
                    List.iter
                      (function Item_req _ -> incr tele_reqs | Item_bad _ -> ())
                      items;
                    maybe_drain ();
                    maybe_telemetry ();
                    loop ()))
      in
      Fun.protect
        ~finally:(fun () ->
          (match st.pool with Some p -> Pool.close p | None -> ());
          Atomic.set g_pending 0)
        (fun () -> try loop () with Client_gone -> 0)

let run_string ?(config = default_config) input =
  let buf = Buffer.create 1024 in
  let code =
    run config ~source:(Frame.source_of_string input)
      ~write:(Buffer.add_string buf)
  in
  (Buffer.contents buf, code)
