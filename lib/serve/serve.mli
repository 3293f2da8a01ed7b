(** [pak serve] — a fault-isolated batch/server front end.

    A long-lived request loop: length-prefixed s-expression frames
    arrive on a byte source, one response frame leaves per request, and
    evaluation is scheduled on the {!Pak_par.Pool}. The defining
    property is {e fault isolation}: a malformed frame, a runaway
    fixpoint, an exhausted budget or a worker exception degrades exactly
    one response — never the server process.

    {2 Frame format}

    Every frame, in both directions, is

    {v pak1 <len>\n<payload> v}

    where ["pak1 "] is a literal 5-byte magic, [<len>] is the payload
    length in bytes as decimal ASCII, and [<payload>] is one
    s-expression. Anything else on the stream is junk: the reader emits
    a typed {!Frame.junk} event and resynchronizes at the next magic.

    {2 Request grammar}

    {v
(request (id 1) (op eval) (system "<pps document>") (formula "K[0] a0_g0"))
(request (id 2) (op belief) (system "...") (formula "a0_g0")
         (agent 0) (run 1) (time 1) (samples 500) (seed 7)
         (max-limbs 1) (timeout-ms 100) (metrics true))
(request (id 3) (op metrics))
(request (id 4) (op status))
(batch (request ...) (request ...) ...)
(ping (id 9))
(shutdown)
    v}

    Per-request [max-points]/[max-nodes]/[max-limbs]/[max-iters]/
    [timeout-ms] override the server-level caps but can only lower
    them; [metrics true] attaches a per-request
    {!Pak_obs.Obs.Snapshot.diff_capture} delta to the response.
    [(op metrics)] needs no system or formula: it answers with the
    server's cumulative metrics rendered as OpenMetrics text,
    [(result (openmetrics "..."))]; it is never cached.

    [(op status)] likewise needs no system or formula. It is answered
    synchronously on the main domain the moment it is enqueued — never
    queued (so it can report the pending depth ahead of it), never shed
    (so it works under load), and never cached. Its
    [(result ...)] carries [uptime-ticks] (payload frames received — a
    logical clock, so the field is byte-stable across [--jobs]),
    [pending], request/response/shed/degraded totals, result-cache and
    tree-cache occupancy and hit rates, and the journal position; a
    trailing [(metrics (latencies ...))] group reports count/p50/p90/p99
    nanoseconds for every [serve.*] histogram (wall-clock data, hence
    quarantined under [(metrics ...)], which replay ignores).

    {2 Responses}

    [(response (id I) (trace T) (code C) (status S) ...)] where [code]
    reuses the CLI exit-code taxonomy per request: 0 ok, 2 malformed
    request, 3 invalid input (unparsable system/formula, protocol
    junk), 4 budget exceeded or shed under load, 125 internal bug.
    [status] is [ok], [estimated] (budget-degraded Monte-Carlo
    fallback), [overloaded] (shed, with a [(retry-after-ms N)] hint) or
    [error] (with [(kind ...)] and [(error "...")]). [ping] gets
    [(pong (id I))]; shutdown and EOF drain in-flight requests under
    the configured grace deadline and end with [(bye (reason ...))] and
    exit code 0.

    {2 Trace ids}

    Every request parsed from a payload frame — including malformed
    ones — is assigned a 16-hex-char trace id, a digest of (frame
    sequence number, item index within the frame, payload digest). It
    is a pure function of the input byte stream, so it is byte-stable
    across [--jobs] and across re-runs of the same stream. The id comes
    back as the [(trace T)] response field, is installed as the
    {!Pak_obs.Obs.with_trace_context} trace context while the request
    executes (so every span the request opens carries
    [args.trace = T] in the Chrome trace), and prefixes the
    per-request [(metrics (trace T) ...)] delta. Frame-level junk
    ([code 3] protocol responses with no request behind them) carries
    no trace field.

    {2 Telemetry frames}

    With [telemetry_every = N > 0] and a [telemetry] sink, the server
    emits one line-delimited JSON object per [N] accepted requests
    (plus a final frame at shutdown/EOF), each carrying counter and
    histogram-total {e deltas} since the previous frame — summing a
    metric over all frames telescopes to its session total. Before
    sampling, the queue is force-drained so deltas cover whole
    requests. The drain-cadence metrics (counter [serve.drains],
    histogram [serve.drain]) are excluded — they track scheduling, not
    work, and depend on [--jobs]; everything kept is a pure function of
    the input stream, so telemetry frames are byte-identical at every
    job count. *)

(** Minimal s-expression values shared by the request and response
    grammar (same dialect as [Tree_io]: atoms, quoted strings with
    backslash escapes for the quote and backslash characters, lists).
    Frames are read with {!Pak_pps.Tree_io.Scan}, the one scanner of
    the dialect, which documents are read with too. *)
module Sexp : sig
  type t = Atom of string | Str of string | List of t list

  val parse : string -> (t, string) result
  (** One toplevel form, nested at most 200 lists deep; never raises.
      A lexical error anywhere in the payload wins over the first
      structural one. *)

  val add_to_buffer : Buffer.t -> t -> unit
  val to_string : t -> string
end

(** The length-prefixed frame codec. *)
module Frame : sig
  val magic : string
  (** ["pak1 "]. *)

  val default_max_frame : int
  (** 1 MiB. *)

  type source = bytes -> int -> int -> int
  (** [source buf pos len] reads at most [len] bytes into [buf] at
      [pos] and returns how many were read; 0 (or any exception) means
      end of stream. *)

  val source_of_string : string -> source
  val source_of_channel : in_channel -> source

  type junk =
    | Garbage of int  (** [n] bytes skipped to the next magic/EOF *)
    | Oversized of int  (** declared length above the frame cap; payload skipped *)
    | Truncated  (** stream ended inside a frame *)

  type event = Eof | Payload of string | Junk of junk

  type reader

  val reader : ?max_frame:int -> source -> reader

  val read : reader -> event
  (** Next event. Never raises; after [Junk] the reader is positioned
      at the next plausible frame (resync). [Eof] is sticky. *)

  val encode : string -> string
  (** Wrap a payload in a frame header. *)
end

(** Server configuration. All limits are validated by
    {!validate_config}; `pak serve` refuses to start (exit 3) on an
    invalid configuration. *)
type config = {
  jobs : int;  (** worker domains; 1 = run requests on the caller *)
  max_pending : int;
      (** bound on queued-not-yet-executed requests; beyond it new
          requests are shed with an [overloaded] response *)
  batch : int;
      (** drain the queue once it holds this many entries; 0 means
          [jobs] (keep the pool busy) *)
  max_frame : int;  (** frame payload byte cap *)
  cache_max : int;
      (** cross-request result-cache entries; 0 disables the cache *)
  tree_cache_max : int;  (** parsed-system cache entries *)
  drain_ms : int option;
      (** grace deadline for draining in-flight requests on
          shutdown/EOF; [None] = drain without a deadline *)
  retry_after_ms : int;  (** hint attached to [overloaded] responses *)
  limits : Pak_guard.Budget.limits;
      (** server-level per-request caps; requests may only lower them *)
  clock : (unit -> float) option;
      (** wall clock for the drain deadline (e.g. [Unix.gettimeofday]);
          [None] falls back to [Sys.time] *)
  telemetry_every : int;
      (** emit a telemetry frame every N accepted requests; 0 disables.
          Requires a [telemetry] sink when positive. *)
  telemetry : (string -> unit) option;
      (** side-channel sink for telemetry frames: called with one JSON
          object (no trailing newline) per frame *)
  journal : Pak_journal.Journal.sink option;
      (** flight recorder: every inbound frame and outbound response is
          appended as a {!Pak_journal.Journal.entry}; [None] = off *)
}

val default_config : config

(** One tunable of {!config}: the table every view of the server's
    configuration is derived from — the [pak serve] flags and their help,
    {!validate_config}'s bounds, and the journal meta written by
    [Replay.meta_of_config]. The five budget caps are {!Pak_guard.Budget.caps}
    lifted onto [config.limits], so their names are also request fields.
    [jobs] (the CLI's shared [--jobs] flag), the sinks and the clock are
    not settings. *)
type setting = {
  name : string;  (** CLI flag without its dashes; journal-meta key *)
  docv : string;  (** the flag's value placeholder *)
  doc : string;  (** the flag's help text (Cmdliner markup) *)
  min : int;  (** least valid value *)
  optional : bool;
      (** [None] is a value: the flag may be absent and the journal meta
          spells it [none]; otherwise [get] is always [Some _] and
          [set _ None] changes nothing *)
  journaled : bool;  (** recorded in the journal meta *)
  get : config -> int option;
  set : config -> int option -> config;
}

val settings : setting list
(** In journal-meta order: [max-pending], [batch], [max-frame],
    [cache-max], [tree-cache-max], [drain-ms], [retry-after-ms], the
    five budget caps, then the unjournaled [telemetry-every]. *)

val validate_config : config -> (unit, string) result
(** [jobs >= 1], every setting at or above its [min], [batch] at most
    [max_pending], and a telemetry sink whenever [telemetry_every > 0].
    The error names the offending flag. *)

val run : config -> source:Frame.source -> write:(string -> unit) -> int
(** Serve until EOF or a [shutdown] frame; returns the process exit
    code (0 on a clean drain, including when the client disappears
    mid-write; 3 if the configuration is invalid). [write] receives
    complete response frames; if it raises [Sys_error] (broken pipe)
    the server drains quietly and still returns 0. Request failures
    never escape: they become error responses. *)

val status_latencies : Pak_obs.Obs.Snapshot.t -> string
(** The [(metrics (latencies ...))] block that ends an [(op status)]
    response, with a leading space: one
    [(name (count n) (p50-ns a) (p90-ns b) (p99-ns c))] row per
    [serve.*] histogram of the snapshot, in snapshot order, quantiles
    as whole nanoseconds. *)

val run_string : ?config:config -> string -> string * int
(** In-process convenience (tests, soak, bench): feed a whole input
    stream, collect the response stream, return it with the exit
    code. *)
