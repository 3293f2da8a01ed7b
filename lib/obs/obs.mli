(** pak_obs — zero-dependency observability: counters, histograms, span
    timers (flat and hierarchical) and structured trace events with
    pluggable sinks.

    The library is deliberately tiny and dependency-free so that every
    layer of pak can be instrumented without widening the build. Three
    sinks are provided:

    - the {e null sink} (default): instrumentation compiles to a single
      load-and-branch on {!on}, so the uninstrumented fast path is
      preserved;
    - a {e summary sink}: accumulated counters, latency histograms and
      span statistics, frozen by {!Snapshot.capture} and rendered as
      human-readable tables ({!pp_summary}, {!pp_span_tree});
    - a {e trace sink}: Chrome [trace_event]-format JSON written
      incrementally to a file ({!trace_to}), loadable in
      [about:tracing] / Perfetto.

    On top of the sinks, {!Snapshot} freezes everything into one
    versioned, machine-readable value (serialized as zero-dependency
    JSON), and {!Diff} compares two snapshots as a perf-regression
    oracle: deterministic work counts must match exactly, wall times
    within a tolerance. Every metrics exporter — the summary, span
    tree, allocation report, flamegraph, OpenMetrics and {!Series} —
    is a pure function of a {!Snapshot.t}; only the Chrome trace is a
    streaming event log.

    Counters, histograms and spans are process-global and
    {e domain-safe}: counter bumps and histogram records are single
    atomic adds (no lock on the hot path, no lost updates under
    parallel sweeps), while registry lookups, span statistics and trace
    emission serialize on one internal mutex. Trace events carry the
    emitting domain's id as their [tid], so a parallel run renders as
    one lane per worker in Perfetto. Instrumented code must not change
    observable results: enabling or disabling any sink leaves every
    computation bit-identical (tested by the qcheck suite). *)

val on : bool ref
(** Master switch read on every instrumentation fast path. Treat as
    read-only; flip it via {!enable} / {!disable}. *)

val enable : unit -> unit
(** Start accumulating counters, histograms and span statistics. *)

val disable : unit -> unit
(** Return to the null sink. Accumulated values are kept until
    {!reset}; a running trace sink keeps recording only if re-enabled. *)

val enabled : unit -> bool

val set_track_allocations : bool -> unit
(** Kill switch for per-span allocation attribution. When off, {!span}
    skips its [Gc] counter reads and records zero allocated words;
    timings, counters and the span tree shape are unaffected. On by
    default. The built-in [gc.*] gauges keep reporting either way —
    they are polled, not on the hot path. *)

val track_allocations : unit -> bool

val reset : unit -> unit
(** Zero every counter, histogram bucket and span statistic (flat and
    hierarchical, including allocated words), and re-base the built-in
    [gc.*] gauges so cumulative GC counters read as deltas since this
    call. Does not touch sinks or gauge providers. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** [counter name] returns the process-global counter registered under
    [name], creating it on first use. Dotted names ([engine.metric])
    group related counters in summaries. *)

val incr : counter -> unit
(** Add one (atomically); a no-op unless {!on}. *)

val add : counter -> int -> unit
(** Add [n] (atomically); a no-op unless {!on}. *)

val value : counter -> int

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

val counter_value : string -> int
(** Value of a counter by name; [0] if it was never registered. *)

(** {1 Histograms}

    Log-bucketed integer histograms with exact bucket counts. Bucket
    [0] collects every non-positive value; bucket [i >= 1] collects
    the interval [\[2{^i-1}, 2{^i})], so 63 buckets cover every OCaml
    [int] and a record can never fall outside the histogram. Recording
    is one atomic add — the same hot-path discipline as counters.
    Every {!span} site feeds a histogram of the same name with its
    duration in nanoseconds. *)

type histogram

val n_buckets : int
(** Number of buckets (63). *)

val bucket_of : int -> int
(** Bucket index for a value: [0] for [v <= 0], otherwise the number
    of significant bits of [v]. Total on [int]: every value lands in
    exactly one bucket. *)

val bucket_lo : int -> int
(** Smallest value belonging to a bucket ([0] for bucket 0). *)

val bucket_hi : int -> int
(** Largest value belonging to a bucket ([max_int] for the last). *)

val histogram : string -> histogram
(** The process-global histogram registered under a name, created on
    first use. *)

val record : histogram -> int -> unit
(** Record one sample (atomically); a no-op unless {!on}. *)

val histogram_counts : histogram -> int array
(** Current per-bucket counts, length {!n_buckets}. *)

val histograms : unit -> (string * int array) list
(** Every registered histogram with its bucket counts, sorted by name. *)

val merge_counts : int array -> int array -> int array
(** Pointwise sum — the histogram of the concatenated sample streams. *)

val total_count : int array -> int
(** Total samples across all buckets. *)

val percentile : int array -> float -> float
(** [percentile counts q] estimates the [q]-quantile by locating the
    bucket holding the [⌈q·total⌉]-th sample and interpolating
    linearly inside it. [q] is a fraction: [0.5] is the median.
    Bucket-resolution accuracy (a factor of 2); [0.] when the
    histogram is empty.
    @raise Invalid_argument when [q] is outside [\[0, 1\]] or is NaN
    (a percent such as [50.] is rejected, not clamped). *)

(** {1 Spans} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]. When {!on}, its inclusive wall time is
    accumulated under [name] (flat statistics, a duration histogram in
    nanoseconds, and a node in the hierarchical span tree keyed by the
    enclosing open spans of the current domain) and, if a trace sink is
    active, a complete ("ph":"X") trace event carrying the full span
    path is emitted. Exceptions still close the span. When off,
    [span name f] is exactly [f ()].

    When {!track_allocations} is on, each call also records the words
    the span allocated: minor words from the current domain's
    allocation counter ([Gc.minor_words], precise), and words
    allocated directly on the major heap as the [Gc.quick_stat] delta
    of [major_words - promoted_words]. The counter reads are ordered
    so the instrumentation's own allocation (~24 words per span for
    the [quick_stat] records) is attributed to the {e enclosing}
    span's self column, not to the span being measured. Counters are
    domain-local, so under a parallel sweep each worker's spans
    measure that worker's allocation and equal paths merge — the same
    jobs-invariance as call counts, up to GC-timing jitter in
    promotion. *)

val span_detach : (unit -> 'a) -> 'a
(** [span_detach f] runs [f ()] with the current domain's open-span
    stack masked: spans opened inside record as if at top level, and
    the enclosing stack is restored afterwards. For work whose
    executing domain is scheduling-dependent — a pool task that may be
    claimed by a worker (empty stack) or by the caller (inside its
    open spans) — detaching makes the recorded span paths, and so the
    span-tree shape, identical at every job count. When off,
    [span_detach f] is exactly [f ()]. *)

val with_trace_context : string -> (unit -> 'a) -> 'a
(** [with_trace_context id f] runs [f ()] with [id] installed as the
    current domain's ambient {e trace context}: every trace event a
    {!span} emits while it is installed carries [id] as an
    ["args.trace"] field, joining the event to the request (or other
    unit of work) that ran it. Contexts nest — the previous context is
    restored afterwards, exceptions included. The context is a
    {e separate} domain-local key from the span stack, so
    {!span_detach} masks span paths but keeps the trace id: a pooled
    server request records root-level span paths that still carry its
    request identity. Pure bookkeeping — installs fine with the null
    sink too. *)

val trace_context : unit -> string option
(** The currently installed trace context of the calling domain. *)



(** {2 Span statistics}

    Each domain tracks its stack of open spans in domain-local
    storage; samples fold into one process-global table keyed by the
    full path. Equal paths from different domains merge, so a parallel
    sweep's workers contribute to the same tree nodes the serial run
    produces — call counts per path are jobs-invariant. That table is
    the only span registry: {!spans} and {!span_allocs} are per-name
    sums over {!span_tree}. *)

type span_node = {
  sn_name : string;  (** leaf name *)
  sn_path : string list;  (** full path, outermost first *)
  sn_count : int;  (** completed calls at this path *)
  sn_total : float;  (** inclusive seconds *)
  sn_self : float;  (** inclusive minus children's inclusive, clamped at 0 *)
  sn_minor_aw : float;  (** inclusive minor allocated words *)
  sn_self_minor_aw : float;  (** minor words minus children's, clamped at 0 *)
  sn_major_aw : float;  (** inclusive words allocated directly on the major heap *)
  sn_self_major_aw : float;  (** direct-major words minus children's, clamped at 0 *)
  sn_children : span_node list;  (** sorted by name *)
}

val span_tree : unit -> span_node list
(** Current hierarchical statistics as a forest of root spans, sorted
    by name at every level. A span that exited under a parent still
    open appears once that parent exits. *)

val spans : unit -> (string * int * float) list
(** [(name, calls, total_seconds)] per span name, sorted by name: the
    sums over every {!span_tree} node with that name. *)

val span_allocs : unit -> (string * float * float) list
(** [(name, minor_words, major_words)] allocated inside each span
    (inclusive of nested spans), summed over every {!span_tree} node
    with that name, sorted by name. *)

(** {1 Gauges}

    Gauges are sampled, not accumulated: other layers register
    providers (budget fuel in [pak_guard], memo hit-rate in the
    semantics engine) that are polled when a summary or snapshot is
    taken.

    A built-in provider reports the GC under [gc.*]: [gc.minor_words],
    [gc.major_words], [gc.promoted_words], [gc.minor_collections],
    [gc.major_collections] and [gc.compactions] as deltas since the
    last {!reset}, plus the absolute heap levels [gc.heap_words] and
    [gc.top_heap_words]. Word counts come from [Gc.quick_stat]
    combined with the domain-local [Gc.minor_words] counter, so the
    minor total is exact on a single domain and accurate to within one
    unflushed minor heap per live domain otherwise. *)

val register_gauges : (unit -> (string * float) list) -> unit
(** Register a provider. Providers survive {!reset}; a provider with
    nothing to report returns []. *)

val gauges : unit -> (string * float) list
(** Poll every provider, sorted by name. *)

(** {1 Trace sink} *)

val trace_to : string -> unit
(** Open [file] and start recording span events as a Chrome
    trace-event JSON array. Implies {!enable}. Raises [Sys_error] if
    the file cannot be opened; calling while a trace is already open
    closes the previous one first.

    While a trace is open (and {!track_allocations} is on), every
    {!gauge_sample_interval}-th span exit per domain — plus the very
    first, so short runs get at least one mid-run sample — also emits
    one "ph":"C" sample per [gc.*] lane: raw cumulative values, so the
    heap lanes render as non-decreasing counter tracks in Perfetto. *)

val set_gauge_sample_interval : int -> unit
(** Set how many span exits (per domain) separate consecutive [gc.*]
    heap-lane sample bursts while a trace is recording. Default [32];
    [1] samples at every span exit. The first span exit per domain
    always samples regardless of the interval.
    @raise Invalid_argument on an interval below 1. *)

val gauge_sample_interval : unit -> int
(** The current [gc.*] trace-sampling interval. *)

val trace_stop : unit -> unit
(** Emit one final "ph":"C" counter sample per registered counter and
    per [gc.*] heap lane, close the JSON array and the file. A no-op
    if no trace is open. *)

val tracing : unit -> bool

(** {1 Minimal JSON reader}

    The zero-dependency JSON parser used internally to validate traces
    and parse {!Snapshot} values back, exposed so other layers (the
    certificate decoder in [Pak_cert], tools) can read the JSON this
    library and its clients emit without adding a dependency. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val add_escaped : Buffer.t -> string -> unit
  (** [add_escaped buf s] appends the body of [s] as a JSON string,
      without the quotes: a backslash before each quote and backslash,
      [\n], [\t] and [\r] for those bytes, [\uXXXX] for the other
      control bytes. Every JSON writer of this library and of the
      certificate layer escapes with it. *)

  exception Bad of string
  (** Raised by {!parse} on malformed input, with a position-bearing
      message. *)

  val parse : string -> t
  (** Parse one JSON document. @raise Bad on malformed input. *)
end

(** {1 Versioned metrics snapshots} *)

module Snapshot : sig
  val schema_version : int
  (** Version of the snapshot schema; bumped on incompatible change.
      Currently [2]: v2 added the four allocated-words fields to span
      nodes. v1 files still decode — the alloc fields read as [0.]. *)

  type t = {
    version : int;
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * int array) list;
    spans : span_node list;
  }

  val capture : unit -> t
  (** Freeze the current counters, polled gauges, histograms and span
      tree into one value stamped with {!schema_version}. *)

  val to_json : t -> string
  (** Serialize as JSON. Floats print as [%.17g], so
      {!of_json_string} round-trips every finite value exactly. Span
      nodes are written without their paths. *)

  val of_json_string : string -> (t, string) result
  (** Parse {!to_json} output (v1 or v2). Each decoded span node's
      [sn_path] is rebuilt from its ancestors' names. *)

  val of_file : string -> (t, string) result

  val write : string -> t -> unit
  (** Write [to_json t] to a file. Raises [Sys_error] on failure. *)

  val diff_capture : (unit -> 'a) -> 'a * t
  (** [diff_capture f] captures a snapshot, runs [f], captures again
      and returns [f ()] together with the per-call delta — without
      resetting any global registry. Counters and histograms are
      after−before (all-zero rows dropped); gauges keep the after
      values (they are levels, not flows); [spans] is empty, because
      span paths accumulate per domain and a single call's share
      cannot be attributed by subtraction, so neither capture folds
      the span tree. Bumps made by {e other} domains while [f] runs
      land in the delta; single-domain callers get an exact
      attribution. *)
end

(** {1 Reporting}

    Each renderer is a pure function of one snapshot: capture once,
    then render any number of views of that same moment. *)

val pp_summary : Format.formatter -> Snapshot.t -> unit
(** Human-readable tables: counters, gauges, and one row per span name
    (the per-name sums of the span tree, as {!spans}) with
    p50/p90/p99 from the duration histogram of that name. *)

val pp_span_tree : Format.formatter -> Snapshot.t -> unit
(** Indented tree of calls / inclusive ms / self ms / inclusive kw /
    self kw per span path (kw = thousands of allocated words). *)

val pp_alloc_report : ?top:int -> Format.formatter -> Snapshot.t -> unit
(** Span paths ranked by self-allocated words (minor + direct major),
    top [top] (default 20) shown with calls, self/inclusive kw and
    words per call, followed by the total attributed words and — when
    the snapshot's [gc.minor_words] gauge is nonzero — the fraction of
    the process's minor words since {!reset} that the span tree
    accounts for. Backs [pak profile --alloc]. *)

type flame_weight =
  | Flame_time  (** self nanoseconds per span path *)
  | Flame_alloc  (** self allocated words (minor + direct major) per span path *)

val flamegraph : ?weight:flame_weight -> Snapshot.t -> string
(** The snapshot's span tree in collapsed-stack format — one
    [a;b;c <weight>] line per span path, the input format of
    [flamegraph.pl] and speedscope. Weights are {e self} values
    (inclusive totals would double-count once the tool sums subtrees):
    self time in whole nanoseconds ({!Flame_time}, the default) or
    self allocated words ({!Flame_alloc}). Zero-weight paths are
    dropped and lines sorted by path. Backs [pak profile --flame].
    Empty string when the snapshot has no spans. *)

(** {1 Rolling time-series}

    A metric {e delta} recorder: each {!Series.record} samples the
    registries and returns what changed since the previous record, so a
    long-lived process (a [pak serve] session under
    [--telemetry-every]) exposes rates-over-time, not just
    totals-at-exit. *)

module Series : sig
  type t

  type sample = {
    s_seq : int;  (** 0-based record index *)
    s_counters : (string * int) list;
        (** counter increments since the previous record, zero rows
            dropped, sorted by name *)
    s_gauges : (string * float) list;
        (** gauge {e levels} at record time (gauges are sampled, not
            accumulated — a delta of a level is noise) *)
    s_hist_totals : (string * int) list;
        (** histogram sample-count increments since the previous
            record, zero rows dropped *)
  }

  val create : unit -> t
  (** A new recorder with its delta basis set to the registries'
      current values. *)

  val record : t -> sample
  (** Capture the counters, gauges and histograms and return their
      delta from the previous record's capture (or {!create}'s for the
      first) — the same delta {!Snapshot.diff_capture} computes, with
      each histogram reduced to its sample count. The basis advances on
      every record, so summing a counter across all samples telescopes
      to its total growth since {!create}. Thread-safe. *)
end

(** {1 OpenMetrics exposition} *)

module Openmetrics : sig
  val render : Snapshot.t -> string
  (** The snapshot in OpenMetrics / Prometheus text format: counters
      as [_total] samples, gauges as levels, span-latency histograms
      as cumulative [_bucket{le="<ns>"}] series with [_count] and
      [_sum], each preceded by [# TYPE] / [# HELP] directives, ending
      with the [# EOF] terminator. Metric names are the pak names
      under a [pak_] prefix with every character outside
      [\[a-zA-Z0-9_:\]] mapped to ['_']. The histogram [_sum] is a
      lower-bound estimate (bucket lower bound × count summed): the
      log-bucket counts are the exact data; exact sample values are
      gone by design. Total for every snapshot — never raises.
      Surfaced as [pak profile --openmetrics] and the serve
      [(op metrics)] request. *)

  val check : string -> (unit, string) result
  (** Minimal line-grammar validation of an exposition: every line is
      a [# TYPE] / [# HELP] directive or a sample line with a legal
      metric name, an optional balanced [{...}] label block and a
      finite numeric value, and the text ends with exactly one
      [# EOF] line. [render] output always passes (fuzzed by
      [tools/fuzz.exe --mode openmetrics]). *)
end

(** {1 Snapshot diffing — the perf-regression oracle}

    Counters, span call counts and histogram sample totals are exact
    work counts — bit-deterministic for a fixed workload, on any
    machine and at any [--jobs] — so they must match a baseline
    exactly. Wall times and gauges are compared within a relative
    tolerance with an absolute floor. [tools/bench_diff.exe] wraps
    this as a CLI and CI gate. *)

module Diff : sig
  type config = {
    time_tol : float;
        (** relative tolerance for times/gauges: [fresh] may differ
            from [base] by a factor of [1 + time_tol] either way *)
    time_floor : float;
        (** absolute slack (seconds) below which differences pass *)
    alloc_tol : float;
        (** relative tolerance for span allocated words and [gc.*]
            gauges — deterministic per compiler version and workload,
            but they drift across OCaml releases and with [--jobs] *)
    alloc_floor : float;
        (** absolute slack (words) below which allocation differences
            pass *)
    allow : string list;
        (** names exempt from comparison; a trailing ['*'] matches a
            prefix *)
  }

  val default : config
  (** [time_tol = 1.0] (2x either way), [time_floor = 0.01] s,
      [alloc_tol = 1.0], [alloc_floor = 65536.] words, empty
      allowlist. *)

  val diff : config -> baseline:Snapshot.t -> fresh:Snapshot.t -> string list
  (** All violations of [fresh] against [baseline], one readable line
      each; [[]] means the snapshots agree. *)
end

(** {1 Trace validation}

    A minimal JSON reader used by CI to sanity-check emitted traces
    without external tooling. *)

type trace_stats = {
  trace_events : int;  (** total events in the array *)
  trace_complete : int;  (** ["ph":"X"] complete events *)
  trace_counter_samples : int;  (** ["ph":"C"] counter samples *)
  trace_gc_samples : int;  (** the subset of those on [gc.*] heap lanes *)
  trace_lanes : int;  (** distinct [tid] values (domain lanes) *)
}

val validate_trace_file : string -> (trace_stats, string) result
(** Parse [file] as JSON and check it is an array of objects each
    carrying a string ["name"], a string ["ph"], a numeric ["ts"] and
    integer ["pid"]/["tid"]; ["ph":"X"] events must carry a
    non-negative numeric ["dur"], ["ph":"C"] events a numeric
    ["args.value"] — and on [gc.*] heap lanes the value must further
    be a non-negative integer (cumulative word/collection counts).
    Returns event statistics, or a description of the first
    violation. *)
