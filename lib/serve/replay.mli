(** Deterministic journal replay: re-execute a flight-recorder journal
    through the live engine and diff the responses.

    Replay reconstructs the input byte stream from the journal's
    request records ([Journal.Request] entries with a [frame]
    disposition; [junk] request records are skipped — their bytes were
    never kept), runs it through {!Serve.run_string} under the
    configuration recorded in the journal meta, and compares the
    produced response payloads pairwise, in order, against the recorded
    [Journal.Response] entries (again skipping [junk]-disposition
    records, which replay by construction does not reproduce).

    The comparison is byte-for-byte {e modulo} the fields that are not
    pure functions of the input stream:

    - [(trace ...)] groups are stripped from both sides — trace ids are
      reproduced exactly in practice (they are a pure function of the
      stream), but the diff must not depend on that;
    - [(metrics ...)] groups are stripped — per-request metric deltas
      and [(op status)] latency percentiles read global, wall-clock
      observability state;
    - for responses recorded with a [metrics] or [status] disposition,
      [(result ...)] is also stripped — an OpenMetrics dump or a status
      result reports the {e recording} process's cumulative state
      (journal position included), which a replaying process cannot
      reproduce. The response envelope (id, code, status) still has to
      match.

    Everything else — results, probabilities, error messages, shed
    boundaries, cache-hit bodies, pong/bye frames — must match
    byte-for-byte. *)

type divergence = {
  d_seq : int;  (** payload-frame sequence number of the recorded response *)
  d_trace : string;  (** its recorded trace id ([""] = none) *)
  d_want : string;  (** normalized recorded payload *)
  d_got : string;  (** normalized replayed payload *)
}

type report = {
  rp_requests : int;  (** request frames re-executed *)
  rp_skipped_junk : int;  (** junk records dropped (both kinds) *)
  rp_compared : int;  (** response pairs compared *)
  rp_matched : int;
  rp_divergences : divergence list;  (** in journal order *)
  rp_missing : int;  (** recorded responses the replay did not produce *)
  rp_extra : int;  (** replayed responses beyond the recording *)
  rp_tail : string option;  (** carried from {!Pak_journal.Journal.read} *)
}

val meta_of_config : Serve.config -> string
(** Render the replay-relevant configuration as the journal meta
    string: a [(serve-config (version 1) (jobs N) ... )] s-expression.
    Sinks and clocks are process-local and are not recorded. *)

val config_of_meta : string -> Serve.config
(** Parse a journal meta string back into a configuration, tolerantly:
    unknown fields are ignored and missing or malformed ones fall back
    to {!Serve.default_config}, so a replay binary can read journals
    from both older and newer recorders. Older recorders wrote an
    [(engine …)] field naming the evaluator; it is ignored. *)

val strip_groups : string list -> string -> string
(** [strip_groups names s] removes every balanced [(name ...)] group
    whose head atom is in [names] (plus one preceding space), tracking
    quoted strings so parentheses inside ["..."] do not miscount.
    Exposed for tests. *)

val normalize : disp:string -> string -> string
(** The per-response normalization described above, keyed by the
    recorded disposition token. *)

val run :
  ?jobs:int ->
  ?clock:(unit -> float) ->
  ?limits:Pak_guard.Budget.limits ->
  Pak_journal.Journal.read_result ->
  (report, string) result
(** Replay a read journal. [jobs] overrides the recorded job count
    (the response stream must not change — that is the point); [clock]
    supplies the drain-deadline clock; [limits] replaces the recorded
    server-level caps (the fuzzer uses it to bound replays of hostile
    journals whose meta declares no limits). [Error] when the meta does
    not yield a runnable configuration. Never raises on corrupt
    journals: garbage entries simply become divergences or
    missing/extra counts. *)
