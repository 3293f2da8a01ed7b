(** Resource budgets: fuel counters and a deadline, enforced at the
    engines' existing instrumentation sites — and shared across
    domains, so one budget bounds a whole parallel computation.

    A budget bounds four kinds of fuel plus wall time:

    - {e points}: tree points visited by full sweeps
      ([Tree.iter_points] / [fold_points]) and run-slots touched by
      measure queries — the units the [pak_obs] counters
      [tree.points_visited] and [tree.measure_runs] measure;
    - {e nodes}: tree nodes constructed through [Tree.Builder] (the
      horizon compiler, [Tree_io] loading, generators);
    - {e limbs}: big-number limbs touched by [Bignat]
      multiplication/division — bounds rational-arithmetic blowups;
    - {e iters}: fixpoint iterations of the [C_G]/[CB_G^q] greatest
      fixpoints in [Semantics.eval];
    - {e deadline}: milliseconds from installation. By default the
      clock is [Sys.time] (processor time, the only clock available to
      the zero-dependency guard layer) — note that processor time
      accumulates across running domains, so a 4-domain computation
      consumes a CPU deadline roughly 4× faster than wall time.
      Executables that link [Unix] can inject a wall clock with
      {!set_wall_clock}; deadlines created afterwards are then
      measured in wall time and [--timeout-ms] becomes jobs-invariant
      (the CLI and the bench do this at startup).

    {2 Scopes and domains}

    Fuel cells are atomics. Two scopes exist:

    - the {e process-global installed budget} ({!install}, the CLI's
      [--max-*] flags): every domain that holds no closer scope
      charges it, so a parallel sweep under [pak sweep --jobs N] spends
      one shared pool of fuel, not [N] private ones;
    - a {e domain-local scoped budget} pushed by {!with_budget},
      visible only to the pushing domain — plus any worker domain that
      re-installs it via {!snapshot}/{!under}, as the [pak_par] pool
      does around every task. Re-installed scopes share the original's
      atomic fuel cells, so scoped budgets bound parallel work too.

    When no budget is in scope ({!live_scopes} zero) every charge site
    reduces to one load-and-branch. Exhaustion raises [Error.Error]
    with kind {!Error.Budget_exceeded} — computations never hang and
    never overflow the stack; callers catch it with {!attempt} or
    {!with_budget}, or let it reach the CLI's top-level handler (exit
    code 4). *)

type limits = {
  max_points : int option;
  max_nodes : int option;
  max_limbs : int option;
  max_iters : int option;
  timeout_ms : int option;
}

val unlimited : limits

val limits :
  ?max_points:int ->
  ?max_nodes:int ->
  ?max_limbs:int ->
  ?max_iters:int ->
  ?timeout_ms:int ->
  unit ->
  limits

val is_unlimited : limits -> bool

(** One fuel kind (or the deadline) as a named setting: the table the
    CLI's budget flags, [pak serve]'s per-request caps, its request
    fields and its journal meta are all derived from. *)
type cap = {
  name : string;
      (** the CLI flag without its dashes, also the [pak serve] request
          field and journal-meta key *)
  docv : string;  (** the flag's value placeholder *)
  doc : string;
      (** what the limit counts, as a noun phrase taking [$(docv)] as its
          quantity (Cmdliner markup) *)
  get : limits -> int option;
  set : limits -> int option -> limits;
}

val caps : cap list
(** The five limits in record order: points, nodes, limbs, iterations,
    deadline. *)

val set_wall_clock : (unit -> float) option -> unit
(** Install (or remove, with [None]) the clock used for deadlines
    created from now on: a function returning absolute seconds, e.g.
    [Unix.gettimeofday] injected by an executable that links [Unix].
    With a wall clock installed, [timeout_ms] measures wall time and is
    jobs-invariant; without one it measures processor time via
    [Sys.time]. The clock function is captured when a budget is
    created, so changing it never retimes a live deadline. *)

(** {1 Scoped and global enforcement} *)

val with_budget : limits -> (unit -> 'a) -> ('a, Error.t) result
(** [with_budget l f] runs [f] with [l] in scope for the calling
    domain (fuel counters zeroed, deadline started), restoring the
    previous scope afterwards. Returns [Error e] iff the budget was
    exceeded; other exceptions propagate. Scopes nest: the innermost
    one is charged. Worker domains spawned through the [pak_par] pool
    inherit the scope (see {!snapshot}); charges from every inheriting
    domain hit the same shared fuel. *)

val install : limits -> unit
(** Install the process-global budget (the CLI's [--max-*] /
    [--timeout-ms] flags). Fuel counters restart from zero and the
    deadline clock starts now. The global budget is charged by every
    domain not inside a {!with_budget} scope. *)

val clear : unit -> unit
(** Remove the installed global budget; charges outside scoped budgets
    become no-ops again. *)

val attempt : (unit -> 'a) -> ('a, Error.t) result
(** [attempt f] runs [f] under the ambient budget, catching only
    budget exhaustion. The degradation entry point: try exact, fall
    back to estimation on [Error _]. *)

val exempt : (unit -> 'a) -> 'a
(** Run [f] with charging suspended {e on the calling domain} (the
    ambient budget resumes afterwards, with fuel spent so far intact).
    Used by the degradation path so a bounded Monte-Carlo fallback
    cannot itself be killed by the already-exhausted budget. *)

(** {1 Cross-domain propagation}

    The bridge the [pak_par] pool uses to make worker domains charge
    the caller's budget. Library code rarely calls these directly. *)

type snapshot
(** The calling domain's current budget context: its scoped budget (if
    any) and exempt flag. A snapshot aliases the scope's fuel cells
    rather than copying them — re-installing it elsewhere shares the
    fuel. *)

val snapshot : unit -> snapshot
(** Capture the calling domain's ambient scope and exempt flag. *)

val under : snapshot -> (unit -> 'a) -> 'a
(** [under snap f] runs [f] with [snap]'s scope and exempt flag
    installed on the calling domain, restoring the domain's previous
    context afterwards (also on exceptions, which propagate). Charges
    made by [f] spend the snapshotted scope's shared fuel; budget
    exhaustion raises here exactly as it would have in the snapshotting
    domain. *)

(** {1 Charge points}

    All are no-ops (one load and branch) unless a budget is in scope. *)

val live_scopes : int Atomic.t
(** Read-only fast-path switch: the installed global budget plus every
    running {!with_budget}, on any domain. {!under} does not count: the
    scope it re-installs is its caller's, which outlives it. *)

val charge_points : int -> unit
val charge_nodes : int -> unit
val charge_limbs : int -> unit

val charge_iters : int -> unit
(** Also forces a deadline check: fixpoint iterations are the
    coarsest-grained loop the budget must interrupt. *)

val check_deadline : unit -> unit
(** Explicit deadline check, for long loops with no natural fuel. *)

val spent : unit -> (string * int) list
(** Fuel spent under the ambient budget (the calling domain's scope,
    else the global one), by charge-point name ([points], [nodes],
    [limbs], [iters]) — for error messages and the bench harness.
    Totals include charges made by every domain sharing the budget. *)
