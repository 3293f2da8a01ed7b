(** pak_par — a Domain-based worker pool with deterministic work
    chunking.

    The pool parallelizes the embarrassingly parallel fan-out paths of
    pak (theorem sweeps over generated system families, Monte-Carlo
    simulation, fuzzing) across OCaml 5 domains, while keeping every
    result {e bit-for-bit deterministic}:

    - {!map} assembles per-element results in input order, so its
      output never depends on the number of jobs or on scheduling;
    - work is split into {e deterministic chunks} — chunk [c] of [n]
      items under [k] chunks is the index interval
      [\[c·n/k, (c+1)·n/k)], a pure function of [(n, k)]. Scheduling
      decides only {e which domain} runs a chunk, never what the chunk
      contains.

    The calling domain participates in every call (a pool created with
    [~jobs] uses [jobs - 1] worker domains plus the caller), so a pool
    of one job degrades to plain sequential execution with no domain
    spawned and no synchronization taken.

    Resource budgets compose: each pool call captures the caller's
    ambient {!Pak_guard.Budget} scope ({!Pak_guard.Budget.snapshot})
    and re-installs it inside every worker domain, so all domains
    charge the {e same} shared atomic fuel counters — one budget bounds
    the whole parallel computation, and exhaustion in any domain
    surfaces in the caller (see {!Pak_guard.Budget.under}).

    Exceptions raised by the mapped function are re-raised in the
    caller after all chunks have settled; when several chunks fail, the
    exception of the lowest-numbered chunk wins, which keeps failure
    deterministic too. *)

type t
(** A worker pool. Values of this type are safe to share: any domain
    may submit work, but a single {!map} call must not be re-entered
    from inside its own mapped function (workers do not nest
    participation). *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains that wait for
    work. [jobs = 1] spawns nothing. A good default for [jobs] is
    [Domain.recommended_domain_count ()].

    @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int
(** The parallelism degree the pool was created with (workers + the
    participating caller). *)

val close : t -> unit
(** Shut the worker domains down and join them. Idempotent. Calls in
    flight finish first; submitting after [close] raises
    [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and closes it
    afterwards, whether [f] returns or raises. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr], computed across the pool's
    domains. Per-element results are assembled in input order: the
    output is identical for every job count, provided [f] itself is a
    function of its argument alone (the engines parallelized by pak —
    theorem checking, simulation blocks, fuzz probes — are). *)
