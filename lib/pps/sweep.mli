(** Parallel theorem sweeps: run one {!Theorems} checker over a whole
    {!Gen}-generated family of random systems, optionally across the
    domains of a {!Pak_par.Pool}.

    A sweep evaluates seeds [first_seed .. first_seed + count - 1]. For
    each seed it generates the protocol-consistent tree [Gen.tree seed],
    picks a proper action and a past-based fact from the same seed, and
    runs the selected checker; seeds whose tree has no proper action
    are counted as skipped. The per-seed computation is a pure function
    of the seed, so a sweep's {!report} is {e identical for every job
    count} — outcomes are assembled in seed order regardless of which
    domain checked which seed ([pak sweep --jobs 4] is byte-for-byte
    [pak sweep --jobs 1]).

    Budgets compose: a sweep running inside {!Pak_guard.Budget.install}
    or [with_budget] spends one shared pool of fuel across all its
    domains, so [--max-points] bounds the whole sweep, not each domain
    separately. *)

open Pak_rational

(** Which paper result to check on every generated system. *)
type check =
  | Expectation  (** Theorem 6.2: exact expectation identity. *)
  | Sufficiency  (** Theorem 4.2 at [p] = the minimal belief. *)
  | Lemma43  (** Lemma 4.3(b): past-based facts are independent. *)
  | Necessity  (** Lemma 5.1 at [p = µ(ϕ@α | α)]. *)
  | Pak_corollary  (** Corollary 7.2 at the sweep's [eps]. *)
  | Kop  (** Lemma F.1, the Knowledge-of-Preconditions limit. *)

val all_checks : check list
(** Every check, in the fixed order above. *)

val check_name : check -> string
(** Stable CLI name: [thm62], [thm42], [lemma43], [lemma51], [cor72],
    [kop]. *)

val of_name : string -> check option
(** Inverse of {!check_name}; [None] for unknown names. *)

val paper_result : check -> string
(** The paper result the check exercises, e.g. ["Theorem 6.2"]. *)

val seed_instance : ?params:Gen.params -> int -> (Tree.t * (int * string) * Fact.t) option
(** The per-seed instance a sweep checks: the generated tree, the
    picked proper (agent, action) pair and the past-based fact — [None]
    when the seed's tree offers no proper action. A pure function of
    [(params, seed)]; {!run} checks exactly these instances, and the
    certificate layer ([Pak_cert.certify_sweep]) re-derives them from
    the same seeds. *)

type report = {
  check : check;
  eps : Q.t;  (** the ε used by [Pak_corollary]; recorded for all. *)
  first_seed : int;
  count : int;
  checked : int;  (** seeds with a proper action, actually checked *)
  skipped : int;  (** seeds whose tree offered no proper action *)
  violations : int list;  (** seeds whose check came back false, ascending *)
}

val passed : report -> bool
(** No violations and at least one system actually checked — the same
    criterion the reproduction bench applies to its random sweeps. *)

val run :
  ?pool:Pak_par.Pool.t ->
  ?params:Gen.params ->
  ?eps:Q.t ->
  check ->
  first_seed:int ->
  count:int ->
  report
(** Run one check over [count] seeds starting at [first_seed],
    generating trees with [params] (default {!Gen.default_params}) and
    using [eps] (default 1/10) for {!Pak_corollary}. Work is split
    across [pool] when given; the report does not depend on the pool.

    @raise Invalid_argument if [count < 0]. *)

val run_all :
  ?pool:Pak_par.Pool.t ->
  ?params:Gen.params ->
  ?eps:Q.t ->
  first_seed:int ->
  count:int ->
  unit ->
  report list
(** {!run} for every member of {!all_checks}, in order: the same
    reports, but each seed's instance is generated once and checked
    six times. *)

val fold_seeds :
  ?pool:Pak_par.Pool.t ->
  first_seed:int ->
  count:int ->
  (int -> 'a) ->
  init:'acc ->
  ('acc -> int -> 'a -> 'acc) ->
  'acc
(** [fold_seeds ~first_seed ~count f ~init step] computes [f seed] for
    every seed of [first_seed .. first_seed + count - 1], across [pool]
    when given, then folds [step acc seed (f seed)] over them in seed
    order. The one seed fan-out of the sweeps: [f] must be a function
    of its seed alone, and then the result does not depend on the
    pool.

    @raise Invalid_argument if [count < 0]. *)

val pp_report : Format.formatter -> report -> unit
(** One line per sweep:
    [thm62 (Theorem 6.2): seeds 1..400: 400 checked, 0 skipped, 0
    violations  OK] — with the violating seeds listed when any. *)
