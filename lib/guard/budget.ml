type limits = {
  max_points : int option;
  max_nodes : int option;
  max_limbs : int option;
  max_iters : int option;
  timeout_ms : int option;
}

let unlimited =
  { max_points = None; max_nodes = None; max_limbs = None; max_iters = None; timeout_ms = None }

let limits ?max_points ?max_nodes ?max_limbs ?max_iters ?timeout_ms () =
  { max_points; max_nodes; max_limbs; max_iters; timeout_ms }

let is_unlimited l = l = unlimited

type cap = {
  name : string;
  docv : string;
  doc : string;
  get : limits -> int option;
  set : limits -> int option -> limits;
}

let caps =
  [ { name = "max-points";
      docv = "N";
      doc = "tree points visited across sweeps and measure queries";
      get = (fun l -> l.max_points);
      set = (fun l v -> { l with max_points = v })
    };
    { name = "max-nodes";
      docv = "N";
      doc = "constructed tree nodes (bounds system compilation and document loading)";
      get = (fun l -> l.max_nodes);
      set = (fun l v -> { l with max_nodes = v })
    };
    { name = "max-limbs";
      docv = "N";
      doc = "big-number limb operations (bounds exact rational blowups)";
      get = (fun l -> l.max_limbs);
      set = (fun l v -> { l with max_limbs = v })
    };
    { name = "max-iters";
      docv = "N";
      doc =
        "fixpoint iterations (bounds the common knowledge / common belief computations)";
      get = (fun l -> l.max_iters);
      set = (fun l v -> { l with max_iters = v })
    };
    { name = "timeout-ms";
      docv = "MS";
      doc = "milliseconds of wall-clock time (jobs-invariant)";
      get = (fun l -> l.timeout_ms);
      set = (fun l v -> { l with timeout_ms = v })
    }
  ]

(* Fuel lives in atomics so every domain of a parallel computation can
   charge the same budget: a sweep across N domains is bounded by ONE
   shared pool of fuel, not N private ones. Two scopes exist:

   - the process-global installed budget (the CLI's --max-* flags),
     charged by every domain that has no closer scope;
   - a domain-local scoped budget pushed by [with_budget], visible only
     to the pushing domain — and to worker domains that re-install it
     via [snapshot]/[under] (the pak_par pool does this), which again
     share the same atomic fuel cells.

   [live_scopes] is the single load-and-branch on the uncharged fast
   path: it counts the installed global budget and every running
   [with_budget]. A pool worker's [under] does not count, since the
   scope it re-installs belongs to a caller whose [with_budget]
   outlives the dispatch. *)
(* The zero-dependency guard layer has no wall clock of its own:
   [Sys.time] is processor time, which accumulates across running
   domains, so a CPU deadline burns roughly [jobs]x faster than wall
   time under the pool. Executables that may link [Unix] (the CLI, the
   bench) inject [Unix.gettimeofday] here once at startup; deadlines
   created while a wall clock is installed are then measured in wall
   time, making the deadline cap jobs-invariant. Without injection the
   documented CPU-time behavior is unchanged. *)
let wall_clock : (unit -> float) option ref = ref None

let set_wall_clock c = wall_clock := c

(* The clock function is captured at budget creation, so un-installing
   the wall clock later cannot change the meaning of a live deadline. *)
type deadline =
  | No_deadline
  | Cpu_deadline of float (* Sys.time seconds, absolute *)
  | Wall_deadline of (unit -> float) * float (* clock, absolute *)

type state = {
  lim : limits;
  points : int Atomic.t;
  nodes : int Atomic.t;
  limbs : int Atomic.t;
  iters : int Atomic.t;
  deadline : deadline;
  countdown : int Atomic.t; (* charges until the next deadline check *)
}

let live_scopes = Atomic.make 0

let fresh lim =
  let deadline =
    match lim.timeout_ms with
    | None -> No_deadline
    | Some ms ->
      let s = float_of_int ms /. 1000. in
      (match !wall_clock with
       | Some clk -> Wall_deadline (clk, clk () +. s)
       | None -> Cpu_deadline (Sys.time () +. s))
  in
  { lim;
    points = Atomic.make 0;
    nodes = Atomic.make 0;
    limbs = Atomic.make 0;
    iters = Atomic.make 0;
    deadline;
    countdown = Atomic.make 0
  }

let global : state option ref = ref None
let local_key : state option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let exempt_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let current () =
  match Domain.DLS.get local_key with Some _ as s -> s | None -> !global

let set_local scope =
  let prev = Domain.DLS.get local_key in
  Domain.DLS.set local_key scope;
  prev

(* How many charges may pass between two reads of the clock. Small
   enough that a runaway loop overshoots its deadline by microseconds,
   large enough that Bignat-level charging does not pay a clock read
   per multiplication. *)
let deadline_stride = 64

let exceeded what limit used =
  raise
    (Error.Error
       (Error.makef Error.Budget_exceeded "%s budget exceeded (limit %d, needed %d)" what
          limit used))

let deadline_expired = function
  | No_deadline -> false
  | Cpu_deadline d -> Sys.time () > d
  | Wall_deadline (clk, d) -> clk () > d

let check_deadline_now s =
  if deadline_expired s.deadline then
    raise
      (Error.Error
         (Error.makef Error.Budget_exceeded "deadline of %d ms exceeded"
            (match s.lim.timeout_ms with Some ms -> ms | None -> 0)))

let tick s =
  if Atomic.fetch_and_add s.countdown (-1) <= 0 then begin
    Atomic.set s.countdown deadline_stride;
    check_deadline_now s
  end

(* Fuel is spent before the limit check (fetch-and-add), so concurrent
   charges from several domains cannot jointly sneak past the limit:
   whichever charge crosses it observes the full shared total and
   raises. *)
let charge what limit cell n =
  let used = Atomic.fetch_and_add cell n + n in
  match limit with Some l when used > l -> exceeded what l used | _ -> ()

let charging () =
  if Atomic.get live_scopes = 0 then None
  else if Domain.DLS.get exempt_key then None
  else current ()

let charge_points n =
  match charging () with
  | None -> ()
  | Some s ->
    tick s;
    charge "points" s.lim.max_points s.points n

let charge_nodes n =
  match charging () with
  | None -> ()
  | Some s ->
    tick s;
    charge "nodes" s.lim.max_nodes s.nodes n

let charge_limbs n =
  match charging () with
  | None -> ()
  | Some s ->
    tick s;
    charge "limbs" s.lim.max_limbs s.limbs n

let charge_iters n =
  match charging () with
  | None -> ()
  | Some s ->
    check_deadline_now s;
    charge "fixpoint-iteration" s.lim.max_iters s.iters n

let check_deadline () =
  match charging () with None -> () | Some s -> check_deadline_now s

let install lim =
  let scope = if is_unlimited lim then None else Some (fresh lim) in
  (match (!global, scope) with
   | None, Some _ -> Atomic.incr live_scopes
   | Some _, None -> Atomic.decr live_scopes
   | _ -> ());
  global := scope

let clear () = install unlimited

let with_budget lim f =
  Atomic.incr live_scopes;
  let prev = set_local (Some (fresh lim)) in
  let restore () =
    ignore (set_local prev);
    Atomic.decr live_scopes
  in
  match f () with
  | v ->
    restore ();
    Ok v
  | exception Error.Error ({ kind = Error.Budget_exceeded; _ } as e) ->
    restore ();
    Result.Error e
  | exception e ->
    restore ();
    raise e

let attempt f =
  match f () with
  | v -> Ok v
  | exception Error.Error ({ kind = Error.Budget_exceeded; _ } as e) -> Result.Error e

let exempt f =
  let saved = Domain.DLS.get exempt_key in
  Domain.DLS.set exempt_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set exempt_key saved) f

type snapshot = { snap_scope : state option; snap_exempt : bool }

let snapshot () =
  { snap_scope = Domain.DLS.get local_key; snap_exempt = Domain.DLS.get exempt_key }

let under snap f =
  let prev_scope = set_local snap.snap_scope in
  let prev_exempt = Domain.DLS.get exempt_key in
  Domain.DLS.set exempt_key snap.snap_exempt;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set exempt_key prev_exempt;
      ignore (set_local prev_scope))
    f

let spent () =
  match current () with
  | None -> [ ("points", 0); ("nodes", 0); ("limbs", 0); ("iters", 0) ]
  | Some s ->
    [ ("points", Atomic.get s.points);
      ("nodes", Atomic.get s.nodes);
      ("limbs", Atomic.get s.limbs);
      ("iters", Atomic.get s.iters)
    ]

(* Fuel and deadline slack as Obs gauges: sampled whenever a metrics
   summary or snapshot is taken. Only limited fuel kinds report (an
   unlimited kind has no "remaining" to speak of, and its spent total
   is already a counter-like quantity visible via [spent]); with no
   budget in scope the provider reports nothing, keeping snapshots of
   unbudgeted runs free of noise. *)
let () =
  Pak_obs.Obs.register_gauges (fun () ->
      match current () with
      | None -> []
      | Some s ->
        let fuel name limit cell acc =
          match limit with
          | None -> acc
          | Some l ->
            let used = Atomic.get cell in
            ("budget." ^ name ^ "_spent", float_of_int used)
            :: ("budget." ^ name ^ "_remaining", float_of_int (Stdlib.max 0 (l - used)))
            :: acc
        in
        let slack =
          match s.deadline with
          | No_deadline -> []
          | Cpu_deadline d -> [ ("budget.deadline_slack_ms", (d -. Sys.time ()) *. 1e3) ]
          | Wall_deadline (clk, d) -> [ ("budget.deadline_slack_ms", (d -. clk ()) *. 1e3) ]
        in
        fuel "points" s.lim.max_points s.points
          (fuel "nodes" s.lim.max_nodes s.nodes
             (fuel "limbs" s.lim.max_limbs s.limbs
                (fuel "iters" s.lim.max_iters s.iters slack))))
