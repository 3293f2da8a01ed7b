(* Domain pool with deterministic chunking. Design notes:

   - Work arrives as "participation" tasks: a map call carves its input
     into nchunks deterministic index intervals and posts one
     participation closure per would-be helper; every participant
     (workers that picked the closure up, plus the caller) claims chunk
     indices from a shared atomic cursor until none remain. If all
     workers are busy with other calls the caller simply claims every
     chunk itself — calls never deadlock waiting for a worker.

   - Chunk CONTENTS are a pure function of (n, nchunks); scheduling
     only decides which domain runs a chunk. Results land in a
     per-chunk slot array and are assembled in chunk order, so output
     never depends on timing.

   - The caller's ambient Budget scope is captured once per call and
     re-installed inside each worker (Budget.under), so every domain
     charges the same shared fuel counters: one budget bounds the
     whole parallel computation.

   - A participation closure left in the queue after its call finished
     (all chunks claimed) finds the cursor exhausted and returns
     immediately; stale tasks are harmless. *)

module Budget = Pak_guard.Budget

type task = Participate of (unit -> unit) | Quit

type t = {
  n_jobs : int;
  queue : task Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable workers : unit Domain.t list;
  mutable closed : bool;
}

let rec worker_loop pool =
  Mutex.lock pool.lock;
  while Queue.is_empty pool.queue do
    Condition.wait pool.nonempty pool.lock
  done;
  let task = Queue.pop pool.queue in
  Mutex.unlock pool.lock;
  match task with
  | Quit -> ()
  | Participate f ->
    f ();
    worker_loop pool

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be at least 1";
  let pool =
    { n_jobs = jobs;
      queue = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      workers = [];
      closed = false
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let jobs pool = pool.n_jobs

let post pool tasks =
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool: closed"
  end;
  List.iter (fun t -> Queue.push t pool.queue) tasks;
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.lock

let close pool =
  let workers =
    Mutex.protect pool.lock (fun () ->
        if pool.closed then []
        else begin
          pool.closed <- true;
          List.iter (fun _ -> Queue.push Quit pool.queue) pool.workers;
          Condition.broadcast pool.nonempty;
          let ws = pool.workers in
          pool.workers <- [];
          ws
        end)
  in
  List.iter Domain.join workers

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> close pool) (fun () -> f pool)

(* Run [run_chunk c] for every c in [0, nchunks) across the pool.
   Participation tasks never let an exception escape into the worker
   loop: failures are parked per chunk and re-raised — lowest chunk
   first, for determinism — in the caller once every chunk settled. *)
let dispatch pool nchunks run_chunk =
  if nchunks <= 1 then run_chunk 0
  else begin
    let snap = Budget.snapshot () in
    let errors = Array.make nchunks None in
    let next = Atomic.make 0 in
    let settled = ref 0 in
    let done_lock = Mutex.create () in
    let all_done = Condition.create () in
    let claim () =
      let rec go () =
        let c = Atomic.fetch_and_add next 1 in
        if c < nchunks then begin
          (try run_chunk c
           with e -> errors.(c) <- Some (e, Printexc.get_raw_backtrace ()));
          Mutex.protect done_lock (fun () ->
              incr settled;
              if !settled = nchunks then Condition.broadcast all_done);
          go ()
        end
      in
      go ()
    in
    let helpers = min (pool.n_jobs - 1) (nchunks - 1) in
    post pool (List.init helpers (fun _ -> Participate (fun () -> Budget.under snap claim)));
    claim ();
    Mutex.lock done_lock;
    while !settled < nchunks do
      Condition.wait all_done done_lock
    done;
    Mutex.unlock done_lock;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors
  end

(* Chunk c of n items under k chunks covers [c*n/k, (c+1)*n/k): a pure
   function of (n, k), independent of scheduling. *)
let bounds ~n ~nchunks c = (c * n / nchunks, (c + 1) * n / nchunks)

let map pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let nchunks = min pool.n_jobs n in
    let slots = Array.make nchunks [||] in
    dispatch pool nchunks (fun c ->
        let lo, hi = bounds ~n ~nchunks c in
        slots.(c) <- Array.init (hi - lo) (fun i -> f arr.(lo + i)));
    Array.concat (Array.to_list slots)
  end
