(* Process-global, domain-safe observability state. The null sink is
   the [on = false] state: every instrumentation site reduces to one
   load and branch, so hot paths keep their uninstrumented cost
   profile. With a sink enabled, counter bumps and histogram records
   are single atomic adds (no lock on the hot path); registry lookups,
   span statistics, span-tree folding and trace emission — all rare or
   already channel-bound — share one mutex. *)

let on = ref false

let enable () = on := true
let disable () = on := false
let enabled () = !on

(* Allocation attribution kill switch. When on (the default), every
   span site also reads the domain-local GC allocation counters at
   entry and exit; when off, spans record only time and the alloc
   columns stay 0. The switch exists so the ~per-span cost of the
   [Gc.quick_stat] reads can be shed if it ever shows up in the
   bench overhead pair (BENCH_obs.json, alloc_off/on scenarios). *)
let alloc_on = ref true

let set_track_allocations b = alloc_on := b
let track_allocations () = !alloc_on

(* [Gc.minor_words ()] is exact (it includes the un-collected young
   fill) and domain-local — precisely what per-span attribution
   wants, at no allocation cost in native code. [Gc.quick_stat ()]
   supplies the major-heap counters; direct major allocation is
   [major_words] growth not explained by promotion. The quick_stat
   record itself costs ~24 minor words per call; reads are ordered so
   a span's own counters never include its entry/exit bookkeeping. *)
let major_counters () =
  let s = Gc.quick_stat () in
  (s.Gc.major_words, s.Gc.promoted_words)

(* One lock for everything that is not a counter bump: the registries,
   span-statistic and span-tree updates, gauge-provider registration
   and trace emission. Contention is negligible — spans wrap whole
   engine calls, and registry lookups happen once per counter per
   module load. *)
let lock = Mutex.create ()
let locked f = Mutex.protect lock f

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_value : int Atomic.t }

let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 32

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counter_registry name with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_value = Atomic.make 0 } in
        Hashtbl.add counter_registry name c;
        c)

let incr c = if !on then ignore (Atomic.fetch_and_add c.c_value 1)
let add c n = if !on then ignore (Atomic.fetch_and_add c.c_value n)
let value c = Atomic.get c.c_value

let counters () =
  locked (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_value) :: acc) counter_registry [])
  |> List.sort compare

let counter_value name =
  match locked (fun () -> Hashtbl.find_opt counter_registry name) with
  | Some c -> Atomic.get c.c_value
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* Log-bucketed integer histograms with exact counts. Bucket 0 collects
   every non-positive value; bucket [i >= 1] collects [2^(i-1), 2^i).
   63 buckets therefore cover every OCaml int, so a record can never
   fall outside the histogram. Buckets are atomics: recording is one
   atomic add, the same hot-path discipline as counters. *)

let n_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    bits v 0
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)

let bucket_hi i =
  if i <= 0 then 0 else if i >= n_buckets - 1 then max_int else (1 lsl i) - 1

type histogram = { h_name : string; h_buckets : int Atomic.t array }

let histogram_registry : (string, histogram) Hashtbl.t = Hashtbl.create 32

(* Callers hold [lock]. *)
let histogram_locked name =
  match Hashtbl.find_opt histogram_registry name with
  | Some h -> h
  | None ->
    let h = { h_name = name; h_buckets = Array.init n_buckets (fun _ -> Atomic.make 0) } in
    Hashtbl.add histogram_registry name h;
    h

let histogram name = locked (fun () -> histogram_locked name)

let record h v = if !on then ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1)

let histogram_counts h = Array.map Atomic.get h.h_buckets

let histograms () =
  locked (fun () ->
      Hashtbl.fold
        (fun name h acc -> (name, Array.map Atomic.get h.h_buckets) :: acc)
        histogram_registry [])
  |> List.sort compare

let merge_counts a b =
  Array.init (max (Array.length a) (Array.length b)) (fun i ->
      (if i < Array.length a then a.(i) else 0) + if i < Array.length b then b.(i) else 0)

let total_count counts = Array.fold_left ( + ) 0 counts

(* Quantile estimate from bucket counts: find the bucket holding the
   q-th sample and interpolate linearly inside it. Exact sample values
   are gone, so the estimate is bucket-resolution (a factor of 2); the
   counts themselves stay exact. [q] is a fraction: a percent such as
   [50.] is a caller's mistake, so it raises rather than clamping to
   the maximum. *)
let percentile counts q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Obs.percentile: q must be in [0, 1]";
  let total = total_count counts in
  if total = 0 then 0.
  else begin
    let target = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rec find i cum =
      if i >= Array.length counts then float_of_int (bucket_hi (Array.length counts - 1))
      else begin
        let c = counts.(i) in
        if cum + c >= target then begin
          let lo = float_of_int (bucket_lo i) and hi = float_of_int (bucket_hi i) in
          if c = 0 then lo
          else lo +. ((hi -. lo) *. (float_of_int (target - cum) /. float_of_int c))
        end
        else find (i + 1) (cum + c)
      end
    in
    find 0 0
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Each domain tracks its stack of open spans in domain-local storage;
   at span exit the (path, duration) sample folds into one
   process-global table keyed by the full path, so nested engine calls
   render as a tree with inclusive and self time. It is the only span
   registry: per-name statistics are folds over the tree. Paths are stored
   innermost-first (the natural push order); reporting reverses them.
   Domains merge by path: a worker running a checker at top level
   contributes to the same root node as the caller would. *)

type tree_stat = {
  mutable t_count : int;
  mutable t_total : float;
  mutable t_minor_aw : float;
  mutable t_major_aw : float;
}

let tree_registry : (string list, tree_stat) Hashtbl.t = Hashtbl.create 32
let path_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

(* Callers hold [lock]. *)
let tree_stat_locked path =
  match Hashtbl.find_opt tree_registry path with
  | Some s -> s
  | None ->
    let s = { t_count = 0; t_total = 0.; t_minor_aw = 0.; t_major_aw = 0. } in
    Hashtbl.add tree_registry path s;
    s

type span_node = {
  sn_name : string;
  sn_path : string list;
  sn_count : int;
  sn_total : float;
  sn_self : float;
  sn_minor_aw : float;
  sn_self_minor_aw : float;
  sn_major_aw : float;
  sn_self_major_aw : float;
  sn_children : span_node list;
}

let rec is_prefix prefix path =
  match (prefix, path) with
  | [], _ -> true
  | p :: ps, q :: qs -> String.equal p q && is_prefix ps qs
  | _ :: _, [] -> false

(* One pass over the path keys in sorted order. Sorting puts every
   path directly before its descendants, so [level prefix depth]
   takes the nodes of length [depth + 1] under [prefix] from the front
   of the list, each followed by its own subtree, and hands back the
   rest. An entry longer than that has no recorded parent — the parent
   span had not exited yet — and is skipped, as is everything under
   it. *)
let span_tree () =
  let entries =
    locked (fun () ->
        Hashtbl.fold
          (fun path st acc ->
            (List.rev path, (st.t_count, st.t_total, st.t_minor_aw, st.t_major_aw)) :: acc)
          tree_registry [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let rec level prefix depth = function
    | (path, (c, t, mnr, mjr)) :: rest when is_prefix prefix path ->
      if List.compare_length_with path (depth + 1) <> 0 then level prefix depth rest
      else begin
        let children, rest = level path (depth + 1) rest in
        let child_sum f = List.fold_left (fun acc n -> acc +. f n) 0. children in
        (* Clamped: float rounding can push the children's sum a hair
           past the parent's inclusive total, and a child span can
           allocate on a domain whose parent frame was opened with
           allocation tracking off. *)
        let self incl children_sum = Float.max 0. (incl -. children_sum) in
        let node =
          { sn_name = List.nth path depth;
            sn_path = path;
            sn_count = c;
            sn_total = t;
            sn_self = self t (child_sum (fun n -> n.sn_total));
            sn_minor_aw = mnr;
            sn_self_minor_aw = self mnr (child_sum (fun n -> n.sn_minor_aw));
            sn_major_aw = mjr;
            sn_self_major_aw = self mjr (child_sum (fun n -> n.sn_major_aw));
            sn_children = children
          }
        in
        let siblings, rest = level prefix depth rest in
        (node :: siblings, rest)
      end
    | rest -> ([], rest)
  in
  fst (level [] 0 entries)

(* Per-name totals of a span forest — calls, inclusive seconds and
   inclusive minor/major words summed over every path ending in the
   name — sorted by name. This is the flat view of the one registry:
   [spans], [span_allocs] and the summary's span rows all read it. *)
let per_name forest =
  let tbl = Hashtbl.create 16 in
  let rec add n =
    let c, t, mnr, mjr =
      Option.value (Hashtbl.find_opt tbl n.sn_name) ~default:(0, 0., 0., 0.)
    in
    Hashtbl.replace tbl n.sn_name
      (c + n.sn_count, t +. n.sn_total, mnr +. n.sn_minor_aw, mjr +. n.sn_major_aw);
    List.iter add n.sn_children
  in
  List.iter add forest;
  Hashtbl.fold (fun name row acc -> (name, row) :: acc) tbl [] |> List.sort compare

let spans () = List.map (fun (name, (c, t, _, _)) -> (name, c, t)) (per_name (span_tree ()))

let span_allocs () =
  List.map (fun (name, (_, _, mnr, mjr)) -> (name, mnr, mjr)) (per_name (span_tree ()))

(* Baseline for the gc.* gauges: the cumulative GC counters captured
   at the last [reset] (and at module load), so snapshots report
   allocation since the workload under observation began rather than
   since the process started. Sampled from the calling domain;
   [Gc.quick_stat] also absorbs the counters of terminated domains,
   so a capture taken after a worker pool is torn down covers the
   workers' allocation too. [Gc.minor_words] is exact but strictly
   domain-local; quick_stat's minor count excludes the current young
   fill — the max of the two is exact single-domain and within one
   minor heap of exact otherwise. *)
type gc_base = {
  mutable b_minor_w : float;
  mutable b_major_w : float;
  mutable b_promoted_w : float;
  mutable b_minor_c : int;
  mutable b_major_c : int;
  mutable b_compactions : int;
}

let gc_minor_words_total () =
  Float.max (Gc.minor_words ()) (Gc.quick_stat ()).Gc.minor_words

let gc_base =
  { b_minor_w = 0.; b_major_w = 0.; b_promoted_w = 0.;
    b_minor_c = 0; b_major_c = 0; b_compactions = 0 }

let rebase_gc () =
  let s = Gc.quick_stat () in
  gc_base.b_minor_w <- gc_minor_words_total ();
  gc_base.b_major_w <- s.Gc.major_words;
  gc_base.b_promoted_w <- s.Gc.promoted_words;
  gc_base.b_minor_c <- s.Gc.minor_collections;
  gc_base.b_major_c <- s.Gc.major_collections;
  gc_base.b_compactions <- s.Gc.compactions

let () = rebase_gc ()

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counter_registry;
      Hashtbl.iter
        (fun _ h -> Array.iter (fun cell -> Atomic.set cell 0) h.h_buckets)
        histogram_registry;
      Hashtbl.reset tree_registry);
  rebase_gc ()

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

(* Gauges are sampled, not accumulated: providers registered by other
   layers (budget fuel in pak_guard, memo hit-rate in the semantics
   engine) are polled when a summary or snapshot is taken. A provider
   returning [] simply has nothing to report right now. *)

(* The built-in provider: per-domain GC gauges, reported as deltas
   from the last [reset] for the cumulative counters and as levels
   for the heap sizes. Always available — polling is per-capture, not
   hot-path, so the allocation kill switch does not disable it. *)
let gc_gauges () =
  let s = Gc.quick_stat () in
  let d f b = Float.max 0. (f -. b) in
  let di i b = float_of_int (Stdlib.max 0 (i - b)) in
  [ ("gc.minor_words", d (gc_minor_words_total ()) gc_base.b_minor_w);
    ("gc.major_words", d s.Gc.major_words gc_base.b_major_w);
    ("gc.promoted_words", d s.Gc.promoted_words gc_base.b_promoted_w);
    ("gc.minor_collections", di s.Gc.minor_collections gc_base.b_minor_c);
    ("gc.major_collections", di s.Gc.major_collections gc_base.b_major_c);
    ("gc.compactions", di s.Gc.compactions gc_base.b_compactions);
    ("gc.heap_words", float_of_int s.Gc.heap_words);
    ("gc.top_heap_words", float_of_int s.Gc.top_heap_words)
  ]

let gauge_providers : (unit -> (string * float) list) list ref = ref [ gc_gauges ]

let register_gauges f = locked (fun () -> gauge_providers := f :: !gauge_providers)

let gauges () =
  let providers = locked (fun () -> !gauge_providers) in
  List.concat_map (fun f -> f ()) providers |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Trace sink (Chrome trace_event JSON array)                          *)
(* ------------------------------------------------------------------ *)

type trace = { ch : out_channel; mutable first : bool; t0 : float }

let trace_state : trace option ref = ref None

let tracing () = !trace_state <> None

let now () = Sys.time ()

(* ------------------------------------------------------------------ *)
(* A minimal JSON escaper and reader: enough to emit traces and to
   validate them, and to parse metric snapshots back, with no external
   dependency.                                                         *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let add_escaped buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  exception Bad of string

  type state = { src : string; mutable pos : int }

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let skip_ws st =
    while
      st.pos < String.length st.src
      && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      st.pos <- st.pos + 1
    done

  let expect st c =
    match peek st with
    | Some c' when c' = c -> st.pos <- st.pos + 1
    | _ -> raise (Bad (Printf.sprintf "expected %c at offset %d" c st.pos))

  let literal st word v =
    let n = String.length word in
    if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
      st.pos <- st.pos + n;
      v
    end
    else raise (Bad (Printf.sprintf "bad literal at offset %d" st.pos))

  let string st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if st.pos >= String.length st.src then raise (Bad "unterminated string");
      let c = st.src.[st.pos] in
      st.pos <- st.pos + 1;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (if st.pos >= String.length st.src then raise (Bad "unterminated escape");
         let e = st.src.[st.pos] in
         st.pos <- st.pos + 1;
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           if st.pos + 4 > String.length st.src then raise (Bad "short \\u escape");
           (* Decoded only far enough for validation purposes. *)
           st.pos <- st.pos + 4;
           Buffer.add_char buf '?'
         | _ -> raise (Bad "unknown escape"));
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()

  let number st =
    let start = st.pos in
    let is_num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
      st.pos <- st.pos + 1
    done;
    match float_of_string_opt (String.sub st.src start (st.pos - start)) with
    | Some f -> f
    | None -> raise (Bad (Printf.sprintf "bad number at offset %d" start))

  let rec value st =
    skip_ws st;
    match peek st with
    | None -> raise (Bad "unexpected end of input")
    | Some '"' -> Str (string st)
    | Some '{' ->
      expect st '{';
      skip_ws st;
      if peek st = Some '}' then (expect st '}'; Obj [])
      else begin
        let rec members acc =
          skip_ws st;
          let k = string st in
          skip_ws st;
          expect st ':';
          let v = value st in
          skip_ws st;
          match peek st with
          | Some ',' -> expect st ','; members ((k, v) :: acc)
          | Some '}' -> expect st '}'; Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected , or } at offset %d" st.pos))
        in
        members []
      end
    | Some '[' ->
      expect st '[';
      skip_ws st;
      if peek st = Some ']' then (expect st ']'; Arr [])
      else begin
        let rec elements acc =
          let v = value st in
          skip_ws st;
          match peek st with
          | Some ',' -> expect st ','; elements (v :: acc)
          | Some ']' -> expect st ']'; Arr (List.rev (v :: acc))
          | _ -> raise (Bad (Printf.sprintf "expected , or ] at offset %d" st.pos))
        in
        elements []
      end
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some _ -> Num (number st)

  let parse src =
    let st = { src; pos = 0 } in
    let v = value st in
    skip_ws st;
    if st.pos <> String.length src then raise (Bad "trailing data after JSON value");
    v
end

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  Json.add_escaped buf s;
  Buffer.contents buf

(* Callers hold [lock]: the channel and [first] are shared. *)
let emit_raw tr json =
  if tr.first then tr.first <- false else output_string tr.ch ",\n";
  output_string tr.ch json

(* Timestamps are microseconds since the trace opened, from [Sys.time]
   (processor time): monotone within a process, which is all the trace
   viewer needs. Under parallel execution the process clock advances
   with total CPU work, so concurrent spans overlap in the viewer but
   durations read as CPU time, not wall time. *)
let usec tr t = (t -. tr.t0) *. 1e6

(* Each domain gets its own trace row: [tid] is the domain id, so a
   parallel sweep renders as one lane per worker in Perfetto. *)
let tid () = (Domain.self () :> int)

(* Request-scoped trace context: an ambient id carried in domain-local
   storage and stamped into every trace event emitted while it is
   installed. Deliberately a *separate* DLS key from [path_key], so
   [span_detach] — which masks the span stack to keep pooled span
   paths jobs-invariant — does not strip the request identity: a
   pooled serve request detaches its path but keeps its trace id. *)
let trace_ctx_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let trace_context () = Domain.DLS.get trace_ctx_key

let with_trace_context id f =
  let saved = Domain.DLS.get trace_ctx_key in
  Domain.DLS.set trace_ctx_key (Some id);
  Fun.protect ~finally:(fun () -> Domain.DLS.set trace_ctx_key saved) f

(* Callers hold [lock]. The full span path rides along as an argument,
   so the hierarchical tree survives into the exported trace even when
   a viewer flattens the lanes; [trace] — read from the emitting
   domain's context *before* the lock is taken — joins a span to the
   request that ran it. *)
let emit_complete_locked name ~path ~trace ~t_start ~t_end =
  match !trace_state with
  | None -> ()
  | Some tr ->
    let trace_arg =
      match trace with
      | None -> ""
      | Some id -> Printf.sprintf ",\"trace\":\"%s\"" (json_escape id)
    in
    emit_raw tr
      (Printf.sprintf
         "{\"name\":\"%s\",\"cat\":\"pak\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\
          \"tid\":%d,\"args\":{\"path\":\"%s\"%s}}"
         (json_escape name) (usec tr t_start)
         (usec tr (max t_end t_start))
         (tid ())
         (json_escape (String.concat ";" (List.rev path)))
         trace_arg)

let emit_counter_sample tr name v =
  emit_raw tr
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"pak\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"value\":%d}}"
       (json_escape name) (usec tr (now ())) (tid ()) v)

(* GC heap lanes: "ph":"C" samples of the emitting domain's raw GC
   counters (always integers, never negative — validated by
   tools/check_trace.exe). Values are cumulative per domain, not
   rebased, so each domain's lane is monotone in the viewer. Callers
   hold [lock]. *)
let emit_gc_samples_locked () =
  match !trace_state with
  | None -> ()
  | Some tr ->
    let s = Gc.quick_stat () in
    let clamp v = Stdlib.max 0 v in
    List.iter
      (fun (name, v) -> emit_counter_sample tr name (clamp v))
      [ ("gc.minor_words", int_of_float (Gc.minor_words ()));
        ("gc.major_words", int_of_float s.Gc.major_words);
        ("gc.promoted_words", int_of_float s.Gc.promoted_words);
        ("gc.minor_collections", s.Gc.minor_collections);
        ("gc.major_collections", s.Gc.major_collections);
        ("gc.compactions", s.Gc.compactions);
        ("gc.heap_words", s.Gc.heap_words);
        ("gc.top_heap_words", s.Gc.top_heap_words)
      ]

(* One gc sample burst every N span exits per domain: frequent enough
   to draw heap lanes over time, cheap enough not to swamp the trace
   with counter events. The interval is configurable (--gc-sample-every
   in the CLI); the very first span exit per domain always samples, so
   short runs — fewer spans than one interval — still get at least one
   mid-run heap sample before the closing burst. *)
let gauge_sample_interval_cell = Atomic.make 32

let set_gauge_sample_interval n =
  if n < 1 then invalid_arg "Obs.set_gauge_sample_interval: interval must be >= 1";
  Atomic.set gauge_sample_interval_cell n

let gauge_sample_interval () = Atomic.get gauge_sample_interval_cell

let gc_tick_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let trace_stop () =
  let final = counters () in
  locked (fun () ->
      match !trace_state with
      | None -> ()
      | Some tr ->
        List.iter (fun (name, v) -> emit_counter_sample tr name v) final;
        emit_gc_samples_locked ();
        output_string tr.ch "\n]\n";
        close_out tr.ch;
        trace_state := None)

let trace_to file =
  trace_stop ();
  let ch = open_out file in
  locked (fun () ->
      output_string ch "[\n";
      trace_state := Some { ch; first = true; t0 = now () });
  enable ()

(* ------------------------------------------------------------------ *)
(* Span timing                                                         *)
(* ------------------------------------------------------------------ *)

let span_detach f =
  if not !on then f ()
  else begin
    let saved = Domain.DLS.get path_key in
    Domain.DLS.set path_key [];
    Fun.protect ~finally:(fun () -> Domain.DLS.set path_key saved) f
  end

let span name f =
  if not !on then f ()
  else begin
    let parent = Domain.DLS.get path_key in
    let path = name :: parent in
    Domain.DLS.set path_key path;
    (* Read order keeps a span's own bookkeeping out of its counts:
       at entry the quick_stat record (~24 words) is allocated before
       [mw0] is read; at exit [mw1] is read before the quick_stat
       call, whose words land in the parent's self column instead. *)
    let track = !alloc_on in
    let mj0, pr0 = if track then major_counters () else (0., 0.) in
    let mw0 = if track then Gc.minor_words () else 0. in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let minor_aw, major_aw =
        if not track then (0., 0.)
        else begin
          let mw1 = Gc.minor_words () in
          let mj1, pr1 = major_counters () in
          ( Float.max 0. (mw1 -. mw0),
            Float.max 0. (mj1 -. mj0 -. Float.max 0. (pr1 -. pr0)) )
        end
      in
      Domain.DLS.set path_key parent;
      let dt = Float.max 0. (t1 -. t0) in
      let ns = int_of_float (dt *. 1e9) in
      let gc_tick =
        if track && !trace_state <> None then begin
          let tick = Domain.DLS.get gc_tick_key in
          Stdlib.incr tick;
          !tick = 1 || !tick mod Atomic.get gauge_sample_interval_cell = 0
        end
        else false
      in
      let trace_ctx = Domain.DLS.get trace_ctx_key in
      locked (fun () ->
          let h = histogram_locked name in
          ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of ns) 1);
          let ts = tree_stat_locked path in
          ts.t_count <- ts.t_count + 1;
          ts.t_total <- ts.t_total +. dt;
          ts.t_minor_aw <- ts.t_minor_aw +. minor_aw;
          ts.t_major_aw <- ts.t_major_aw +. major_aw;
          emit_complete_locked name ~path ~trace:trace_ctx ~t_start:t0 ~t_end:t1;
          if gc_tick then emit_gc_samples_locked ())
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let read_file_string file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Versioned metrics snapshots                                         *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  (* v2 adds the four allocated-words columns to span nodes. v1 files
     (no alloc keys) still decode — the alloc fields default to 0. *)
  let schema_version = 2

  type t = {
    version : int;
    counters : (string * int) list;
    gauges : (string * float) list;
    histograms : (string * int array) list;
    spans : span_node list;
  }

  (* Everything but the span tree: what a delta needs, without folding
     the path registry. *)
  let capture_flows () =
    { version = schema_version;
      counters = counters ();
      gauges = gauges ();
      histograms = histograms ();
      spans = []
    }

  let capture () = { (capture_flows ()) with spans = span_tree () }

  (* Per-call attribution without resetting the global registries:
     capture, run, capture, subtract. Counters and histograms are
     after-minus-before with all-zero rows dropped; gauges keep the
     after values (levels, not flows); the span tree is left empty
     because span paths accumulate per domain and a single call's
     share cannot be recovered by subtraction across domains. *)
  let diff_against ~before after =
    let counters =
      List.filter_map
        (fun (name, v) ->
          let b =
            match List.assoc_opt name before.counters with
            | Some x -> x
            | None -> 0
          in
          if v - b = 0 then None else Some (name, v - b))
        after.counters
    in
    let histograms =
      List.filter_map
        (fun (name, counts) ->
          let b =
            match List.assoc_opt name before.histograms with
            | Some x -> x
            | None -> [||]
          in
          let d =
            Array.mapi
              (fun i c -> c - (if i < Array.length b then b.(i) else 0))
              counts
          in
          if Array.for_all (fun x -> x = 0) d then None else Some (name, d))
        after.histograms
    in
    { version = schema_version;
      counters;
      gauges = after.gauges;
      histograms;
      spans = []
    }

  let diff_capture f =
    let before = capture_flows () in
    let x = f () in
    (x, diff_against ~before (capture_flows ()))

  (* %.17g round-trips every finite double through float_of_string
     exactly, so serialize/parse is lossless. A non-finite value (only
     a hand-edited file can carry one) prints as 0, so neither the
     JSON nor the OpenMetrics text, which shares this format, ever
     holds nan or inf. *)
  let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

  let to_json t =
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    add "{\n  \"schema_version\": %d,\n" t.version;
    add "  \"counters\": {";
    List.iteri
      (fun i (k, v) -> add "%s\n    \"%s\": %d" (if i > 0 then "," else "") (json_escape k) v)
      t.counters;
    add "\n  },\n  \"gauges\": {";
    List.iteri
      (fun i (k, v) ->
        add "%s\n    \"%s\": %s" (if i > 0 then "," else "") (json_escape k) (json_float v))
      t.gauges;
    add "\n  },\n  \"histograms\": {";
    List.iteri
      (fun i (k, counts) ->
        add "%s\n    \"%s\": {\"count\": %d, \"p50_ns\": %s, \"p90_ns\": %s, \"p99_ns\": %s, \
             \"buckets\": ["
          (if i > 0 then "," else "")
          (json_escape k) (total_count counts)
          (json_float (percentile counts 0.5))
          (json_float (percentile counts 0.9))
          (json_float (percentile counts 0.99));
        let first = ref true in
        Array.iteri
          (fun b c ->
            if c <> 0 then begin
              if not !first then add ",";
              first := false;
              add "[%d,%d]" b c
            end)
          counts;
        add "]}")
      t.histograms;
    add "\n  },\n  \"span_tree\": [";
    let rec add_node indent first n =
      if not first then add ",";
      add
        "\n%s{\"name\": \"%s\", \"count\": %d, \"total_s\": %s, \"self_s\": %s, \"minor_aw\": \
         %s, \"self_minor_aw\": %s, \"major_aw\": %s, \"self_major_aw\": %s, \"children\": ["
        indent (json_escape n.sn_name) n.sn_count (json_float n.sn_total) (json_float n.sn_self)
        (json_float n.sn_minor_aw) (json_float n.sn_self_minor_aw) (json_float n.sn_major_aw)
        (json_float n.sn_self_major_aw);
      List.iteri (fun i c -> add_node (indent ^ "  ") (i = 0) c) n.sn_children;
      if n.sn_children <> [] then add "\n%s" indent;
      add "]}"
    in
    List.iteri (fun i n -> add_node "    " (i = 0) n) t.spans;
    if t.spans <> [] then add "\n  ";
    add "]\n}\n";
    Buffer.contents buf

  exception Decode of string

  let obj = function Json.Obj o -> o | _ -> raise (Decode "expected a JSON object")
  let arr = function Json.Arr a -> a | _ -> raise (Decode "expected a JSON array")
  let num = function Json.Num f -> f | _ -> raise (Decode "expected a number")
  let str = function Json.Str s -> s | _ -> raise (Decode "expected a string")
  let int_ v = int_of_float (num v)

  let field name o =
    match List.assoc_opt name o with
    | Some v -> v
    | None -> raise (Decode ("missing field \"" ^ name ^ "\""))

  (* Alloc columns are optional so v1 snapshots decode with 0s. *)
  let opt_num name o = match List.assoc_opt name o with Some v -> num v | None -> 0.

  (* The JSON nests nodes without paths; each node's [sn_path] is its
     parent's path extended by its name. *)
  let rec decode_node parent v =
    let o = obj v in
    let name = str (field "name" o) in
    let path = parent @ [ name ] in
    { sn_name = name;
      sn_path = path;
      sn_count = int_ (field "count" o);
      sn_total = num (field "total_s" o);
      sn_self = num (field "self_s" o);
      sn_minor_aw = opt_num "minor_aw" o;
      sn_self_minor_aw = opt_num "self_minor_aw" o;
      sn_major_aw = opt_num "major_aw" o;
      sn_self_major_aw = opt_num "self_major_aw" o;
      sn_children = List.map (decode_node path) (arr (field "children" o))
    }

  let decode_hist v =
    let o = obj v in
    let counts = Array.make n_buckets 0 in
    List.iter
      (fun pair ->
        match arr pair with
        | [ i; c ] ->
          let i = int_ i in
          if i < 0 || i >= n_buckets then raise (Decode "bucket index out of range");
          counts.(i) <- int_ c
        | _ -> raise (Decode "histogram bucket entries must be [index, count] pairs"))
      (arr (field "buckets" o));
    counts

  let decode json =
    let o = obj json in
    { version = int_ (field "schema_version" o);
      counters = List.map (fun (k, v) -> (k, int_ v)) (obj (field "counters" o));
      gauges = List.map (fun (k, v) -> (k, num v)) (obj (field "gauges" o));
      histograms = List.map (fun (k, v) -> (k, decode_hist v)) (obj (field "histograms" o));
      spans = List.map (decode_node []) (arr (field "span_tree" o))
    }

  let of_json_string src =
    match Json.parse src with
    | exception Json.Bad msg -> Error ("invalid JSON: " ^ msg)
    | json -> ( try Ok (decode json) with Decode msg -> Error msg)

  let of_file file =
    match read_file_string file with
    | exception Sys_error msg -> Error msg
    | src ->
      (match of_json_string src with
       | Ok _ as ok -> ok
       | Error msg -> Error (file ^ ": " ^ msg))

  let write file t =
    let ch = open_out file in
    Fun.protect ~finally:(fun () -> close_out ch) (fun () -> output_string ch (to_json t))
end

(* ------------------------------------------------------------------ *)
(* Renderers: pure functions of one snapshot                           *)
(* ------------------------------------------------------------------ *)

let pp_summary fmt (s : Snapshot.t) =
  Format.fprintf fmt "== pak metrics ==@\n";
  Format.fprintf fmt "counters:@\n";
  (match s.counters with
   | [] -> Format.fprintf fmt "  (none registered)@\n"
   | cs ->
     List.iter (fun (name, v) -> Format.fprintf fmt "  %-42s %12d@\n" name v) cs);
  (match s.gauges with
   | [] -> ()
   | gs ->
     Format.fprintf fmt "gauges:@\n";
     List.iter (fun (name, v) -> Format.fprintf fmt "  %-42s %12.4f@\n" name v) gs);
  Format.fprintf fmt "spans:@\n";
  match per_name s.spans with
  | [] -> Format.fprintf fmt "  (none recorded)@\n"
  | rows ->
    Format.fprintf fmt "  %-42s %10s %12s %12s %10s %10s %10s %12s@\n" "" "calls" "total ms"
      "mean us" "p50 us" "p90 us" "p99 us" "alloc kw";
    List.iter
      (fun (name, (count, total, mnr, mjr)) ->
        let mean_us = if count = 0 then 0. else total /. float_of_int count *. 1e6 in
        let p q =
          match List.assoc_opt name s.histograms with
          | Some counts -> percentile counts q /. 1e3
          | None -> 0.
        in
        Format.fprintf fmt "  %-42s %10d %12.3f %12.3f %10.1f %10.1f %10.1f %12.1f@\n" name
          count (total *. 1e3) mean_us (p 0.5) (p 0.9) (p 0.99)
          ((mnr +. mjr) /. 1e3))
      rows

let pp_span_tree fmt (s : Snapshot.t) =
  Format.fprintf fmt "span tree:@\n";
  match s.spans with
  | [] -> Format.fprintf fmt "  (no spans recorded)@\n"
  | roots ->
    Format.fprintf fmt "  %-46s %10s %12s %12s %12s %12s@\n" "" "calls" "incl ms" "self ms"
      "incl kw" "self kw";
    let rec pp depth node =
      let label = String.make (2 * depth) ' ' ^ node.sn_name in
      Format.fprintf fmt "  %-46s %10d %12.3f %12.3f %12.1f %12.1f@\n" label node.sn_count
        (node.sn_total *. 1e3) (node.sn_self *. 1e3)
        ((node.sn_minor_aw +. node.sn_major_aw) /. 1e3)
        ((node.sn_self_minor_aw +. node.sn_self_major_aw) /. 1e3);
      List.iter (pp (depth + 1)) node.sn_children
    in
    List.iter (pp 0) roots

let rec flatten acc n = List.fold_left flatten (n :: acc) n.sn_children

(* The allocation profile: every span path ranked by self-allocated
   words — where the words actually come from, with double counting
   removed by the self column (a parent's self excludes children). The
   denominator is the snapshot's own [gc.minor_words] gauge, read at
   the same moment as the tree. *)
let pp_alloc_report ?(top = 20) fmt (s : Snapshot.t) =
  let nodes = List.fold_left flatten [] s.spans in
  let self n = n.sn_self_minor_aw +. n.sn_self_major_aw in
  let ranked =
    List.filter (fun n -> self n > 0.) nodes
    |> List.sort (fun a b -> compare (self b, a.sn_path) (self a, b.sn_path))
  in
  let attributed = List.fold_left (fun acc n -> acc +. self n) 0. ranked in
  let process_minor = Option.value (List.assoc_opt "gc.minor_words" s.gauges) ~default:0. in
  Format.fprintf fmt "top allocating spans (self words; kw = 1000 words):@\n";
  if ranked = [] then Format.fprintf fmt "  (no span allocation recorded)@\n"
  else begin
    Format.fprintf fmt "  %-52s %10s %12s %12s %12s@\n" "" "calls" "self kw" "incl kw"
      "w/call";
    List.iteri
      (fun i n ->
        if i < top then
          Format.fprintf fmt "  %-52s %10d %12.1f %12.1f %12.0f@\n"
            (String.concat ";" n.sn_path) n.sn_count (self n /. 1e3)
            ((n.sn_minor_aw +. n.sn_major_aw) /. 1e3)
            (if n.sn_count = 0 then 0. else self n /. float_of_int n.sn_count))
      ranked;
    if List.length ranked > top then
      Format.fprintf fmt "  ... %d more span paths@\n" (List.length ranked - top)
  end;
  Format.fprintf fmt "  attributed: %.1f kw across %d span paths" (attributed /. 1e3)
    (List.length ranked);
  if process_minor > 0. then
    Format.fprintf fmt " (%.1f%% of %.1f kw minor words since reset)"
      (100. *. attributed /. process_minor)
      (process_minor /. 1e3);
  Format.fprintf fmt "@\n"

(* Collapsed-stack export: one line per span path, `a;b;c <weight>`,
   the input format of flamegraph.pl and speedscope. Weights are
   *self* values — the flamegraph tool re-derives inclusive totals by
   summing subtrees, so exporting inclusive numbers would double-count.
   Self time in whole nanoseconds, or self allocated words (minor +
   direct major). Lines are sorted by path and zero-weight rows
   dropped. *)
type flame_weight = Flame_time | Flame_alloc

let flamegraph ?(weight = Flame_time) (s : Snapshot.t) =
  let weight_of n =
    match weight with
    | Flame_time -> int_of_float (n.sn_self *. 1e9)
    | Flame_alloc -> int_of_float (n.sn_self_minor_aw +. n.sn_self_major_aw)
  in
  List.fold_left flatten [] s.spans
  |> List.filter_map (fun n ->
         let w = weight_of n in
         if w <= 0 then None else Some (String.concat ";" n.sn_path, w))
  |> List.sort compare
  |> List.map (fun (path, w) -> Printf.sprintf "%s %d\n" path w)
  |> String.concat ""

(* ------------------------------------------------------------------ *)
(* Rolling time-series: a fixed-size ring of metric deltas             *)
(* ------------------------------------------------------------------ *)

module Series = struct
  (* Each [record] captures the counters, gauges and histograms and
     returns their [Snapshot.diff_against] *delta* from the previous
     record's capture (or [create]'s for the first): counter increments
     with zero rows dropped, histogram sample-count increments, and
     gauge levels (gauges are levels, not flows — a delta of a sampled
     level is noise). The basis advances on every record, so the
     deltas telescope: summing a counter across all samples equals its
     total growth since [create]. *)

  type sample = {
    s_seq : int;
    s_counters : (string * int) list;
    s_gauges : (string * float) list;
    s_hist_totals : (string * int) list;
  }

  type t = { mutable next_seq : int; mutable base : Snapshot.t; m : Mutex.t }

  let create () =
    { next_seq = 0; base = Snapshot.capture_flows (); m = Mutex.create () }

  let record t =
    let now = Snapshot.capture_flows () in
    Mutex.protect t.m (fun () ->
        let d = Snapshot.diff_against ~before:t.base now in
        let s =
          { s_seq = t.next_seq;
            s_counters = d.counters;
            s_gauges = d.gauges;
            (* A reset between records can move samples between buckets
               with no net change: such rows count as unchanged. *)
            s_hist_totals =
              List.filter_map
                (fun (name, counts) ->
                  let n = total_count counts in
                  if n = 0 then None else Some (name, n))
                d.histograms
          }
        in
        t.next_seq <- t.next_seq + 1;
        t.base <- now;
        s)
end

(* ------------------------------------------------------------------ *)
(* OpenMetrics / Prometheus text exposition                            *)
(* ------------------------------------------------------------------ *)

module Openmetrics = struct
  (* Renders any snapshot in the OpenMetrics text format: counters as
     [_total] samples, gauges as levels, span-latency histograms as
     cumulative [_bucket{le="..."}] series with [_count]/[_sum].
     Metric names are the pak names with every character outside
     [a-zA-Z0-9_:] mapped to '_' and a "pak_" prefix (which also
     guarantees a legal leading character). The histogram [_sum] is a
     lower-bound estimate (sum of bucket lower bounds times counts):
     exact sample values are gone by design — the bucket counts are
     the exact data, the sum is advisory, as the HELP line says. *)

  let sanitize name =
    let buf = Buffer.create (String.length name + 4) in
    Buffer.add_string buf "pak_";
    String.iter
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> Buffer.add_char buf c
        | _ -> Buffer.add_char buf '_')
      name;
    Buffer.contents buf

  (* HELP text carries the *raw* pak metric name; escape the two
     characters OpenMetrics escapes in help strings plus anything that
     would break the line grammar (a fuzzed snapshot can smuggle a
     newline into a metric name). *)
  let help_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let render (s : Snapshot.t) =
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    List.iter
      (fun (name, v) ->
        let m = sanitize name in
        add "# TYPE %s counter\n" m;
        add "# HELP %s pak counter %s\n" m (help_escape name);
        add "%s_total %d\n" m v)
      s.Snapshot.counters;
    List.iter
      (fun (name, v) ->
        let m = sanitize name in
        add "# TYPE %s gauge\n" m;
        add "# HELP %s pak gauge %s\n" m (help_escape name);
        add "%s %s\n" m (Snapshot.json_float v))
      s.Snapshot.gauges;
    List.iter
      (fun (name, counts) ->
        let m = sanitize name in
        add "# TYPE %s histogram\n" m;
        add "# HELP %s pak span latency ns (sum is a bucket-floor lower bound) %s\n" m
          (help_escape name);
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            if c <> 0 then begin
              cum := !cum + c;
              add "%s_bucket{le=\"%d\"} %d\n" m (bucket_hi i) !cum
            end)
          counts;
        add "%s_bucket{le=\"+Inf\"} %d\n" m !cum;
        add "%s_count %d\n" m !cum;
        let sum =
          let acc = ref 0. in
          Array.iteri (fun i c -> acc := !acc +. (float_of_int (bucket_lo i) *. float_of_int c)) counts;
          !acc
        in
        add "%s_sum %s\n" m (Snapshot.json_float sum))
      s.Snapshot.histograms;
    add "# EOF\n";
    Buffer.contents buf

  (* A minimal line-grammar check, shared by the fuzz mode, the CI
     smoke and the tests: every line is a comment directive or a
     sample with a legal metric name, an optional {label="value"} set
     and a finite numeric value; the text ends with exactly one
     "# EOF" line and nothing after it. *)
  let metric_name_ok name =
    String.length name > 0
    && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (fun c ->
           match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         name

  let sample_line_ok line =
    (* name[{labels}] value — split the name at '{' or ' '. *)
    let n = String.length line in
    let name_end =
      let rec go i = if i >= n then i else (match line.[i] with '{' | ' ' -> i | _ -> go (i + 1)) in
      go 0
    in
    let name = String.sub line 0 name_end in
    if not (metric_name_ok name) then Error (Printf.sprintf "bad metric name in %S" line)
    else begin
      (* Skip a balanced {..} label block; quotes may contain anything
         except an unescaped quote. *)
      let i = ref name_end in
      let ok = ref true in
      if !i < n && line.[!i] = '{' then begin
        Stdlib.incr i;
        let in_str = ref false in
        let closed = ref false in
        while (not !closed) && !i < n do
          (match line.[!i] with
           | '\\' when !in_str -> Stdlib.incr i (* skip the escaped char *)
           | '"' -> in_str := not !in_str
           | '}' when not !in_str -> closed := true
           | _ -> ());
          Stdlib.incr i
        done;
        if not !closed then ok := false
      end;
      if not !ok then Error (Printf.sprintf "unbalanced label block in %S" line)
      else begin
        let rest = String.sub line !i (n - !i) in
        let rest = String.trim rest in
        match float_of_string_opt rest with
        | Some f when Float.is_finite f -> Ok ()
        | _ -> Error (Printf.sprintf "bad sample value in %S" line)
      end
    end

  let check text =
    let lines = String.split_on_char '\n' text in
    (* A well-formed exposition ends "...# EOF\n", so splitting yields
       a final empty chunk. *)
    let rec go = function
      | [] -> Error "missing # EOF terminator"
      | [ "# EOF"; "" ] -> Ok ()
      | [ "# EOF" ] -> Error "missing trailing newline after # EOF"
      | line :: rest ->
        if line = "" then Error "empty line before # EOF"
        else if String.length line >= 1 && line.[0] = '#' then begin
          if
            String.length line >= 7
            && (String.sub line 0 7 = "# TYPE " || String.sub line 0 7 = "# HELP ")
          then go rest
          else Error (Printf.sprintf "bad comment directive %S" line)
        end
        else (match sample_line_ok line with Ok () -> go rest | Error _ as e -> e)
    in
    go lines
end

(* ------------------------------------------------------------------ *)
(* Snapshot diffing: the perf-regression oracle                        *)
(* ------------------------------------------------------------------ *)

module Diff = struct
  (* Counters, span call counts and histogram sample totals are exact
     work counts — bit-deterministic for a fixed workload, on any
     machine and at any --jobs — so they must match the baseline
     exactly (modulo [allow]). Wall times and gauges are compared
     within a relative tolerance, with an absolute floor below which
     noise drowns any signal. *)

  (* Allocated-words columns sit in between: deterministic for a fixed
     workload on a fixed compiler, but they drift across OCaml versions
     and with --jobs (per-domain minor heaps), so they get their own
     relative tolerance [alloc_tol] and absolute floor [alloc_floor]
     (in words). gc.* gauges are allocation-denominated and use the
     same pair. *)
  type config = {
    time_tol : float;
    time_floor : float;
    alloc_tol : float;
    alloc_floor : float;
    allow : string list;
  }

  let default =
    { time_tol = 1.0; time_floor = 0.01; alloc_tol = 1.0; alloc_floor = 65536.; allow = [] }

  let allowed cfg name =
    List.exists
      (fun pat ->
        let np = String.length pat in
        if np > 0 && pat.[np - 1] = '*' then
          String.length name >= np - 1 && String.sub name 0 (np - 1) = String.sub pat 0 (np - 1)
        else String.equal pat name)
      cfg.allow

  let within cfg base fresh =
    Float.abs (fresh -. base) <= cfg.time_floor
    || (fresh <= base *. (1. +. cfg.time_tol) && base <= fresh *. (1. +. cfg.time_tol))

  let within_alloc cfg base fresh =
    Float.abs (fresh -. base) <= cfg.alloc_floor
    || (fresh <= base *. (1. +. cfg.alloc_tol) && base <= fresh *. (1. +. cfg.alloc_tol))

  let is_gc_gauge k = String.length k >= 3 && String.sub k 0 3 = "gc."

  let diff cfg ~(baseline : Snapshot.t) ~(fresh : Snapshot.t) =
    let out = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
    if baseline.Snapshot.version <> fresh.Snapshot.version then
      fail "schema version: baseline v%d, fresh v%d" baseline.Snapshot.version
        fresh.Snapshot.version;
    List.iter
      (fun (k, vb) ->
        if not (allowed cfg k) then
          match List.assoc_opt k fresh.Snapshot.counters with
          | None -> fail "counter %-40s baseline %d, missing from fresh snapshot" k vb
          | Some vf when vf <> vb ->
            fail "counter %-40s baseline %d, fresh %d (deterministic counters must match)" k vb
              vf
          | Some _ -> ())
      baseline.Snapshot.counters;
    List.iter
      (fun (k, vf) ->
        if vf <> 0 && (not (allowed cfg k))
           && List.assoc_opt k baseline.Snapshot.counters = None
        then fail "counter %-40s new nonzero counter (%d); refresh the baseline" k vf)
      fresh.Snapshot.counters;
    List.iter
      (fun (k, vb) ->
        if not (allowed cfg k) then
          match List.assoc_opt k fresh.Snapshot.gauges with
          | None -> fail "gauge   %-40s missing from fresh snapshot" k
          | Some vf when is_gc_gauge k ->
            if not (within_alloc cfg vb vf) then
              fail
                "gauge   %-40s baseline %g, fresh %g (outside alloc tolerance %g%%, floor %g \
                 words)"
                k vb vf (cfg.alloc_tol *. 100.) cfg.alloc_floor
          | Some vf when not (within cfg vb vf) ->
            fail "gauge   %-40s baseline %g, fresh %g (outside tolerance)" k vb vf
          | Some _ -> ())
      baseline.Snapshot.gauges;
    List.iter
      (fun (k, cb) ->
        if not (allowed cfg k) then
          match List.assoc_opt k fresh.Snapshot.histograms with
          | None -> fail "histogram %-38s missing from fresh snapshot" k
          | Some cf ->
            let tb = total_count cb and tf = total_count cf in
            if tb <> tf then
              fail "histogram %-38s baseline %d samples, fresh %d (sample totals are \
                    deterministic)"
                k tb tf)
      baseline.Snapshot.histograms;
    List.iter
      (fun (k, cf) ->
        if total_count cf <> 0 && (not (allowed cfg k))
           && List.assoc_opt k baseline.Snapshot.histograms = None
        then fail "histogram %-38s new histogram (%d samples); refresh the baseline" k
               (total_count cf))
      fresh.Snapshot.histograms;
    let rows forest =
      List.fold_left flatten [] forest
      |> List.rev_map (fun n ->
             ( String.concat "/" n.sn_path,
               (n.sn_count, n.sn_total, n.sn_minor_aw +. n.sn_major_aw) ))
    in
    let fb = rows baseline.Snapshot.spans and ff = rows fresh.Snapshot.spans in
    List.iter
      (fun (path, (cb, tb, ab)) ->
        if not (allowed cfg path) then
          match List.assoc_opt path ff with
          | None -> fail "span    %-40s missing from fresh snapshot" path
          | Some (cf, tf, af) ->
            if cf <> cb then
              fail "span    %-40s baseline %d calls, fresh %d (call counts are deterministic)"
                path cb cf;
            if not (within cfg tb tf) then
              fail "span    %-40s inclusive %.3f ms vs baseline %.3f ms (tol %g%%, floor %g ms)"
                path (tf *. 1e3) (tb *. 1e3)
                (cfg.time_tol *. 100.)
                (cfg.time_floor *. 1e3);
            if not (within_alloc cfg ab af) then
              fail
                "span    %-40s inclusive %.0f words vs baseline %.0f words (alloc tol %g%%, \
                 floor %g words)"
                path af ab (cfg.alloc_tol *. 100.) cfg.alloc_floor)
      fb;
    List.iter
      (fun (path, (cf, _, _)) ->
        if cf <> 0 && (not (allowed cfg path)) && List.assoc_opt path fb = None then
          fail "span    %-40s new span path (%d calls); refresh the baseline" path cf)
      ff;
    List.rev !out
end

(* ------------------------------------------------------------------ *)
(* Trace validation                                                    *)
(* ------------------------------------------------------------------ *)

type trace_stats = {
  trace_events : int;
  trace_complete : int;
  trace_counter_samples : int;
  trace_gc_samples : int;
  trace_lanes : int;
}

let validate_trace_file file =
  match Json.parse (read_file_string file) with
  | exception Json.Bad msg -> Error ("invalid JSON: " ^ msg)
  | exception Sys_error msg -> Error msg
  | Json.Arr events ->
    let complete = ref 0 and samples = ref 0 and gc_samples = ref 0 in
    let tids : (float, unit) Hashtbl.t = Hashtbl.create 8 in
    let is_gc_lane name = String.length name >= 3 && String.sub name 0 3 = "gc." in
    let check i = function
      | Json.Obj fields ->
        let field k = List.assoc_opt k fields in
        let err fmt = Printf.ksprintf (fun s -> Some (Printf.sprintf "event %d: %s" i s)) fmt in
        (match (field "name", field "ph", field "ts") with
         | Some (Json.Str name), Some (Json.Str ph), Some (Json.Num _) ->
           (match (field "pid", field "tid") with
            | Some (Json.Num pid), Some (Json.Num tid)
              when Float.is_integer pid && Float.is_integer tid && tid >= 0. ->
              Hashtbl.replace tids tid ();
              (match ph with
               | "X" ->
                 (match field "dur" with
                  | Some (Json.Num d) when d >= 0. ->
                    Stdlib.incr complete;
                    None
                  | Some _ -> err "complete event with non-numeric or negative \"dur\""
                  | None -> err "complete (ph X) event missing \"dur\"")
               | "C" ->
                 (match field "args" with
                  | Some (Json.Obj args) ->
                    (match List.assoc_opt "value" args with
                     | Some (Json.Num v) when is_gc_lane name ->
                       (* GC heap lanes are cumulative word/collection
                          counts: whole numbers, never negative. *)
                       if not (Float.is_integer v) then
                         err "gc counter lane %S with non-integer sample %g" name v
                       else if v < 0. then
                         err "gc counter lane %S with negative sample %g" name v
                       else begin
                         Stdlib.incr samples;
                         Stdlib.incr gc_samples;
                         None
                       end
                     | Some (Json.Num _) ->
                       Stdlib.incr samples;
                       None
                     | _ -> err "counter sample missing numeric \"args.value\"")
                  | _ -> err "counter (ph C) event missing \"args\" object")
               | _ -> None)
            | _ -> err "missing or non-integer \"pid\"/\"tid\"")
         | None, _, _ -> err "missing \"name\""
         | _, None, _ -> err "missing \"ph\""
         | _, _, None -> err "missing \"ts\""
         | _ -> err "wrong field types")
      | _ -> Some (Printf.sprintf "event %d: not an object" i)
    in
    let rec go i = function
      | [] ->
        Ok
          { trace_events = List.length events;
            trace_complete = !complete;
            trace_counter_samples = !samples;
            trace_gc_samples = !gc_samples;
            trace_lanes = Hashtbl.length tids
          }
      | e :: rest -> (match check i e with None -> go (i + 1) rest | Some err -> Error err)
    in
    go 0 events
  | _ -> Error "top-level JSON value is not an array"
