(* pbtool — the benchmark's in-process helper. It links the pak
   libraries and calls their public functions; it is never part of a
   timed end-to-end operation.

     pbtool scan DEPTH FROM TO
       print "seed points bytes" for Gen trees of DEPTH, seeds FROM..TO
     pbtool gen DIR NAME=DEPTH:SEED ...
       write each Gen tree as DIR/NAME.pps
     pbtool spend
       read "DOC<TAB>FORMULA" lines on stdin and print, per line, the
       points budget an evaluation of FORMULA on DOC spends (the cap
       that lets the evaluation fit and makes an exact belief degree
       on top of it degrade to the Monte-Carlo estimate)
     pbtool trace PLAN SECONDS
       replay the workload described by PLAN in-process, untraced and
       with Obs on, probe each layer's public functions on the
       workload's inputs, and print one JSON object of per-layer
       metrics on stdout

   PLAN is written by run.py, one TAB-separated record per line:

     workload NAME                    modelcheck | theorems | serve
     unit N                           operations one replay represents
     doc NAME PATH DEPTH SEED         PATH "-" = generate Gen DEPTH SEED
     query DOC MODE FORMULA           MODE load | explain
     sweep DEPTH FIRST COUNT CHECK    one `pak sweep --check` command
     analyze SYSTEM ROUNDS            one `pak analyze` command
     stream PATH                      frames of the serve mix; the responses
                                      of their Serve.run replay are written
                                      to PATH.out
     probe DOC FORMULA                a formula for the logic layers *)

open Pak
module Closure = Pak_logic.Closure
module Sexp = Serve.Sexp
module Frame = Serve.Frame

let now = Unix.gettimeofday
let read_file p = In_channel.with_open_bin p In_channel.input_all
let valuation = Semantics.generic_valuation
let gen_params depth = { Gen.default_params with Gen.depth }

(* ------------------------------------------------------------------ *)
(* scan / gen / spend                                                  *)
(* ------------------------------------------------------------------ *)

let scan depth lo hi =
  for seed = lo to hi do
    let t = Gen.tree ~params:(gen_params depth) seed in
    Printf.printf "%d %d %d\n" seed (Tree.n_points t)
      (String.length (Tree_io.to_string t))
  done

let gen dir specs =
  List.iter
    (fun spec ->
      Scanf.sscanf spec "%[^=]=%d:%d" (fun name depth seed ->
          Out_channel.with_open_bin
            (Filename.concat dir (name ^ ".pps"))
            (fun oc ->
              output_string oc
                (Tree_io.to_string (Gen.tree ~params:(gen_params depth) seed)))))
    specs

let eval_points_spend tree formula =
  match
    Budget.with_budget
      (Budget.limits ~max_points:max_int ())
      (fun () ->
        ignore (Semantics.eval_auto tree ~valuation (Parser.parse formula));
        List.assoc "points" (Budget.spent ()))
  with
  | Ok n -> n
  | Error e -> failwith ("spend probe failed: " ^ Error.to_string e)

let spend () =
  let trees = Hashtbl.create 16 in
  let tree path =
    match Hashtbl.find_opt trees path with
    | Some t -> t
    | None ->
        let t = Tree_io.of_string (read_file path) in
        Hashtbl.add trees path t;
        t
  in
  In_channel.fold_lines
    (fun () line ->
      match String.split_on_char '\t' line with
      | [ path; formula ] ->
          Printf.printf "%d\n" (eval_points_spend (tree path) formula)
      | _ -> failwith ("spend: bad line " ^ line))
    () stdin

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)
(* ------------------------------------------------------------------ *)

type doc = { name : string; text : string; gen : (int * int) option; tree : Tree.t Lazy.t }
type op =
  | Query of doc * string * string  (* doc, mode, formula text *)
  | Sweep_cmd of int * int * int * Sweep.check  (* depth, first, count, check *)
  | Analyze of string * int  (* system, rounds *)

type plan = {
  workload : string;
  unit_ops : int;
  docs : doc list;
  ops : op list;
  stream : string;
  stream_path : string;
  probes : (doc * string) list;
}

let load_plan path =
  let docs = Hashtbl.create 16 and order = ref [] in
  let workload = ref "" and unit_ops = ref 1 and stream = ref "" and stream_path = ref "" in
  let ops = ref [] and probes = ref [] in
  let doc name =
    match Hashtbl.find_opt docs name with
    | Some d -> d
    | None -> failwith ("plan: unknown doc " ^ name)
  in
  In_channel.with_open_bin path (fun ic ->
      In_channel.fold_lines
        (fun () line ->
          match String.split_on_char '\t' line with
          | [ "workload"; w ] -> workload := w
          | [ "unit"; n ] -> unit_ops := int_of_string n
          | [ "doc"; name; file; depth; seed ] ->
              let gen, text =
                if file = "-" then
                  let depth = int_of_string depth and seed = int_of_string seed in
                  ( Some (depth, seed),
                    Tree_io.to_string (Gen.tree ~params:(gen_params depth) seed) )
                else
                  ( (if depth = "0" then None
                     else Some (int_of_string depth, int_of_string seed)),
                    read_file file )
              in
              let d = { name; text; gen; tree = lazy (Tree_io.of_string text) } in
              Hashtbl.replace docs name d;
              order := d :: !order
          | [ "query"; d; mode; f ] -> ops := Query (doc d, mode, f) :: !ops
          | [ "sweep"; depth; first; count; check ] ->
              let check =
                match Sweep.of_name check with
                | Some c -> c
                | None -> failwith ("plan: unknown check " ^ check)
              in
              ops :=
                Sweep_cmd
                  (int_of_string depth, int_of_string first, int_of_string count, check)
                :: !ops
          | [ "analyze"; system; rounds ] ->
              ops := Analyze (system, int_of_string rounds) :: !ops
          | [ "stream"; file ] ->
              stream_path := file;
              stream := read_file file
          | [ "probe"; d; f ] -> probes := (doc d, f) :: !probes
          | _ -> failwith ("plan: bad line " ^ line))
        () ic);
  {
    workload = !workload;
    unit_ops = !unit_ops;
    docs = List.rev !order;
    ops = List.rev !ops;
    stream = !stream;
    stream_path = !stream_path;
    probes = List.rev !probes;
  }

(* ------------------------------------------------------------------ *)
(* The CLI operations, through the same library calls                 *)
(* ------------------------------------------------------------------ *)

(* A stage is an Obs span around a call the library does not span
   itself (document and formula parsing, systems, output rendering);
   the rest of the stage table comes from the library's own spans. With
   Obs off a stage is exactly the call. *)
let stage = Obs.span

let ok_or_fail = function
  | Ok v -> v
  | Error e -> failwith (Error.to_string e)

(* `pak load DOC --formula F` and `pak explain DOC --formula F --json`. *)
let run_query doc mode text =
  let tree = stage "tree_io" (fun () -> ok_or_fail (Tree_io.of_string_result doc.text)) in
  let f = stage "parser" (fun () -> ok_or_fail (Parser.parse_result text)) in
  match mode with
  | "explain" ->
      let cert = ok_or_fail (Cert.certify_result tree ~valuation f) in
      (match Cert.check ~valuation tree cert with
      | Ok () -> ()
      | Error v -> failwith (Cert.violation_to_string v));
      stage "render" (fun () -> ignore (Sys.opaque_identity (Cert.to_json cert)))
  | _ ->
      let fact = Semantics.eval_auto tree ~valuation f in
      stage "render" (fun () ->
          ignore
            (Sys.opaque_identity
               (Tree.fold_points tree ~init:0 ~f:(fun acc ~run ~time ->
                    if Fact.holds fact ~run ~time then acc + 1 else acc))))

type instance = { fact : Fact.t; agent : int; act : string; threshold : Q.t }

let instance system rounds =
  match system with
  | "judge" ->
      let t = Systems.Judge.tree ~rounds ~convict_at:2 () in
      {
        fact = Systems.Judge.guilty_fact t;
        agent = Systems.Judge.judge;
        act = Systems.Judge.convict;
        threshold = Q.of_ints 99 100;
      }
  | "coordinated-attack" ->
      let t =
        Systems.Coordinated_attack.tree ~loss:(Q.of_ints 1 10) ~p_go:Q.half ~rounds ()
      in
      {
        fact = Systems.Coordinated_attack.phi_both t;
        agent = Systems.Coordinated_attack.general_a;
        act = Systems.Coordinated_attack.attack;
        threshold = Q.of_ints 19 20;
      }
  | s -> failwith ("unknown system " ^ s)

(* `pak analyze SYSTEM --rounds N`: the calls of bin/pak_cli.ml. *)
let run_analyze system rounds =
  let i = stage "systems" (fun () -> instance system rounds) in
  let fact = i.fact and agent = i.agent and act = i.act and p = i.threshold in
  let r = Constr.report_graded (Constr.make ~agent ~act ~fact ~threshold:p) in
  let e = Theorems.expectation_identity fact ~agent ~act in
  let s = Theorems.sufficiency fact ~agent ~act ~p in
  let n = Theorems.necessity_exists fact ~agent ~act ~p in
  let l = Theorems.lemma43 fact ~agent ~act in
  let k = Theorems.kop fact ~agent ~act in
  stage "render" (fun () ->
      let ppf = Format.formatter_of_buffer (Buffer.create 1024) in
      Format.fprintf ppf "%a@.%a@.%a@.%a@.%a@.%a@." Constr.pp_report_graded r
        Theorems.pp_expectation e Theorems.pp_sufficiency s Theorems.pp_necessity n
        Theorems.pp_lemma43 l Theorems.pp_kop k)

let eps = Q.of_ints 1 10

let run_op = function
  | Query (doc, mode, text) -> run_query doc mode text
  | Sweep_cmd (depth, first, count, check) ->
      (* the sweep's own self time is Gen and the per-seed dispatch *)
      stage "sweep" (fun () ->
          if not (Sweep.passed (Sweep.run ~params:(gen_params depth) ~eps check
                                  ~first_seed:first ~count))
          then failwith "sweep reported a violation")
  | Analyze (system, rounds) -> run_analyze system rounds

(* ------------------------------------------------------------------ *)
(* The serve layer                                                     *)
(* ------------------------------------------------------------------ *)

let frames stream =
  let rd = Frame.reader (Frame.source_of_string stream) in
  let rec go acc =
    match Frame.read rd with
    | Frame.Eof -> List.rev acc
    | Frame.Payload p -> go (p :: acc)
    | Frame.Junk _ -> go acc
  in
  go []

let field name = function
  | Sexp.List (Sexp.Atom "request" :: fields) ->
      List.find_map
        (function Sexp.List [ Sexp.Atom n; v ] when n = name -> Some v | _ -> None)
        fields
  | _ -> None

let str_field name sx = match field name sx with Some (Sexp.Str s) -> Some s | _ -> None

(* Frame decode: the reader plus the s-expression parse, per frame. *)
let decode_all stream =
  let rd = Frame.reader (Frame.source_of_string stream) in
  let rec go n =
    match Frame.read rd with
    | Frame.Eof -> n
    | Frame.Payload p ->
        ignore (Sys.opaque_identity (Sexp.parse p));
        go (n + 1)
    | Frame.Junk _ -> go (n + 1)
  in
  go 0

(* The serial enqueue path: document digest plus the closure digest of
   the formula, as the result-cache key is built. *)
let digest_request sx =
  match (str_field "system" sx, str_field "formula" sx) with
  | Some sys, Some f ->
      ignore (Sys.opaque_identity (Digest.string sys));
      (match Parser.parse_result f with
      | Ok f -> ignore (Sys.opaque_identity (Closure.digest (Closure.of_formula f)))
      | Error _ -> ());
      true
  | _ -> false

let serve_config = { Serve.default_config with Serve.jobs = 1; clock = Some now }

(* Run the stream through Serve.run, handing the reader one frame per
   source call. With one job the server answers each frame before it
   reads the next, so the time from the call that completes frame i to
   the i-th response write is that frame's service time. The stream
   holds whole frames only (junk is sent as unparsable payloads). *)
let serve_service_times stream =
  let ends =
    let n = String.length stream and ml = String.length Frame.magic in
    let rec go pos acc =
      if pos >= n then Array.of_list (List.rev acc)
      else
        let nl = String.index_from stream pos '\n' in
        let len = int_of_string (String.sub stream (pos + ml) (nl - pos - ml)) in
        let stop = nl + 1 + len in
        go stop (stop :: acc)
    in
    go 0 []
  in
  let next = ref 0 and off = ref 0 and sent = Queue.create () in
  let source buf pos len =
    if !next >= Array.length ends then 0
    else begin
      let stop = ends.(!next) in
      let k = min len (stop - !off) in
      Bytes.blit_string stream !off buf pos k;
      off := !off + k;
      if !off = stop then begin
        incr next;
        Queue.add (now ()) sent
      end;
      k
    end
  in
  let service = ref [] and responses = Buffer.create 4096 in
  let write s =
    let t = now () in
    Buffer.add_string responses s;
    (* the final (bye ...) answers no frame *)
    match Queue.take_opt sent with
    | Some t0 -> service := (t -. t0) :: !service
    | None -> ()
  in
  let code = Serve.run serve_config ~source ~write in
  if code <> 0 then failwith "serve replay exited non-zero";
  (Array.of_list (List.rev !service), Buffer.contents responses)

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* Call [f] on every item, pass after pass, until [slice] seconds have
   gone (always at least one whole pass). Returns busy seconds and
   calls. *)
let repeat_for slice items f =
  let t0 = now () and busy = ref 0. and calls = ref 0 in
  let rec pass () =
    List.iter
      (fun x ->
        let a = now () in
        f x;
        busy := !busy +. (now () -. a);
        incr calls)
      items;
    if now () -. t0 < slice then pass ()
  in
  if items <> [] then pass ();
  (!busy, !calls)

let minor () = Gc.minor_words ()

let percentile xs p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let formula_class text =
  let has s =
    let ls = String.length s and lt = String.length text in
    let rec at i = i + ls <= lt && (String.sub text i ls = s || at (i + 1)) in
    at 0
  in
  if has "C[" || has "CB[" then "fixpoint"
  else if has "B[" then "b"
  else if has "K[" || has "E[" then "k"
  else "temporal"

let counter = Obs.counter_value

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace plan_file seconds =
  let plan = load_plan plan_file in
  let metrics = ref [] in
  let put name v = metrics := (name, v) :: !metrics in
  let per_op x = x /. float plan.unit_ops in
  let ops = plan.ops in
  let is_serve = plan.workload = "serve" in
  let t_start = now () in
  List.iter (fun d -> ignore (Lazy.force d.tree)) plan.docs;
  (* 1. The serve stream through Serve.run, untraced: service times,
     and the responses for run.py to check. *)
  let serve_replay () = serve_service_times plan.stream in
  let write_responses responses =
    Out_channel.with_open_bin (plan.stream_path ^ ".out") (fun oc ->
        output_string oc responses)
  in
  (* 2. The workload's operations twice each: untraced (timed, GC
     deltas) and traced (Obs on: the library's spans and counters, plus
     the stages above), alternating which goes first. For serve the
     operation is the whole stream. *)
  Obs.reset ();
  let untraced_s = ref 0. and traced_s = ref 0. in
  let promoted = ref 0. and majors = ref 0 and minors = ref 0. in
  let untraced f =
    let g0 = Gc.quick_stat () and a = now () in
    let r = f () in
    let d = now () -. a and g1 = Gc.quick_stat () in
    untraced_s := !untraced_s +. d;
    promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors := !majors + g1.Gc.major_collections - g0.Gc.major_collections;
    minors := !minors +. g1.Gc.minor_words -. g0.Gc.minor_words;
    (r, d)
  in
  let traced f =
    Obs.enable ();
    let a = now () in
    ignore (f ());
    traced_s := !traced_s +. (now () -. a);
    Obs.disable ()
  in
  let op_ms, service =
    if is_serve then begin
      let (service, responses), _ = untraced serve_replay in
      write_responses responses;
      traced serve_replay;
      ([||], service)
    end
    else begin
      let service, responses = serve_replay () in
      write_responses responses;
      let op_ms =
        List.mapi
          (fun i op ->
            let u () = snd (untraced (fun () -> run_op op)) *. 1000. in
            let t () = traced (fun () -> run_op op) in
            if i mod 2 = 0 then begin
              let d = u () in
              t ();
              d
            end
            else begin
              t ();
              u ()
            end)
          ops
      in
      (Array.of_list op_ms, service)
    end
  in
  let service_ms = Array.map (fun s -> s *. 1000.) service in
  let untraced_s = !untraced_s and traced_s = !traced_s in
  put "gc.promoted_words" (per_op !promoted);
  put "gc.major_collections" (per_op (float !majors));
  put "gc.minor_words_per_op" (per_op !minors);
  let c name = float (counter name) in
  put "tree.measure_calls" (per_op (c "tree.measure_calls"));
  put "tree.measure_runs" (per_op (c "tree.measure_runs"));
  put "eval_vec.cells" (per_op (c "eval_vec.cells"));
  put "semantics.gfp_iters" (per_op (c "semantics.gfp_iters"));
  put "bitset.set_ops" (per_op (c "bitset.set_ops"));
  put "belief.posterior_evals" (per_op (c "belief.posterior_evals"));
  (* Self time and calls per span name, over the traced replays. *)
  let stages =
    let tbl = Hashtbl.create 32 in
    let rec walk (n : Obs.span_node) =
      let ms, calls = Option.value (Hashtbl.find_opt tbl n.sn_name) ~default:(0., 0) in
      Hashtbl.replace tbl n.sn_name (ms +. n.sn_self, calls + n.sn_count);
      List.iter walk n.sn_children
    in
    List.iter walk (Obs.span_tree ());
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  let stage_sum = List.fold_left (fun a (_, (v, _)) -> a +. v) 0. stages in
  put "trace.overhead_frac" ((traced_s /. untraced_s) -. 1.);
  put "trace.coverage_frac" (stage_sum /. traced_s);
  (* 3. Layer probes on the workload's own inputs, each for a slice of
     the remaining time. *)
  let spent = now () -. t_start in
  let slice = Float.max 0.2 ((seconds -. spent) /. 12.) in
  let docs = plan.docs in
  let probes = plan.probes in
  (* Tree_io *)
  let bytes = List.fold_left (fun a d -> a + String.length d.text) 0 docs in
  let w0 = minor () in
  List.iter (fun d -> ignore (Sys.opaque_identity (Tree_io.of_string d.text))) docs;
  put "tree_io.parse_words_per_kb" ((minor () -. w0) /. (float bytes /. 1024.));
  let busy, calls =
    repeat_for slice docs (fun d -> ignore (Sys.opaque_identity (Tree_io.of_string d.text)))
  in
  let passes = float calls /. float (List.length docs) in
  put "tree_io.parse_ms_per_100kb" (busy *. 1000. /. passes /. (float bytes /. 102400.));
  (* Parser, Closure *)
  let texts = List.sort_uniq compare (List.map snd probes) in
  let busy, calls = repeat_for (slice /. 2.) texts (fun f -> ignore (Sys.opaque_identity (Parser.parse f))) in
  put "parser.parse_us" (busy *. 1e6 /. float calls);
  let parsed = List.map Parser.parse texts in
  let busy, calls =
    repeat_for (slice /. 2.) parsed (fun f -> ignore (Sys.opaque_identity (Closure.of_formula f)))
  in
  put "closure.build_us" (busy *. 1e6 /. float calls);
  put "closure.entries"
    (float (List.fold_left (fun a f -> a + Closure.size (Closure.of_formula f)) 0 parsed)
    /. float (List.length parsed));
  (* Semantics.eval_vec, by formula class *)
  let probe_items = List.map (fun (d, f) -> (Lazy.force d.tree, f, Parser.parse f)) probes in
  List.iter
    (fun cls ->
      let items = List.filter (fun (_, text, _) -> formula_class text = cls) probe_items in
      let busy, calls =
        repeat_for (slice /. 4.) items (fun (t, _, f) ->
            ignore (Sys.opaque_identity (Semantics.eval_vec t ~valuation f)))
      in
      put ("semantics.eval_ms." ^ cls) (if calls = 0 then 0. else busy *. 1000. /. float calls))
    [ "k"; "b"; "fixpoint"; "temporal" ];
  (* Cert *)
  let certs = ref [] in
  let busy, calls =
    repeat_for (slice /. 2.) probe_items (fun (t, _, f) ->
        certs := (t, Cert.certify t ~valuation f) :: !certs)
  in
  put "cert.certify_ms" (busy *. 1000. /. float calls);
  let one_pass = List.filteri (fun i _ -> i < List.length probe_items) (List.rev !certs) in
  put "cert.nodes"
    (float (List.fold_left (fun a (_, c) -> a + Cert.size c) 0 one_pass)
    /. float (List.length one_pass));
  let busy, calls =
    repeat_for (slice /. 2.) one_pass (fun (t, c) ->
        match Cert.check ~valuation t c with
        | Ok () -> ()
        | Error v -> failwith (Cert.violation_to_string v))
  in
  put "cert.check_ms" (busy *. 1000. /. float calls);
  (* Tree.measure on the workload's local-state events *)
  let events =
    List.concat_map
      (fun d ->
        let t = Lazy.force d.tree in
        List.concat_map
          (fun agent -> List.map (fun k -> (t, Tree.lstate_runs t k)) (Tree.lstates t ~agent))
          (List.init (Tree.n_agents t) Fun.id))
      docs
  in
  let busy, calls =
    repeat_for slice events (fun (t, e) -> ignore (Sys.opaque_identity (Tree.measure t e)))
  in
  put "tree.measure_us" (busy *. 1e6 /. float calls);
  (* Q on the operands those measures produce *)
  let operands =
    Array.of_list
      (List.map (fun (t, e) -> Tree.measure t e) events
      @ List.concat_map
          (fun d ->
            let t = Lazy.force d.tree in
            List.init (Tree.n_runs t) (Tree.run_measure t))
          docs)
  in
  let n = Array.length operands in
  let pairs = List.init (min n 4096) (fun i -> (operands.(i), operands.((i * 7 + 1) mod n))) in
  let busy, calls = repeat_for (slice /. 2.) pairs (fun (a, b) -> ignore (Sys.opaque_identity (Q.add a b))) in
  put "q.add_ns" (busy *. 1e9 /. float calls);
  let busy, calls = repeat_for (slice /. 2.) pairs (fun (a, b) -> ignore (Sys.opaque_identity (Q.mul a b))) in
  put "q.mul_ns" (busy *. 1e9 /. float calls);
  let limbs q =
    let bits = Bignat.num_bits (Bigint.to_bignat (Q.num q)) + Bignat.num_bits (Q.den q) in
    float ((bits + 14) / 15)
  in
  put "q.limbs_p99" (percentile (Array.map limbs operands) 0.99);
  (* Gen and the theorem checkers on the workload's instances *)
  let gens = List.filter_map (fun d -> d.gen) docs in
  let gens =
    gens
    @ List.concat_map
        (function
          | Sweep_cmd (depth, first, count, _) -> List.init count (fun i -> (depth, first + i))
          | _ -> [])
        ops
    |> List.sort_uniq compare
  in
  let busy, calls =
    repeat_for (slice /. 2.) gens (fun (depth, seed) ->
        ignore (Sys.opaque_identity (Gen.tree ~params:(gen_params depth) seed)))
  in
  put "gen.tree_ms" (busy *. 1000. /. float calls);
  let instances =
    List.filter_map
      (fun (depth, seed) ->
        Option.map
          (fun (_, (agent, act), fact) -> (fact, agent, act))
          (Sweep.seed_instance ~params:(gen_params depth) seed))
      gens
    @ List.filter_map
        (function
          | Analyze (s, r) ->
              let i = instance s r in
              Some (i.fact, i.agent, i.act)
          | _ -> None)
        ops
  in
  let half = Q.half in
  let keep x = ignore (Sys.opaque_identity x) in
  List.iter
    (fun (name, f) ->
      let busy, calls =
        repeat_for (slice /. 8.) instances (fun (fact, agent, act) -> f fact ~agent ~act)
      in
      put name (busy *. 1000. /. float calls))
    [
      ("theorems.thm62_ms", fun fact ~agent ~act -> keep (Theorems.expectation_identity fact ~agent ~act));
      ("theorems.thm42_ms", fun fact ~agent ~act -> keep (Theorems.sufficiency fact ~agent ~act ~p:half));
      ("theorems.lemma43_ms", fun fact ~agent ~act -> keep (Theorems.lemma43 fact ~agent ~act));
      ("theorems.lemma51_ms", fun fact ~agent ~act -> keep (Theorems.necessity_exists fact ~agent ~act ~p:half));
      ("theorems.cor72_ms", fun fact ~agent ~act -> keep (Theorems.pak_corollary fact ~agent ~act ~eps));
      ("theorems.kop_ms", fun fact ~agent ~act -> keep (Theorems.kop fact ~agent ~act));
      ( "constr.report_ms",
        fun fact ~agent ~act -> keep (Constr.report (Constr.make ~agent ~act ~fact ~threshold:half)) );
    ];
  (* Simulate: the Monte-Carlo path degraded belief requests take *)
  let samples = 2048 in
  let sims = List.filteri (fun i _ -> i < 64) events in
  let w0 = minor () in
  let busy, calls =
    repeat_for (slice /. 2.) sims (fun (t, e) ->
        ignore (Sys.opaque_identity (Simulate.estimate t ~event:e ~samples ~seed:7)))
  in
  put "simulate.us_per_sample" (busy *. 1e6 /. float (calls * samples));
  put "simulate.words_per_sample" ((minor () -. w0) /. float (calls * samples));
  (* pak_par: a sweep at two jobs against one *)
  let depth, first =
    match List.find_opt (function Sweep_cmd _ -> true | _ -> false) ops with
    | Some (Sweep_cmd (d, f, _, _)) -> (d, f)
    | _ -> ( match gens with (d, s) :: _ -> (d, s) | [] -> (3, 1))
  in
  let par_sweep pool =
    let a = now () in
    let rs = Sweep.run_all ?pool ~params:(gen_params depth) ~eps ~first_seed:first ~count:8 () in
    if not (List.for_all Sweep.passed rs) then failwith "parallel sweep violation";
    now () -. a
  in
  let t1 = ref 0. and t2 = ref 0. in
  Pool.with_pool ~jobs:2 (fun pool ->
      let stop = now () +. slice in
      let rec go () =
        t1 := !t1 +. par_sweep None;
        t2 := !t2 +. par_sweep (Some pool);
        if now () < stop then go ()
      in
      go ());
  put "par.speedup_j2" (!t1 /. !t2);
  put "par.efficiency_j2" (!t1 /. !t2 /. 2.);
  (* pak_serve: decode, digest, service through Serve.run *)
  let n_frames = decode_all plan.stream in
  let busy, calls = repeat_for (slice /. 2.) [ plan.stream ] (fun s -> ignore (decode_all s)) in
  put "serve.decode_us" (busy *. 1e6 /. float (calls * max 1 n_frames));
  let reqs =
    List.filter_map
      (fun p -> match Sexp.parse p with Ok sx -> Some sx | Error _ -> None)
      (frames plan.stream)
  in
  let hashed = List.filter digest_request reqs in
  let busy, calls = repeat_for (slice /. 2.) hashed (fun sx -> ignore (digest_request sx)) in
  put "serve.digest_us" (busy *. 1e6 /. float (max 1 calls));
  (* Output *)
  let b = Buffer.create 4096 in
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.6g") a)) in
  Buffer.add_string b "{\"metrics\":{";
  List.iteri
    (fun i (k, v) -> Printf.bprintf b "%s\"%s\":%.9g" (if i = 0 then "" else ",") k v)
    (List.rev !metrics);
  Buffer.add_string b "},\"stages_ms\":{";
  List.iteri
    (fun i (k, (v, calls)) ->
      Printf.bprintf b "%s\"%s\":[%.6f,%d]" (if i = 0 then "" else ",") k (v *. 1000.) calls)
    stages;
  Printf.bprintf b "},\"traced_ms\":%.6f,\"untraced_ms\":%.6f" (traced_s *. 1000.)
    (untraced_s *. 1000.);
  Printf.bprintf b ",\"op_ms\":[%s],\"service_ms\":[%s]}" (floats op_ms) (floats service_ms);
  print_endline (Buffer.contents b)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "scan"; depth; lo; hi ] -> scan (int_of_string depth) (int_of_string lo) (int_of_string hi)
  | "gen" :: dir :: specs -> gen dir specs
  | [ "spend" ] -> spend ()
  | [ "trace"; plan; seconds ] -> trace plan (float_of_string seconds)
  | _ ->
      prerr_endline "usage: pbtool scan|gen|spend|trace ... (see the header of pbtool.ml)";
      exit 2
