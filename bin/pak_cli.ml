(* pak — command-line front end.

   Subcommands:
     list                      enumerate built-in systems
     analyze  <system>         run the full constraint analysis of a system
     eval     <system> <phi>   model-check a formula on a system
     theorems <system>         run every theorem checker on the system's
                               canonical (fact, action) pair
     dot      <system>         emit the pps as graphviz
     load     <file>           load a serialized pps document
     explain  <file>           certify a formula on a loaded system: emit a
                               self-checked witness certificate (--json for
                               machine-readable output)
     random   <seed>           generate a random pps and verify the paper's
                               theorems on it
     sweep                     check a paper result over a family of random
                               systems, optionally across domains (--jobs);
                               --certify re-verifies every verdict through
                               the certificate checker

   Systems take parameters via --loss, --p, --eps, --rounds, ... where
   meaningful; probabilities parse as rationals ("1/10") or decimals
   ("0.1").

   Exit codes (kept stable; checked in CI):
     0  success
     1  the analyzed constraint is violated, or a sweep found a
        violating system
     2  command-line usage error
     3  invalid input (unknown system, unparsable formula or document,
        unreadable file)
     4  a resource budget was exceeded *)

open Pak
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Built-in systems registry                                           *)
(* ------------------------------------------------------------------ *)

type instance = {
  tree : Tree.t;
  fact : Fact.t;          (* the canonical condition ϕ *)
  agent : int;
  act : string;
  threshold : Q.t;        (* the canonical constraint threshold *)
  description : string;
}

let q_conv =
  let parse s =
    match Q.of_string s with
    | v when Q.is_probability v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not a probability" s))
    | exception _ -> Error (`Msg (Printf.sprintf "cannot parse %S as a rational" s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (Q.to_string v))

type params = {
  loss : Q.t;
  p_go : Q.t;
  p : Q.t;
  eps : Q.t;
  rounds : int;
  convict_at : int;
  err : Q.t;
}

(* Generic atoms: "a<i>_<label>" tests agent i's label. Shared with
   the library so [Cert.check] callers can re-verify CLI-produced
   certificates under the identical valuation. *)
let valuation = Semantics.generic_valuation

let systems : (string * (params -> instance)) list =
  [ ( "firing-squad",
      fun prm ->
        let t = Systems.Firing_squad.tree ~loss:prm.loss ~p_go:prm.p_go Systems.Firing_squad.Original in
        { tree = t;
          fact = Systems.Firing_squad.phi_both t;
          agent = Systems.Firing_squad.alice;
          act = Systems.Firing_squad.fire;
          threshold = Q.of_ints 19 20;
          description = "Example 1: relaxed firing squad (original FS protocol)"
        } );
    ( "firing-squad-improved",
      fun prm ->
        let t = Systems.Firing_squad.tree ~loss:prm.loss ~p_go:prm.p_go Systems.Firing_squad.Improved in
        { tree = t;
          fact = Systems.Firing_squad.phi_both t;
          agent = Systems.Firing_squad.alice;
          act = Systems.Firing_squad.fire;
          threshold = Q.of_ints 19 20;
          description = "Section 8: FS where Alice refrains from firing on 'No'"
        } );
    ( "figure-one",
      fun prm ->
        let t = Systems.Figure_one.tree ~p_alpha:prm.p () in
        { tree = t;
          fact = Systems.Figure_one.psi t;
          agent = Systems.Figure_one.agent;
          act = Systems.Figure_one.alpha;
          threshold = Q.half;
          description = "Figure 1: one-agent mixed-action counterexample"
        } );
    ( "threshold-gap",
      fun prm ->
        let t = Systems.Threshold_gap.tree ~p:prm.p ~eps:prm.eps in
        { tree = t;
          fact = Systems.Threshold_gap.phi t;
          agent = Systems.Threshold_gap.i;
          act = Systems.Threshold_gap.alpha;
          threshold = prm.p;
          description = "Figure 2 / Theorem 5.2: the T-hat(p, eps) construction"
        } );
    ( "coordinated-attack",
      fun prm ->
        let t = Systems.Coordinated_attack.tree ~loss:prm.loss ~p_go:prm.p_go ~rounds:prm.rounds () in
        { tree = t;
          fact = Systems.Coordinated_attack.phi_both t;
          agent = Systems.Coordinated_attack.general_a;
          act = Systems.Coordinated_attack.attack;
          threshold = Q.of_ints 19 20;
          description = "k-round coordinated attack over a lossy channel"
        } );
    ( "mutex",
      fun prm ->
        let t = Systems.Mutex.tree ~p_req:prm.p ~err:prm.err () in
        { tree = t;
          fact = Systems.Mutex.phi_alone t ~agent:0;
          agent = 0;
          act = Systems.Mutex.enter;
          threshold = Q.of_ints 19 20;
          description = "relaxed mutual exclusion with a noisy arbiter"
        } );
    ( "judge",
      fun prm ->
        let t = Systems.Judge.tree ~rounds:prm.rounds ~convict_at:prm.convict_at () in
        { tree = t;
          fact = Systems.Judge.guilty_fact t;
          agent = Systems.Judge.judge;
          act = Systems.Judge.convict;
          threshold = Q.of_ints 99 100;
          description = "conviction under noisy evidence (beyond reasonable doubt)"
        } );
    ( "consensus",
      fun prm ->
        let t = Systems.Consensus.tree ~loss:prm.loss ~rounds:prm.rounds () in
        { tree = t;
          fact = Systems.Consensus.agreement t;
          agent = 0;
          act = Systems.Consensus.decide_act 1;
          threshold = Q.of_ints 19 20;
          description = "bounded randomized agreement over a lossy channel"
        } );
    ( "aloha",
      fun prm ->
        let t = Systems.Aloha.tree ~p_tx:prm.p ~n:2 ~slots:prm.rounds () in
        { tree = t;
          fact = Systems.Aloha.phi_free t ~agent:0 ~slot:0;
          agent = 0;
          act = Systems.Aloha.tx ~slot:0;
          threshold = Q.half;
          description = "slotted ALOHA random access (2 agents)"
        } );
    ( "interactive-proof",
      fun prm ->
        let t = Systems.Interactive_proof.tree ~p_true:prm.p ~rounds:prm.rounds () in
        { tree = t;
          fact = Systems.Interactive_proof.true_fact t;
          agent = Systems.Interactive_proof.verifier;
          act = Systems.Interactive_proof.accept;
          threshold = Q.of_ints 3 4;
          description = "soundness amplification as a probabilistic constraint"
        } )
  ]

let find_system name prm =
  match List.assoc_opt name systems with
  | Some f -> Ok (f prm)
  | None ->
    Error
      (Printf.sprintf "unknown system %S; try: %s" name
         (String.concat ", " (List.map fst systems)))

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let loss_t =
  Arg.(value & opt q_conv (Q.of_ints 1 10) & info [ "loss" ] ~doc:"Message loss probability.")
and p_go_t =
  Arg.(value & opt q_conv Q.half & info [ "p-go" ] ~doc:"Probability that go = 1.")
and p_t = Arg.(value & opt q_conv Q.half & info [ "p" ] ~doc:"Main probability parameter.")
and eps_t =
  Arg.(value & opt q_conv (Q.of_ints 1 10) & info [ "eps" ] ~doc:"Epsilon parameter.")
and rounds_t = Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"Number of rounds.")
and convict_at_t = Arg.(value & opt int 2 & info [ "convict-at" ] ~doc:"Conviction bar.")
and err_t =
  Arg.(value & opt q_conv (Q.of_ints 1 100) & info [ "err" ] ~doc:"Arbiter error probability.")

let params_t =
  let mk loss p_go p eps rounds convict_at err = { loss; p_go; p; eps; rounds; convict_at; err } in
  Term.(const mk $ loss_t $ p_go_t $ p_t $ eps_t $ rounds_t $ convict_at_t $ err_t)

let system_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc:"Built-in system name.")

let exit_of_error (e : Error.t) =
  match e.Error.kind with
  | Error.Budget_exceeded -> 4
  | Error.Parse | Error.Invalid_system | Error.Io -> 3

let fail_error e =
  Format.eprintf "pak: %a@." Error.pp e;
  exit_of_error e

(* Commands return their exit code; [Error msg] is invalid input. *)
let handle f = match f () with Ok code -> code | Error msg -> prerr_endline ("pak: " ^ msg); 3

(* Observability options, shared by every subcommand. The term's value
   is (), evaluated for its effect: configuring the pak_obs sinks
   before the command body runs. *)
let obs_t =
  let metrics_t =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Collect counters and span timings, and print a summary table to \
                   stderr on exit.")
  and trace_t =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a Chrome trace_event-format JSON file, loadable in \
                   about:tracing or Perfetto. Implies metric collection.")
  and metrics_json_t =
    Arg.(value & opt (some string) None
         & info [ "metrics-json" ] ~docv:"FILE"
             ~doc:"Write a versioned machine-readable metrics snapshot (counters, \
                   gauges, latency histograms, span tree) to $(docv) on exit. Implies \
                   metric collection; compare snapshots with tools/bench_diff.exe.")
  and no_alloc_t =
    Arg.(value & flag
         & info [ "no-alloc" ]
             ~doc:"Skip per-span allocation attribution (the GC counter reads at every \
                   span boundary). Timings, counters and the span-tree shape are \
                   unaffected; allocated-words columns read as zero. The gc.* gauges \
                   keep reporting.")
  and gc_sample_t =
    Arg.(value & opt int 32
         & info [ "gc-sample-every" ] ~docv:"N"
             ~doc:"Sample the gc.* gauges every $(docv)-th span exit (default 32; the \
                   very first span exit always samples, so short runs still report). \
                   Lower values sharpen gc.* time-series resolution at the cost of \
                   more GC counter reads.")
  in
  let setup metrics trace metrics_json no_alloc gc_sample =
    if no_alloc then Obs.set_track_allocations false;
    (if gc_sample < 1 then begin
       prerr_endline "pak: --gc-sample-every must be >= 1";
       exit 2
     end
     else Obs.set_gauge_sample_interval gc_sample);
    (match trace with
     | None -> ()
     | Some file ->
       (try Obs.trace_to file
        with Sys_error msg ->
          Printf.eprintf "pak: cannot open trace file: %s\n" msg;
          exit 1);
       at_exit Obs.trace_stop);
    (* One capture at exit feeds both the stderr summary and the JSON
       file, so the two describe the same moment. *)
    if metrics || metrics_json <> None then begin
      Obs.enable ();
      at_exit (fun () ->
          let snap = Obs.Snapshot.capture () in
          if metrics then prerr_string (Format.asprintf "%a" Obs.pp_summary snap);
          match metrics_json with
          | None -> ()
          | Some file ->
            (try Obs.Snapshot.write file snap
             with Sys_error msg -> Printf.eprintf "pak: cannot write metrics snapshot: %s\n" msg))
    end
  in
  Term.(const setup $ metrics_t $ trace_t $ metrics_json_t $ no_alloc_t $ gc_sample_t)

(* Resource-budget options, shared by every subcommand. Like [obs_t]
   the term's value is (), evaluated for its effect: installing the
   process-global budget before the command body runs. Exhaustion
   anywhere surfaces as exit code 4. *)
let guard_t =
  let limits_t =
    List.fold_left
      (fun acc (c : Budget.cap) ->
        Term.(const c.set $ acc
              $ Arg.(value & opt (some int) None
                     & info [ c.name ] ~docv:c.docv
                         ~doc:("Abort (exit 4) after $(docv) " ^ c.doc ^ "."))))
      (Term.const Budget.unlimited) Budget.caps
  in
  let setup lim = if not (Budget.is_unlimited lim) then Budget.install lim in
  Term.(const setup $ limits_t)

(* The budget flags, as help-text markup. *)
let budget_flags =
  String.concat ", " (List.map (fun (c : Budget.cap) -> "$(b,--" ^ c.name ^ ")") Budget.caps)

(* Parallelism option, shared by every subcommand. Effectful like
   [obs_t]/[guard_t]: records the requested domain count in a ref that
   command bodies consult through [with_jobs_pool]. Every parallel
   code path is deterministic in the job count, so --jobs only changes
   wall time, never output. *)
let jobs_ref = ref 1

let jobs_t =
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Number of domains used by parallel subcommands ($(b,sweep), \
                   $(b,simulate)). 0 selects the machine's recommended domain count. \
                   Output is identical for every value.")
  in
  let setup jobs =
    jobs_ref := (if jobs = 0 then Domain.recommended_domain_count () else max 1 jobs)
  in
  Term.(const setup $ jobs_arg)

let with_jobs_pool f =
  match !jobs_ref with
  | jobs when jobs <= 1 -> f None
  | jobs -> Pool.with_pool ~jobs (fun pool -> f (Some pool))

let common_t = Term.(const (fun () () () -> ()) $ obs_t $ guard_t $ jobs_t)

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () () =
    List.iter
      (fun (name, f) ->
        let prm =
          { loss = Q.of_ints 1 10; p_go = Q.half; p = Q.half; eps = Q.of_ints 1 10;
            rounds = 2; convict_at = 2; err = Q.of_ints 1 100 }
        in
        let inst = f prm in
        Printf.printf "%-24s %-60s (%d runs at defaults)\n" name inst.description
          (Tree.n_runs inst.tree))
      systems;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in systems") Term.(const run $ common_t $ const ())

let analyze_cmd =
  let run () name prm =
    handle (fun () ->
        Result.map
          (fun inst ->
            Printf.printf "%s — %s\n" name inst.description;
            Printf.printf "pps: %d nodes, %d runs, %d points\n\n" (Tree.n_nodes inst.tree)
              (Tree.n_runs inst.tree) (Tree.n_points inst.tree);
            let c =
              Constr.make ~agent:inst.agent ~act:inst.act ~fact:inst.fact
                ~threshold:inst.threshold
            in
            (* The constraint verdict degrades to a marked Monte-Carlo
               estimate under budget pressure; the theorem chain has no
               estimated counterpart, so it is attempted and skipped. *)
            let graded = Constr.report_graded c in
            Format.printf "%a@." Constr.pp_report_graded graded;
            (match
               Budget.attempt (fun () ->
                   let fact = inst.fact and agent = inst.agent and act = inst.act in
                   Format.printf "%a@.%a@.%a@.%a@.%a@."
                     Theorems.pp_expectation (Theorems.expectation_identity fact ~agent ~act)
                     Theorems.pp_sufficiency
                     (Theorems.sufficiency fact ~agent ~act ~p:inst.threshold)
                     Theorems.pp_necessity
                     (Theorems.necessity_exists fact ~agent ~act ~p:inst.threshold)
                     Theorems.pp_lemma43 (Theorems.lemma43 fact ~agent ~act)
                     Theorems.pp_kop (Theorems.kop fact ~agent ~act))
             with
             | Ok () -> ()
             | Error e -> Format.printf "theorem checks skipped: %a@." Error.pp e);
            if (Graded.value graded).Constr.satisfied then 0 else 1)
          (find_system name prm))
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze a system's canonical probabilistic constraint")
    Term.(const run $ common_t $ system_arg $ params_t)

let theorems_cmd =
  let certify_t =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"For every theorem, also build a witness certificate (the Lemma B.1 \
                   cell decomposition with exact rational weights and belief degrees) \
                   and re-verify it with the independent checker; print each \
                   certificate and exit 1 if any is rejected.")
  in
  let run () name prm certify =
    handle (fun () ->
        Result.map
          (fun inst ->
            let fact = inst.fact and agent = inst.agent and act = inst.act in
            Format.printf "%a@.%a@.%a@.%a@.%a@.%a@."
              Theorems.pp_expectation (Theorems.expectation_identity fact ~agent ~act)
              Theorems.pp_sufficiency (Theorems.sufficiency fact ~agent ~act ~p:inst.threshold)
              Theorems.pp_lemma43 (Theorems.lemma43 fact ~agent ~act)
              Theorems.pp_necessity (Theorems.necessity_exists fact ~agent ~act ~p:inst.threshold)
              Theorems.pp_pak (Theorems.pak_corollary fact ~agent ~act ~eps:prm.eps)
              Theorems.pp_kop (Theorems.kop fact ~agent ~act);
            if not certify then 0
            else
              List.fold_left
                (fun code check ->
                  let tc =
                    Cert.Theorem.certify fact ~check ~agent ~act ~p:inst.threshold
                      ~eps:prm.eps ()
                  in
                  Format.printf "%a" Cert.Theorem.pp tc;
                  match Cert.Theorem.check inst.tree ~fact tc with
                  | Ok () ->
                    Format.printf "  independently verified@.";
                    code
                  | Result.Error v ->
                    Format.printf "  REJECTED: %a@." Cert.pp_violation v;
                    1)
                0 Sweep.all_checks)
          (find_system name prm))
  in
  Cmd.v
    (Cmd.info "theorems" ~doc:"Run every theorem checker on a system")
    Term.(const run $ common_t $ system_arg $ params_t $ certify_t)

let eval_cmd =
  let formula_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FORMULA" ~doc:"Formula text.")
  in
  let run () name text prm =
    handle (fun () ->
        Result.bind (find_system name prm) (fun inst ->
            match Parser.parse_result text with
            | Result.Error e -> Error (Error.to_string e)
            | Ok f ->
              (* One evaluation; validity,
                 the point count and the time-0 probability are all
                 derived from the single resulting fact. *)
              let fact =
                with_jobs_pool (fun pool ->
                    Semantics.eval ?pool inst.tree ~valuation f)
              in
              let s = Semantics.summarize inst.tree fact in
              Printf.printf "formula : %s\n" (Formula.to_string f);
              Printf.printf "valid   : %b\n" s.valid;
              Printf.printf "points  : %d of %d satisfy\n" s.sat s.points;
              Printf.printf "P(time-0): %s\n" (Q.to_string (Lazy.force s.prob));
              Ok 0))
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Model-check a formula on a system"
       ~man:
         [ `S Manpage.s_description;
           `P "Atoms of the form a0_LABEL hold when agent 0's local label is LABEL \
               (similarly a1_..., for every agent index of the system)."
         ])
    Term.(const run $ common_t $ system_arg $ formula_arg $ params_t)

let profile_cmd =
  let formula_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FORMULA" ~doc:"Formula text.")
  in
  let tree_arg =
    Arg.(value & flag
         & info [ "tree" ]
             ~doc:"Also print the hierarchical span tree (calls, inclusive and self \
                   time and allocated words per span path).")
  in
  let alloc_arg =
    Arg.(value & flag
         & info [ "alloc" ]
             ~doc:"Also print the allocation profile: span paths ranked by \
                   self-allocated words, with the fraction of the process's minor \
                   words the span tree accounts for.")
  in
  let openmetrics_arg =
    Arg.(value & flag
         & info [ "openmetrics" ]
             ~doc:"Instead of the human-readable tables, print the metrics snapshot \
                   as Prometheus/OpenMetrics exposition text (counters, gauges, \
                   histogram buckets with $(i,le) labels) on stdout, ready for a \
                   scrape endpoint or promtool.")
  in
  let flame_arg =
    Arg.(value & flag
         & info [ "flame" ]
             ~doc:"Instead of the human-readable tables, print the span tree in \
                   collapsed-stack format (one $(i,path;to;span weight) line per \
                   span path) on stdout, ready for flamegraph.pl or speedscope.")
  in
  let weight_arg =
    let weight_conv = Arg.enum [ ("time", Obs.Flame_time); ("alloc", Obs.Flame_alloc) ] in
    Arg.(value & opt weight_conv Obs.Flame_time
         & info [ "weight" ] ~docv:"KIND"
             ~doc:"Collapsed-stack weight for $(b,--flame): $(b,time) (self \
                   nanoseconds, the default) or $(b,alloc) (self allocated words).")
  in
  let run () name text prm show_tree show_alloc openmetrics flame weight =
    handle (fun () ->
        if openmetrics && flame then
          Error "--openmetrics and --flame are mutually exclusive"
        else
        Result.bind (find_system name prm) (fun inst ->
            match Parser.parse_result text with
            | Result.Error e -> Error (Error.to_string e)
            | Ok f ->
              Obs.enable ();
              Obs.reset ();
              let t0 = Sys.time () in
              let fact =
                with_jobs_pool (fun pool ->
                    Semantics.eval ?pool inst.tree ~valuation f)
              in
              let eval_ms = (Sys.time () -. t0) *. 1000. in
              if openmetrics then begin
                (* Machine-readable mode: exposition text only, pipeable. *)
                print_string (Obs.Openmetrics.render (Obs.Snapshot.capture ()));
                Ok 0
              end
              else if flame then begin
                print_string (Obs.flamegraph ~weight (Obs.Snapshot.capture ()));
                Ok 0
              end
              else begin
                let s = Semantics.summarize inst.tree fact in
                Printf.printf "%s — %s\n" name inst.description;
                Printf.printf "pps     : %d nodes, %d runs, %d points\n"
                  (Tree.n_nodes inst.tree) (Tree.n_runs inst.tree) s.points;
                Printf.printf "formula : %s\n" (Formula.to_string f);
                Printf.printf "points  : %d of %d satisfy\n" s.sat s.points;
                Printf.printf "eval    : %.3f ms\n\n" eval_ms;
                (* Every table below renders this one capture, taken
                   after the point count so its counters include it. *)
                let snap = Obs.Snapshot.capture () in
                print_string (Format.asprintf "%a" Obs.pp_summary snap);
                if show_tree then
                  print_string (Format.asprintf "\n%a" Obs.pp_span_tree snap);
                if show_alloc then
                  print_string (Format.asprintf "\n%a" (fun fmt -> Obs.pp_alloc_report fmt) snap);
                Ok 0
              end))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Model-check a formula with full metric collection and print the counter \
             and span tables"
       ~man:
         [ `S Manpage.s_description;
           `P "Evaluates FORMULA on SYSTEM with every pak_obs counter and span timer \
               enabled, then prints the metrics table: memoization hits and misses, \
               fixpoint iteration counts, tree points visited, measure calls, bitset \
               set operations, and per-operator evaluation spans. Combine with \
               $(b,--tree) for the hierarchical span tree, $(b,--alloc) for the \
               top-allocating-spans report, or with $(b,--trace) to also record a \
               Chrome trace-event file.";
           `P "Machine-readable modes: $(b,--openmetrics) renders the snapshot as \
               Prometheus/OpenMetrics exposition text, $(b,--flame) renders the span \
               tree as collapsed stacks for flamegraph.pl/speedscope (weighted by \
               $(b,--weight) time or alloc). Both print only their format on stdout."
         ])
    Term.(const run $ common_t $ system_arg $ formula_arg $ params_t $ tree_arg $ alloc_arg
          $ openmetrics_arg $ flame_arg $ weight_arg)

let dot_cmd =
  let run () name prm =
    handle (fun () ->
        Result.map (fun inst -> print_string (Tree.to_dot inst.tree); 0) (find_system name prm))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a system's pps as graphviz")
    Term.(const run $ common_t $ system_arg $ params_t)

let dump_cmd =
  let run () name prm =
    handle (fun () ->
        Result.map
          (fun inst -> print_string (Tree_io.to_string inst.tree); 0)
          (find_system name prm))
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Serialize a system's pps as an s-expression document")
    Term.(const run $ common_t $ system_arg $ params_t)

let simulate_cmd =
  let samples_t =
    Arg.(value & opt int 10_000 & info [ "samples" ] ~doc:"Number of sampled runs.")
  in
  let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Sampling seed.") in
  let run () name samples seed prm =
    handle (fun () ->
        Result.map
          (fun inst ->
            let tree = inst.tree in
            let given = Action.runs_performing tree ~agent:inst.agent ~act:inst.act in
            let event = Fact.at_action inst.fact ~agent:inst.agent ~act:inst.act in
            let exact = Tree.cond tree event ~given in
            Printf.printf "exact      µ(ϕ@α | α) = %s (%s)\n" (Q.to_string exact)
              (Q.to_decimal_string exact);
            (match
               with_jobs_pool (fun pool ->
                   Simulate.estimate_cond_par ?pool tree ~event ~given ~samples ~seed)
             with
             | Some est ->
               Printf.printf "simulated  µ(ϕ@α | α) = %s (%s) from %d samples\n"
                 (Q.to_string est) (Q.to_decimal_string est) samples;
               Printf.printf "binomial standard error ≈ %.5f\n"
                 (Simulate.standard_error ~p:exact ~samples)
             | None -> print_endline "no sample performed the action");
            0)
          (find_system name prm))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Monte-Carlo estimate of a system's constraint vs the exact value")
    Term.(const run $ common_t $ system_arg $ samples_t $ seed_t $ params_t)

let sweep_cmd =
  let check_t =
    Arg.(value & opt string "all"
         & info [ "check" ] ~docv:"CHECK"
             ~doc:"Which paper result to sweep: $(b,all) or one of $(b,thm62), \
                   $(b,thm42), $(b,lemma43), $(b,lemma51), $(b,cor72), $(b,kop).")
  and count_t =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N" ~doc:"Number of random systems per check.")
  and first_seed_t =
    Arg.(value & opt int 1
         & info [ "first-seed" ] ~docv:"SEED"
             ~doc:"Seed of the first system; the sweep covers $(docv) .. $(docv)+N-1.")
  and depth_t =
    Arg.(value & opt int Gen.default_params.Gen.depth
         & info [ "depth" ] ~docv:"D" ~doc:"Run length of the generated systems.")
  and certify_t =
    Arg.(value & flag
         & info [ "certify" ]
             ~doc:"Instead of bare verdicts, build a witness certificate for every \
                   checked system and re-verify each with the independent checker; a \
                   rejected certificate fails the sweep like a violated theorem.")
  in
  let run () check count first_seed depth eps certify =
    handle (fun () ->
        let sel =
          if check = "all" then Ok None
          else
            match Sweep.of_name check with
            | Some c -> Ok (Some c)
            | None ->
              Error
                (Printf.sprintf "unknown check %S; try: all, %s" check
                   (String.concat ", " (List.map Sweep.check_name Sweep.all_checks)))
        in
        Result.map
          (fun sel ->
            let params = { Gen.default_params with Gen.depth = depth } in
            let checks =
              match sel with None -> Sweep.all_checks | Some c -> [ c ]
            in
            if certify then begin
              let reports =
                with_jobs_pool (fun pool ->
                    List.map
                      (fun c -> Cert.certify_sweep ?pool ~params ~eps c ~first_seed ~count)
                      checks)
              in
              List.iter (fun r -> Format.printf "%a@." Cert.pp_sweep_report r) reports;
              if List.for_all Cert.sweep_passed reports then 0 else 1
            end
            else begin
              let reports =
                with_jobs_pool (fun pool ->
                    match sel with
                    | None -> Sweep.run_all ?pool ~params ~eps ~first_seed ~count ()
                    | Some c -> [ Sweep.run ?pool ~params ~eps c ~first_seed ~count ])
              in
              List.iter (fun r -> Format.printf "%a@." Sweep.pp_report r) reports;
              if List.for_all Sweep.passed reports then 0 else 1
            end)
          sel)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Check the paper's theorems over a family of random systems, in parallel"
       ~man:
         [ `S Manpage.s_description;
           `P ("Generates protocol-consistent random systems from contiguous seeds and \
               runs the selected theorem checker on each (with a past-based fact and a \
               proper action derived from the same seed). With $(b,--jobs) the seeds \
               are checked across several domains; the report is byte-identical for \
               every job count, and any installed resource budget (" ^ budget_flags
               ^ ") is shared by all domains rather than multiplied by them. Exits 1 \
                  if any system violates a checked result.")
         ])
    Term.(const run $ common_t $ check_t $ count_t $ first_seed_t $ depth_t $ eps_t
          $ certify_t)

let axioms_cmd =
  let run () name prm =
    handle (fun () ->
        Result.map
          (fun inst ->
            let base = Formula.Atom "a0_x" in
            List.iter
              (fun agent ->
                Printf.printf "agent %d:\n" agent;
                List.iter
                  (fun r -> Format.printf "  %a@." Axioms.pp_report r)
                  (Axioms.all inst.tree ~valuation ~agent ~base))
              (List.init (Tree.n_agents inst.tree) Fun.id);
            0)
          (find_system name prm))
  in
  Cmd.v
    (Cmd.info "axioms" ~doc:"Check the S5/KD45/graded-coherence axioms on a system")
    Term.(const run $ common_t $ system_arg $ params_t)

let frontier_cmd =
  let run () name prm =
    handle (fun () ->
        Result.map
          (fun inst ->
            Printf.printf
              "belief-threshold policy frontier for (agent %d, %s) — Section 8:\n"
              inst.agent inst.act;
            Printf.printf "%-14s %-22s %-16s\n" "threshold" "µ(ϕ@α | α)" "µ(still acts)";
            List.iter
              (fun (thr, mu, mass) ->
                Printf.printf "%-14s %-22s %-16s\n" (Q.to_string thr)
                  (Q.to_decimal_string mu) (Q.to_string mass))
              (Policy.frontier inst.fact ~agent:inst.agent ~act:inst.act);
            Printf.printf "best achievable: %s\n"
              (Q.to_decimal_string (Policy.best inst.fact ~agent:inst.agent ~act:inst.act));
            0)
          (find_system name prm))
  in
  Cmd.v
    (Cmd.info "frontier" ~doc:"Belief-threshold policy-improvement frontier (Section 8)")
    Term.(const run $ common_t $ system_arg $ params_t)

let appendix_cmd =
  let run () name prm =
    handle (fun () ->
        Result.map
          (fun inst ->
            Format.printf "%a@." Appendix.pp_thm62
              (Appendix.theorem62 inst.fact ~agent:inst.agent ~act:inst.act);
            Printf.printf "\nLemma B.1 rows:\n";
            List.iter
              (fun row ->
                Format.printf "  %a: µ(ϕ@α|α@ℓ) = %s, µ(ϕ@ℓ|ℓ) = %s, equal = %b@."
                  Tree.pp_lkey row.Appendix.lstate
                  (Q.to_string row.Appendix.lhs)
                  (Q.to_string row.Appendix.rhs) row.Appendix.equal)
              (Appendix.lemma_b1 inst.fact ~agent:inst.agent ~act:inst.act);
            0)
          (find_system name prm))
  in
  Cmd.v
    (Cmd.info "appendix" ~doc:"Evaluate the paper's Appendix D proof chain on a system")
    Term.(const run $ common_t $ system_arg $ params_t)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Result.Error (Error.make Error.Io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | doc -> Ok doc
        | exception Sys_error msg -> Result.Error (Error.make Error.Io msg))

let load_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"A pps document (see $(b,pak dump)).")
  in
  let formula_t =
    Arg.(value & opt (some string) None
         & info [ "formula" ] ~docv:"FORMULA"
             ~doc:"Also model-check $(docv) on the loaded system.")
  in
  let dump_t =
    Arg.(value & flag
         & info [ "dump" ]
             ~doc:"Print the loaded system back as a document, in the format of \
                   $(b,pak dump), instead of the summary line. A document written by \
                   $(b,pak dump) comes back byte for byte.")
  in
  let run () file formula_text dump =
    let ( let* ) r f =
      match r with
      | Result.Error e -> fail_error (Error.with_context "pak load" e)
      | Ok v -> f v
    in
    let* doc = read_file file in
    let* tree = Tree_io.of_string_result doc in
    if dump then print_string (Tree_io.to_string tree)
    else
      Printf.printf "%s: %d agents, %d nodes, %d runs, %d points\n" file (Tree.n_agents tree)
        (Tree.n_nodes tree) (Tree.n_runs tree) (Tree.n_points tree);
    match formula_text with
    | None -> 0
    | Some text ->
      let* f = Parser.parse_result text in
      let fact =
        with_jobs_pool (fun pool ->
            Semantics.eval ?pool tree ~valuation f)
      in
      let s = Semantics.summarize tree fact in
      Printf.printf "formula : %s\n" (Formula.to_string f);
      Printf.printf "valid   : %b\n" s.valid;
      Printf.printf "points  : %d of %d satisfy\n" s.sat s.points;
      0
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Load a serialized pps document and optionally model-check it"
       ~man:
         [ `S Manpage.s_description;
           `P "Reads FILE through the typed error boundary: a malformed document, an \
               invariant-violating system or an unreadable file exits 3 with a one-line \
               diagnostic, and a document exceeding the installed resource budgets \
               exits 4 — never a raw exception."
         ])
    Term.(const run $ common_t $ file_arg $ formula_t $ dump_t)

let explain_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"A pps document (see $(b,pak dump)).")
  in
  let formula_t =
    Arg.(required & opt (some string) None
         & info [ "formula" ] ~docv:"FORMULA" ~doc:"The formula to certify.")
  in
  let json_t =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the certificate as one-line JSON (stable schema_version) on \
                   stdout instead of the indented text rendering; pipe into \
                   $(b,tools/check_cert.exe) to re-verify it independently.")
  in
  let depth_t =
    Arg.(value & opt (some int) None
         & info [ "depth" ] ~docv:"N"
             ~doc:"Elide certificate nodes nested deeper than $(docv) subformula levels.")
  in
  let at_conv =
    let parse s =
      let split i =
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some r, Some t -> Ok (r, t)
        | _ -> Error (`Msg (Printf.sprintf "cannot parse %S as RUN:TIME" s))
      in
      match String.index_opt s ':' with
      | Some i -> split i
      | None -> Error (`Msg (Printf.sprintf "cannot parse %S as RUN:TIME" s))
    in
    Arg.conv (parse, fun fmt (r, t) -> Format.fprintf fmt "%d:%d" r t)
  in
  let at_t =
    Arg.(value & opt (some at_conv) None
         & info [ "at" ] ~docv:"RUN:TIME"
             ~doc:"Focus on one point: print the verdict there and mark every \
                   subformula as holding or failing at $(docv).")
  in
  let run () file text json depth at =
    let ( let* ) r f =
      match r with
      | Result.Error e -> fail_error (Error.with_context "pak explain" e)
      | Ok v -> f v
    in
    let* doc = read_file file in
    let* tree = Tree_io.of_string_result doc in
    let* f = Parser.parse_result text in
    let* () =
      match at with
      | Some (r, t)
        when not (r >= 0 && r < Tree.n_runs tree && t >= 0 && t < Tree.run_length tree r) ->
        Result.Error
          (Error.makef Error.Invalid_system "point (%d,%d) is outside the system" r t)
      | _ -> Ok ()
    in
    let* cert = Cert.certify_result tree ~valuation f in
    (* Self-check: every certificate the CLI emits has already survived
       the independent checker. A failure here is a pak bug, not bad
       input, so it maps to the internal-error exit code. *)
    match Cert.check ~valuation tree cert with
    | Result.Error v ->
      Format.eprintf "pak: internal error: fresh certificate rejected: %s@."
        (Cert.violation_to_string v);
      125
    | Ok () ->
      if json then print_endline (Cert.to_json cert)
      else begin
        Printf.printf "%s: %d agents, %d nodes, %d runs, %d points\n" file
          (Tree.n_agents tree) (Tree.n_nodes tree) (Tree.n_runs tree) (Tree.n_points tree);
        Printf.printf "formula: %s (%d certificate nodes)\n" (Formula.to_string f)
          (Cert.size cert);
        Format.printf "%a" (Cert.pp ?depth ?at) cert
      end;
      0
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Certify a formula on a loaded system: emit a self-checked witness \
             certificate"
       ~man:
         [ `S Manpage.s_description;
           `P ("Evaluates FORMULA on the pps document FILE with full provenance: every \
               subformula's satisfying point set, the indistinguishability cell behind \
               each knowledge verdict, the conditioning cell with exact rational \
               measures behind each graded-belief verdict, and the iteration-by- \
               iteration approximants behind each common-knowledge/common-belief \
               fixpoint. The certificate is re-verified by the independent checker \
               before printing; $(b,--json) emits it as machine-readable JSON for \
               external re-verification ($(b,tools/check_cert.exe)). Budgets (" ^ budget_flags
               ^ ") bound certification like every other subcommand (exit 4 on \
                  exhaustion).")
         ])
    Term.(const run $ common_t $ file_arg $ formula_t $ json_t $ depth_t $ at_t)

let random_cmd =
  let seed_arg = Arg.(value & pos 0 int 1 & info [] ~docv:"SEED" ~doc:"Generator seed.") in
  let run () seed =
    let tree = Gen.tree seed in
    Printf.printf "random pps (seed %d): %d nodes, %d runs, %d points\n" seed
      (Tree.n_nodes tree) (Tree.n_runs tree) (Tree.n_points tree);
    (match Gen.pick_proper_action tree ~seed with
     | None -> print_endline "no proper action found"
     | Some (agent, act) ->
       let fact = Gen.past_based_fact tree ~seed in
       Printf.printf "checking (agent %d, action %s) against a random past-based fact\n" agent act;
       let r = Theorems.expectation_identity fact ~agent ~act in
       Format.printf "%a@." Theorems.pp_expectation r;
       let pak = Theorems.pak_corollary fact ~agent ~act ~eps:(Q.of_ints 1 10) in
       Format.printf "%a@." Theorems.pp_pak pak);
    0
  in
  Cmd.v
    (Cmd.info "random" ~doc:"Generate a random pps and verify the main theorems on it")
    Term.(const run $ common_t $ seed_arg)

let serve_cmd =
  (* Unlike every other subcommand, serve does NOT install the
     process-global budget (no [guard_t]): its --max-* flags are
     server-level per-request caps, installed as a fresh scope around
     each request so one exhausted query cannot starve the next. *)
  let settings_t =
    List.fold_left
      (fun acc (st : Serve.setting) ->
        let st_info = Arg.info [ st.name ] ~docv:st.docv ~doc:st.doc in
        let default = st.get Serve.default_config in
        let v =
          if st.optional then Arg.(value & opt (some int) default st_info)
          else Term.(const Option.some $ Arg.(value & opt int (Option.get default) st_info))
        in
        Term.(const (fun f v cfg -> st.set (f cfg) v) $ acc $ v))
      (Term.const Fun.id) Serve.settings
  in
  let telemetry_file_t =
    Arg.(value & opt (some string) None
         & info [ "telemetry-file" ] ~docv:"FILE"
             ~doc:"Side-channel file for telemetry frames, line-delimited JSON, \
                   flushed per frame so it can be tailed live.")
  and journal_file_t =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Flight recorder: append every inbound frame and outbound response \
                   (seq, trace id, timestamp, disposition, exit code, payload bytes) \
                   to $(docv), flushed per record. Replay the file later with \
                   $(b,pak replay).")
  and journal_max_t =
    Arg.(value & opt (some int) None
         & info [ "journal-max-bytes" ] ~docv:"BYTES"
             ~doc:"Rotate the journal once the active segment would exceed $(docv) \
                   bytes: it is renamed $(i,FILE.1), $(i,FILE.2), ... (oldest first) \
                   and a fresh segment is opened. Unset = never rotate.")
  in
  let run () () settings telemetry_file journal_file journal_max =
    handle (fun () ->
        let tele_chan =
          match telemetry_file with
          | None -> None
          | Some file -> (
              (* Telemetry frames are counter deltas: recording must be
                 on even without --metrics/--trace. *)
              Obs.enable ();
              try Some (open_out file)
              with Sys_error msg ->
                prerr_endline ("pak: cannot open telemetry file: " ^ msg);
                exit 3)
        in
        let telemetry =
          Option.map
            (fun oc line ->
              output_string oc line;
              output_char oc '\n';
              flush oc)
            tele_chan
        in
        let close_telemetry () =
          match tele_chan with Some oc -> close_out_noerr oc | None -> ()
        in
        let cfg =
          settings
            { Serve.default_config with
              jobs = !jobs_ref;
              clock = Some Unix.gettimeofday;
              telemetry
            }
        in
        match Serve.validate_config cfg with
        | Result.Error msg ->
            close_telemetry ();
            Result.Error msg
        | Ok () when journal_max <> None && journal_file = None ->
            close_telemetry ();
            Result.Error "--journal-max-bytes requires --journal"
        | Ok () when (match journal_max with Some n -> n < 64 | None -> false) ->
            close_telemetry ();
            Result.Error "--journal-max-bytes must be >= 64"
        | Ok () ->
          (* The journal meta records the effective configuration, so
             [pak replay] re-executes under the same limits. *)
          let journal_writer =
            match journal_file with
            | None -> None
            | Some file -> (
                match
                  Journal.Writer.create ?max_bytes:journal_max
                    ~meta:(Replay.meta_of_config cfg) file
                with
                | Ok w -> Some w
                | Result.Error msg ->
                    close_telemetry ();
                    prerr_endline ("pak: cannot open journal: " ^ msg);
                    exit 3)
          in
          let cfg =
            { cfg with Serve.journal = Option.map Journal.Writer.sink journal_writer }
          in
          (* A client closing its read end must look like EOF, not a
             process-killing signal: responses go through [write], which
             treats the resulting Sys_error as a clean disconnect. *)
          (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
           with Invalid_argument _ -> ());
          set_binary_mode_in stdin true;
          set_binary_mode_out stdout true;
          let source = Serve.Frame.source_of_channel stdin in
          let write s = output_string stdout s; flush stdout in
          Ok (Fun.protect
                ~finally:(fun () ->
                  Option.iter Journal.Writer.close journal_writer;
                  close_telemetry ())
                (fun () -> Serve.run cfg ~source ~write)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve framed evaluation requests from stdin with per-request fault \
             isolation"
       ~man:
         [ `S Manpage.s_description;
           `P "Runs a long-lived request loop: length-prefixed s-expression frames \
               ($(b,pak1 <len>\\\\n<payload>)) arrive on stdin, one response frame per \
               request leaves on stdout. Requests ($(b,eval) or $(b,belief) on an \
               inline pps document) are scheduled on $(b,--jobs) worker domains; each \
               runs under its own budget scope, so a malformed frame, an unparsable \
               document, a runaway fixpoint or an exhausted budget degrades exactly \
               one response and never the server.";
           `P "Budget-exhausted belief queries fall back to a budget-exempt \
               Monte-Carlo estimate marked $(i,estimated). When the pending queue is \
               full, new requests are shed with an $(i,overloaded) response and a \
               back-off hint. EOF or a $(b,(shutdown)) frame drains in-flight work \
               under the drain grace deadline and exits 0. Per-response codes reuse \
               the exit-code contract: 0 ok, 2 malformed request, 3 invalid input, 4 \
               budget exceeded or shed, 125 internal.";
           `P "The five budget caps are also request fields of the same names; a \
               request can only lower them."
         ])
    Term.(const run $ obs_t $ jobs_t $ settings_t $ telemetry_file_t $ journal_file_t
          $ journal_max_t)

let replay_cmd =
  let journal_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JOURNAL"
             ~doc:"Journal base path as given to $(b,pak serve --journal); rotated \
                   segments $(i,JOURNAL.1), $(i,JOURNAL.2), ... are read first, \
                   oldest first.")
  and jobs_arg =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Override the recorded worker-domain count. The response stream is \
                   a pure function of the input stream, so this must not change the \
                   outcome — replaying at a different job count is itself a \
                   determinism check. 0 selects the machine's recommended count.")
  and strict_t =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Also fail (exit 1) when the journal has a truncated or corrupt \
                   tail; without it the tail is reported but only response \
                   divergences fail the replay.")
  in
  let run () journal jobs strict =
    handle (fun () ->
        match Journal.read journal with
        | Result.Error msg -> Result.Error msg
        | Ok rr -> (
            let jobs =
              Option.map
                (fun j ->
                  if j = 0 then Domain.recommended_domain_count () else max 1 j)
                jobs
            in
            match Replay.run ?jobs ~clock:Unix.gettimeofday rr with
            | Result.Error msg -> Result.Error msg
            | Ok rp ->
                Printf.printf
                  "replayed %d request frames from %d segment(s): %d/%d responses \
                   matched (%d junk records skipped)\n"
                  rp.Replay.rp_requests rr.Journal.r_segments rp.Replay.rp_matched
                  rp.Replay.rp_compared rp.Replay.rp_skipped_junk;
                List.iter
                  (fun d ->
                    Printf.printf
                      "divergence at frame seq %d (trace %s):\n  recorded: %s\n  \
                       replayed: %s\n"
                      d.Replay.d_seq
                      (if d.Replay.d_trace = "" then "-" else d.Replay.d_trace)
                      d.Replay.d_want d.Replay.d_got)
                  rp.Replay.rp_divergences;
                if rp.Replay.rp_missing > 0 then
                  Printf.printf
                    "missing: %d recorded response(s) the replay did not produce\n"
                    rp.Replay.rp_missing;
                if rp.Replay.rp_extra > 0 then
                  Printf.printf
                    "extra: %d replayed response(s) beyond the recording\n"
                    rp.Replay.rp_extra;
                (match rp.Replay.rp_tail with
                | Some why -> Printf.printf "journal tail: %s\n" why
                | None -> ());
                let diverged =
                  rp.Replay.rp_divergences <> []
                  || rp.Replay.rp_missing > 0
                  || rp.Replay.rp_extra > 0
                in
                Ok
                  (if diverged || (strict && rp.Replay.rp_tail <> None) then 1
                   else 0)))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a serve journal through the live evaluator and diff the \
             responses"
       ~man:
         [ `S Manpage.s_description;
           `P "Reads a flight-recorder journal written by $(b,pak serve --journal), \
               rebuilds the input stream from its request records, re-executes it \
               under the configuration recorded in the journal meta, and \
               compares the responses byte-for-byte modulo the observability fields \
               (trace ids, $(b,(metrics ...)) groups, and the $(b,(result ...)) of \
               introspection ops, which report the recording process's own state). \
               Any journal is thus a regression test: exit 0 when every response \
               matches, 1 with a divergence report naming each frame seq and trace \
               id otherwise, 3 on an unreadable journal.";
           `P "Junk records (stream garbage the recorder observed but whose bytes \
               were not kept) are skipped on both sides of the diff. A truncated \
               tail — the recorder died mid-record — is reported and, under \
               $(b,--strict), also fails the replay."
         ])
    Term.(const run $ obs_t $ journal_arg $ jobs_arg $ strict_t)

let () =
  Printexc.record_backtrace false;
  (* The CLI links Unix anyway, so deadlines get the wall clock the
     zero-dependency guard layer cannot provide itself: the deadline cap
     measures wall time and is jobs-invariant. *)
  Budget.set_wall_clock (Some Unix.gettimeofday);
  let doc = "Probably Approximately Knowing: probabilistic beliefs at action time" in
  let man =
    [ `S Manpage.s_exit_status;
      `P ("0 on success; 1 when the analyzed constraint is violated or a sweep found a \
          violating system; 2 on command-line usage errors; 3 on invalid input (unknown \
          system, unparsable formula or document, unreadable file); 4 when a resource \
          budget (" ^ budget_flags ^ ") is exceeded.")
    ]
  in
  let info = Cmd.info "pak" ~version:"1.0.0" ~doc ~man in
  let group =
    Cmd.group info
      [ list_cmd; analyze_cmd; theorems_cmd; eval_cmd; profile_cmd; dot_cmd; dump_cmd;
        simulate_cmd; sweep_cmd; axioms_cmd; frontier_cmd; appendix_cmd; load_cmd;
        explain_cmd; random_cmd; serve_cmd; replay_cmd ]
  in
  (* Top-level boundary: no raw exception escapes as a crash. Typed and
     classifiable errors map onto the exit-code contract; anything else
     is an internal error (125). Usage errors (unknown flags, missing
     arguments) exit 2. *)
  let code =
    match Cmd.eval_value ~catch:false group with
    | Ok (`Ok code) -> code
    | Ok (`Version | `Help) -> 0
    | Result.Error (`Parse | `Term | `Exn) -> 2
    | exception exn ->
      (match Error.of_exn exn with
       | Some e -> fail_error e
       | None ->
         Format.eprintf "pak: internal error: %s@." (Printexc.to_string exn);
         125)
  in
  exit code
