(* Benchmark harness.

   Part 1 — reproduction: regenerates every numeric claim of the paper
   (the experiment ids EXP-* of DESIGN.md), printing paper-expected vs
   measured values; every value is an exact rational so "OK" means
   equality, not tolerance. The process exits non-zero if any
   reproduction row fails.

   Part 2 — timing: one bechamel Test per core algorithm (arithmetic,
   compilation, belief computation, theorem checking, model checking,
   fixpoints), with OLS estimates printed as ns/run. Skip with
   --no-timing.

   Run with: dune exec bench/main.exe *)

open Pak
module FS = Systems.Firing_squad
module F1 = Systems.Figure_one
module TG = Systems.Threshold_gap
module CA = Systems.Coordinated_attack
module MX = Systems.Mutex
module JD = Systems.Judge
module MS = Systems.Monderer_samet
module CS = Systems.Consensus
module IP = Systems.Interactive_proof

let failures = ref 0

let row_q ~exp_id ~label ~paper measured =
  let ok = Q.equal (Q.of_string paper) measured in
  if not ok then incr failures;
  Printf.printf "  %-8s %-46s paper=%-12s measured=%-12s %s\n" exp_id label paper
    (Q.to_string measured)
    (if ok then "OK" else "MISMATCH")

let row_bool ~exp_id ~label expected actual =
  let ok = expected = actual in
  if not ok then incr failures;
  Printf.printf "  %-8s %-46s expect=%-12b measured=%-12b %s\n" exp_id label expected actual
    (if ok then "OK" else "MISMATCH")

let section title = Printf.printf "\n== %s ==\n" title

(* ------------------------------------------------------------------ *)
(* EXP-E1: Example 1                                                   *)
(* ------------------------------------------------------------------ *)

let exp_e1 () =
  section "EXP-E1: Example 1 (relaxed firing squad, FS protocol)";
  let a = FS.analyze FS.Original in
  row_q ~exp_id:"EXP-E1" ~label:"µ(ϕ_both@fire_A | fire_A)" ~paper:"99/100"
    a.FS.mu_both_given_fire_a;
  row_bool ~exp_id:"EXP-E1" ~label:"Spec µ ≥ 0.95 satisfied" true a.FS.spec_satisfied;
  row_q ~exp_id:"EXP-E1" ~label:"β_A(fire_B) on 'Yes'" ~paper:"1"
    (Option.get a.FS.belief_heard_yes);
  row_q ~exp_id:"EXP-E1" ~label:"β_A(fire_B) on nothing" ~paper:"99/100"
    (Option.get a.FS.belief_heard_nothing);
  row_q ~exp_id:"EXP-E1" ~label:"β_A(fire_B) on 'No'" ~paper:"0"
    (Option.get a.FS.belief_heard_no);
  row_q ~exp_id:"EXP-E1" ~label:"violation measure 0.1·0.1·0.9" ~paper:"9/1000"
    (Q.one_minus a.FS.threshold_met_measure);
  row_q ~exp_id:"EXP-E1" ~label:"µ(threshold met | fire_A)" ~paper:"991/1000"
    a.FS.threshold_met_measure;
  row_q ~exp_id:"EXP-E1" ~label:"E(β@fire_A | fire_A) = µ (Thm 6.2)" ~paper:"99/100"
    a.FS.expected_belief

(* ------------------------------------------------------------------ *)
(* EXP-F1: Figure 1 counterexamples                                    *)
(* ------------------------------------------------------------------ *)

let exp_f1 () =
  section "EXP-F1: Figure 1 (mixed action counterexamples, Sections 4 and 6)";
  let a = F1.analyze () in
  row_q ~exp_id:"EXP-F1" ~label:"β_i(ψ)@α for ψ = ¬does(α)" ~paper:"1/2"
    a.F1.belief_psi_at_alpha;
  row_q ~exp_id:"EXP-F1" ~label:"µ(ψ@α | α)" ~paper:"0" a.F1.mu_psi;
  row_bool ~exp_id:"EXP-F1" ~label:"ψ local-state independent of α" false a.F1.psi_independent;
  row_q ~exp_id:"EXP-F1" ~label:"µ(ϕ@α | α) for ϕ = does(α)" ~paper:"1" a.F1.mu_phi;
  row_q ~exp_id:"EXP-F1" ~label:"E(β_i(ϕ)@α | α)" ~paper:"1/2" a.F1.expected_belief_phi;
  row_bool ~exp_id:"EXP-F1" ~label:"Theorem 6.2 only vacuously respected" true
    a.F1.theorem62_vacuous

(* ------------------------------------------------------------------ *)
(* EXP-F2: Figure 2 / Theorem 5.2                                      *)
(* ------------------------------------------------------------------ *)

let exp_f2 () =
  section "EXP-F2: Figure 2 / Theorem 5.2 (T-hat construction grid)";
  List.iter
    (fun (p, eps) ->
      let a = TG.analyze ~p:(Q.of_string p) ~eps:(Q.of_string eps) in
      let tag = Printf.sprintf "p=%s ε=%s" p eps in
      row_q ~exp_id:"EXP-F2" ~label:(tag ^ ": µ(ϕ@α|α) = p") ~paper:p a.TG.mu;
      row_q ~exp_id:"EXP-F2" ~label:(tag ^ ": µ(β ≥ p | α) = ε") ~paper:eps
        a.TG.threshold_met_measure;
      row_q ~exp_id:"EXP-F2"
        ~label:(tag ^ ": pooled belief = (p−ε)/(1−ε)")
        ~paper:(Q.to_string
                  (Q.div
                     (Q.sub (Q.of_string p) (Q.of_string eps))
                     (Q.one_minus (Q.of_string eps))))
        a.TG.pooled_belief)
    [ ("3/4", "1/4"); ("9/10", "1/10"); ("19/20", "1/100"); ("1/2", "1/1000") ]

(* ------------------------------------------------------------------ *)
(* Theorem checkers on random protocol-generated systems               *)
(* ------------------------------------------------------------------ *)

let random_sweep ~exp_id ~label ~count check =
  let ok = ref 0 and total = ref 0 in
  for seed = 1 to count do
    let tree = Gen.tree seed in
    match Gen.pick_proper_action tree ~seed with
    | None -> ()
    | Some (agent, act) ->
      incr total;
      if check tree seed agent act then incr ok
  done;
  let pass = !ok = !total && !total > 0 in
  if not pass then incr failures;
  Printf.printf "  %-8s %-46s %d/%d systems %s\n" exp_id label !ok !total
    (if pass then "OK" else "MISMATCH")

let exp_theorems_random () =
  section "EXP-T42/L43/L51/T62/T71/KOP: theorem checkers on random protocol systems";
  random_sweep ~exp_id:"EXP-L43" ~label:"Lemma 4.3(b): past-based => independent" ~count:400
    (fun tree seed agent act ->
      let _ = tree in
      let fact = Gen.past_based_fact tree ~seed in
      (Theorems.lemma43 fact ~agent ~act).Theorems.independent);
  random_sweep ~exp_id:"EXP-T62" ~label:"Theorem 6.2 exact identity (past-based)" ~count:400
    (fun tree seed agent act ->
      let fact = Gen.past_based_fact tree ~seed in
      let r = Theorems.expectation_identity fact ~agent ~act in
      r.Theorems.independent && r.Theorems.identity)
    ;
  random_sweep ~exp_id:"EXP-T62" ~label:"Theorem 6.2 respected (transient facts)" ~count:400
    (fun tree seed agent act ->
      let fact = Gen.transient_fact tree ~seed in
      (Theorems.expectation_identity fact ~agent ~act).Theorems.respected);
  random_sweep ~exp_id:"EXP-T42" ~label:"Theorem 4.2 at p = min belief" ~count:400
    (fun tree seed agent act ->
      let fact = Gen.past_based_fact tree ~seed in
      match Belief.min_at_action fact ~agent ~act with
      | None -> false
      | Some p -> (Theorems.sufficiency fact ~agent ~act ~p).Theorems.respected);
  random_sweep ~exp_id:"EXP-L51" ~label:"Lemma 5.1 witness at p = µ" ~count:400
    (fun tree seed agent act ->
      let fact = Gen.past_based_fact tree ~seed in
      let p = Constr.mu_given_action fact ~agent ~act in
      (Theorems.necessity_exists fact ~agent ~act ~p).Theorems.respected);
  random_sweep ~exp_id:"EXP-T71" ~label:"Theorem 7.1 grid (5 (ε,δ) pairs)" ~count:200
    (fun tree seed agent act ->
      let fact = Gen.past_based_fact tree ~seed in
      List.for_all
        (fun (e, d) ->
          (Theorems.pak fact ~agent ~act ~eps:(Q.of_ints 1 e) ~delta:(Q.of_ints 1 d))
            .Theorems.respected)
        [ (2, 2); (2, 5); (5, 2); (10, 10); (3, 7) ]);
  random_sweep ~exp_id:"EXP-KOP" ~label:"Lemma F.1 (KoP limit)" ~count:400
    (fun tree seed agent act ->
      let fact = Gen.past_based_fact tree ~seed in
      (Theorems.kop fact ~agent ~act).Theorems.respected)

(* ------------------------------------------------------------------ *)
(* PAK on the example systems                                          *)
(* ------------------------------------------------------------------ *)

let exp_t71_systems () =
  section "EXP-T71: PAK corollary on the example systems";
  let t = FS.tree FS.Original in
  let r =
    Theorems.pak_corollary (FS.phi_both t) ~agent:FS.alice ~act:FS.fire ~eps:(Q.of_ints 1 10)
  in
  row_bool ~exp_id:"EXP-T71" ~label:"FS: µ=0.99 >= 1-eps² => µ(β>=0.9|α) >= 0.9" true
    (r.Theorems.premise && r.Theorems.conclusion);
  row_q ~exp_id:"EXP-T71" ~label:"FS: µ(β >= 0.9 | fire_A)" ~paper:"991/1000"
    r.Theorems.strong_belief_measure;
  let t = CA.tree ~rounds:2 () in
  let r =
    Theorems.pak_corollary (CA.phi_both t) ~agent:CA.general_a ~act:CA.attack
      ~eps:(Q.of_ints 1 10)
  in
  row_bool ~exp_id:"EXP-T71" ~label:"CA k=2: PAK premise and conclusion" true
    (r.Theorems.premise && r.Theorems.conclusion);
  let t = JD.tree ~rounds:3 ~convict_at:3 () in
  let r =
    Theorems.pak_corollary (JD.guilty_fact t) ~agent:JD.judge ~act:JD.convict
      ~eps:(Q.of_ints 1 25)
  in
  row_bool ~exp_id:"EXP-T71" ~label:"Judge m=3: PAK premise and conclusion" true
    (r.Theorems.premise && r.Theorems.conclusion)

(* ------------------------------------------------------------------ *)
(* KoP on a reliable system                                            *)
(* ------------------------------------------------------------------ *)

let exp_kop_reliable () =
  section "EXP-KOP: Lemma F.1 on reliable systems (threshold 1)";
  let t = MX.tree ~err:Q.zero () in
  let r = Theorems.kop (MX.phi_alone t ~agent:0) ~agent:0 ~act:MX.enter in
  row_q ~exp_id:"EXP-KOP" ~label:"mutex err=0: µ(alone@enter|enter)" ~paper:"1" r.Theorems.mu;
  row_q ~exp_id:"EXP-KOP" ~label:"mutex err=0: µ(β = 1 | enter)" ~paper:"1"
    r.Theorems.certain_measure

(* ------------------------------------------------------------------ *)
(* EXP-S8: the Section 8 improvement                                   *)
(* ------------------------------------------------------------------ *)

let exp_s8 () =
  section "EXP-S8: Section 8 (Alice skips on 'No')";
  let a = FS.analyze FS.Improved in
  row_q ~exp_id:"EXP-S8" ~label:"µ(ϕ_both@fire_A | fire_A) improved" ~paper:"990/991"
    a.FS.mu_both_given_fire_a;
  row_bool ~exp_id:"EXP-S8" ~label:"strictly better than 0.99" true
    (Q.gt a.FS.mu_both_given_fire_a (Q.of_ints 99 100))

(* ------------------------------------------------------------------ *)
(* EXP-MS: Monderer–Samet (Section 6.1)                                *)
(* ------------------------------------------------------------------ *)

let exp_ms () =
  section "EXP-MS: Monderer–Samet flat-system identity (Section 6.1)";
  let ok = ref 0 in
  let count = 500 in
  for seed = 1 to count do
    let t = MS.random_flat ~n_agents:2 ~n_states:6 ~label_alphabet:3 ~seed in
    let fact = Gen.past_based_fact t ~seed in
    if (MS.check fact ~agent:0).MS.identity then incr ok
  done;
  let pass = !ok = count in
  if not pass then incr failures;
  Printf.printf "  %-8s %-46s %d/%d systems %s\n" "EXP-MS"
    "E[posterior] = prior on random flat systems" !ok count
    (if pass then "OK" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* Closed forms on the remaining systems                               *)
(* ------------------------------------------------------------------ *)

let exp_aux_systems () =
  section "AUX: closed forms on the motivating systems";
  let a = CA.analyze ~rounds:3 () in
  row_q ~exp_id:"AUX-CA" ~label:"attack k=3: µ(both|A) = 1 - 0.1³" ~paper:"999/1000"
    a.CA.mu_both_given_attack_a;
  let m = MX.analyze () in
  row_q ~exp_id:"AUX-MX" ~label:"mutex: µ(alone@enter|enter)" ~paper:"299/301"
    m.MX.mu_alone_given_enter;
  let j = JD.analyze ~rounds:3 ~convict_at:2 () in
  row_q ~exp_id:"AUX-JD" ~label:"judge n=3,m=2: µ(guilty|convict)" ~paper:"243/250"
    j.JD.mu_guilty_given_convict;
  let c = CS.analyze ~rounds:2 () in
  row_q ~exp_id:"AUX-CS" ~label:"consensus k=2: µ(agree|decide₁)" ~paper:"199/200"
    (List.assoc 1 c.CS.mu_agree_given_decide);
  (* Section 7's closing remark: with thresholds exponentially close to
     1 (soundness amplification), beliefs at action time are
     exponentially close to 1 as well. *)
  List.iter
    (fun (rounds, expected) ->
      let a = IP.analyze ~rounds () in
      row_q ~exp_id:"AUX-IP"
        ~label:(Printf.sprintf "interactive proof k=%d: µ(true|accept)" rounds)
        ~paper:expected a.IP.mu_true_given_accept;
      row_q ~exp_id:"AUX-IP"
        ~label:(Printf.sprintf "  verifier belief at accept (k=%d)" rounds)
        ~paper:expected a.IP.belief_at_accept)
    [ (2, "4/5"); (6, "64/65"); (10, "1024/1025") ]

(* ------------------------------------------------------------------ *)
(* Scaling series — the shape of each core algorithm's cost            *)
(* ------------------------------------------------------------------ *)

let time_ms f =
  let start = Sys.time () in
  let result = f () in
  (result, (Sys.time () -. start) *. 1000.)

let scaling_series () =
  section "Scaling series (coarse wall-clock, machine-dependent; shapes are the point)";
  Printf.printf "  coordinated attack vs rounds:\n";
  Printf.printf "  %-4s %-8s %-8s %-12s %-14s %-14s\n" "k" "nodes" "runs" "compile ms"
    "thm62 ms" "µ(both|A)";
  List.iter
    (fun rounds ->
      let t, compile_ms = time_ms (fun () -> CA.tree ~rounds ()) in
      let r, check_ms =
        time_ms (fun () ->
            Theorems.expectation_identity (CA.phi_both t) ~agent:CA.general_a ~act:CA.attack)
      in
      Printf.printf "  %-4d %-8d %-8d %-12.2f %-14.2f %-14s\n" rounds (Tree.n_nodes t)
        (Tree.n_runs t) compile_ms check_ms (Q.to_decimal_string r.Theorems.mu))
    [ 1; 2; 3; 4; 5 ];
  Printf.printf "\n  random protocol systems vs depth (seed 5):\n";
  Printf.printf "  %-6s %-8s %-8s %-12s %-14s %-14s\n" "depth" "nodes" "runs" "gen ms"
    "belief ms" "independ. ms";
  List.iter
    (fun depth ->
      let params = { Gen.default_params with depth } in
      let t, gen_ms = time_ms (fun () -> Gen.tree ~params 5) in
      match Gen.pick_proper_action t ~seed:5 with
      | None -> ()
      | Some (agent, act) ->
        let fact = Gen.past_based_fact t ~seed:5 in
        let _, belief_ms = time_ms (fun () -> Belief.expected_at_action fact ~agent ~act) in
        let _, indep_ms = time_ms (fun () -> Independence.holds fact ~agent ~act) in
        Printf.printf "  %-6d %-8d %-8d %-12.2f %-14.2f %-14.2f\n" depth (Tree.n_nodes t)
          (Tree.n_runs t) gen_ms belief_ms indep_ms)
    [ 2; 3; 4; 5 ];
  Printf.printf "\n  judge system vs evidence rounds:\n";
  Printf.printf "  %-6s %-8s %-12s %-16s\n" "n" "runs" "analyze ms" "µ(guilty|convict)";
  List.iter
    (fun rounds ->
      let a, ms =
        time_ms (fun () -> JD.analyze ~rounds ~convict_at:((rounds / 2) + 1) ())
      in
      Printf.printf "  %-6d %-8d %-12.2f %-16s\n" rounds (1 lsl (rounds + 1)) ms
        (Q.to_decimal_string a.JD.mu_guilty_given_convict))
    [ 2; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Observability export: per-scenario wall time plus every pak_obs
   counter, written to BENCH_obs.json. This is the machine-readable
   perf trajectory: counters are deterministic (exact work counts), so
   a future PR that changes the cost profile of an engine shows up as
   a counter diff even when wall times are too noisy to compare.       *)
(* ------------------------------------------------------------------ *)

(* Version stamp of the BENCH_obs.json / BENCH_par.json layout; bumped
   on incompatible change. v1 was the unversioned PR 1-3 layout; v3
   added the allocated-words columns. *)
let bench_schema_version = 3

(* Process-total minor words: the domain-local precise counter
   combined with quick_stat's collection-time total (which also
   absorbs terminated pool domains) — exact on a single domain,
   accurate to one unflushed minor heap per live domain otherwise. *)
let minor_words_total () =
  Float.max (Gc.minor_words ()) (Gc.quick_stat ()).Gc.minor_words

(* Words allocated directly on the major heap (allocations too large
   for the minor heap), excluding promotions. *)
let major_direct_words () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

let obs_scenarios () =
  let fs_tree = FS.tree FS.Original in
  let fs_both = FS.phi_both fs_tree in
  let valuation atom g =
    atom = "go" && String.length (Gstate.local g 0) >= 3 && (Gstate.local g 0).[2] = '1'
  in
  let formula = Parser.parse "K[0] go & B[0]>=9/10 F does[1](fire)" in
  let cb_formula = Parser.parse "CB[0,1]>=3/4 go" in
  let ca_tree = CA.tree ~rounds:3 () in
  let ca_both = CA.phi_both ca_tree in
  (* Serve front end, end-to-end through Serve.run_string. A leading
     frame + ping warms the parsed-system cache in its own drain, so
     tree-cache hit/miss counts stay deterministic at any job count;
     the cold stream uses distinct formulas (all result-cache misses),
     the warm stream repeats one (one miss, then hits). All serve.*
     counters in BENCH_obs.json / the snapshot are exact. *)
  let serve_doc = Tree_io.to_string (Systems.Figure_one.tree ()) in
  let serve_req id fml =
    let open Serve.Sexp in
    Serve.Frame.encode
      (to_string
         (List
            [ Atom "request"; List [ Atom "id"; Atom (string_of_int id) ];
              List [ Atom "op"; Atom "eval" ]; List [ Atom "system"; Str serve_doc ];
              List [ Atom "formula"; Str fml ]
            ]))
  in
  let serve_stream ~distinct =
    let b = Buffer.create 4096 in
    Buffer.add_string b (serve_req 1 "a0_g0");
    Buffer.add_string b (Serve.Frame.encode "(ping (id 2))");
    for k = 1 to 40 do
      let f =
        if distinct then Printf.sprintf "B[0]>=%d/1000 a0_g0" k else "K[0] a0_g0"
      in
      Buffer.add_string b (serve_req (100 + k) f)
    done;
    Buffer.contents b
  in
  let serve_cold = serve_stream ~distinct:true in
  let serve_warm = serve_stream ~distinct:false in
  let serve_run jobs stream () =
    let config = { Serve.default_config with Serve.jobs; cache_max = 64 } in
    let _out, code = Serve.run_string ~config stream in
    if code <> 0 then failwith "bench: serve stream did not drain cleanly"
  in
  (* Single-domain scenarios first, then the ones that spawn pool
     domains (see [export_snapshot]). *)
  ( [ ("modelcheck_kb_fs", fun () -> ignore (Semantics.eval fs_tree ~valuation formula));
    ("serve_j1_cold", serve_run 1 serve_cold);
    ("serve_j1_warm", serve_run 1 serve_warm);
    ( "common_belief_fixpoint_fs",
      fun () -> ignore (Semantics.eval fs_tree ~valuation cb_formula) );
    ( "theorem62_fs",
      fun () -> ignore (Theorems.expectation_identity fs_both ~agent:FS.alice ~act:FS.fire) );
    ( "belief_expectation_fs",
      fun () -> ignore (Belief.expected_at_action fs_both ~agent:FS.alice ~act:FS.fire) );
    ( "analyze_attack_k3",
      fun () ->
        ignore
          (analyze_constraint ~fact:ca_both ~agent:CA.general_a ~act:CA.attack
             ~threshold:(Q.of_ints 19 20)) );
    ("simulate_2k_fs", fun () -> ignore (Simulate.sample_runs fs_tree ~samples:2_000 ~seed:1));
    (* Provenance: certifying evaluation (witness construction) and the
       independent checker's full re-derivation. The cert.* counters in
       BENCH_obs.json are the layer's work profile; certify-vs-eval and
       check-vs-certify wall-time ratios are its measured overhead. *)
    ("certify_kb_fs", fun () -> ignore (Semantics.certify fs_tree ~valuation formula));
    ( "certify_check_cb_fs",
      fun () ->
        let cert = Semantics.certify fs_tree ~valuation cb_formula in
        match Cert.check ~valuation fs_tree cert with
        | Ok () -> ()
        | Error _ -> assert false );
    ( "theorem_cert_thm62_fs",
      fun () ->
        let tc =
          Cert.Theorem.certify fs_both ~check:Sweep.Expectation ~agent:FS.alice ~act:FS.fire
            ~eps:(Q.of_ints 1 10) ()
        in
        match Cert.Theorem.check fs_tree ~fact:fs_both tc with
        | Ok () -> ()
        | Error _ -> assert false );
    (* Guard overhead: the same workload with no budget installed
       (charges are one load-and-branch) vs under a never-exhausting
       budget (full charge accounting + periodic deadline checks).
       Comparing the wall_ms of the _off/_on pair in BENCH_obs.json is
       the guardrails' measured cost; the counters must be identical. *)
    ( "guard_off_cb_fixpoint_x50",
      fun () ->
        for _ = 1 to 50 do
          ignore (Semantics.eval fs_tree ~valuation cb_formula)
        done );
    ( "guard_on_cb_fixpoint_x50",
      fun () ->
        let huge =
          Budget.limits ~max_points:max_int ~max_nodes:max_int ~max_limbs:max_int
            ~max_iters:max_int ~timeout_ms:(24 * 3600 * 1000) ()
        in
        match
          Budget.with_budget huge (fun () ->
              for _ = 1 to 50 do
                ignore (Semantics.eval fs_tree ~valuation cb_formula)
              done)
        with
        | Ok () -> ()
        | Error _ -> assert false );
    ( "guard_off_theorem62_x50",
      fun () ->
        for _ = 1 to 50 do
          ignore (Theorems.expectation_identity fs_both ~agent:FS.alice ~act:FS.fire)
        done );
    ( "guard_on_theorem62_x50",
      fun () ->
        let huge =
          Budget.limits ~max_points:max_int ~max_nodes:max_int ~max_limbs:max_int
            ~max_iters:max_int ~timeout_ms:(24 * 3600 * 1000) ()
        in
        match
          Budget.with_budget huge (fun () ->
              for _ = 1 to 50 do
                ignore (Theorems.expectation_identity fs_both ~agent:FS.alice ~act:FS.fire)
              done)
        with
        | Ok () -> ()
        | Error _ -> assert false );
    (* Alloc-attribution overhead: the same span-heavy workload with
       per-span Gc counter reads disabled vs enabled. Comparing the
       wall_ms of the _off/_on pair in BENCH_obs.json is the allocation
       telemetry's measured cost; if it ever exceeds ~2% on these
       scenarios, --no-alloc is the kill switch. *)
    ( "alloc_off_cb_fixpoint_x50",
      fun () ->
        let prev = Obs.track_allocations () in
        Obs.set_track_allocations false;
        Fun.protect
          ~finally:(fun () -> Obs.set_track_allocations prev)
          (fun () ->
            for _ = 1 to 50 do
              ignore (Semantics.eval fs_tree ~valuation cb_formula)
            done) );
    ( "alloc_on_cb_fixpoint_x50",
      fun () ->
        let prev = Obs.track_allocations () in
        Obs.set_track_allocations true;
        Fun.protect
          ~finally:(fun () -> Obs.set_track_allocations prev)
          (fun () ->
            for _ = 1 to 50 do
              ignore (Semantics.eval fs_tree ~valuation cb_formula)
            done) )
  ],
    [ ("serve_j4_cold", serve_run 4 serve_cold); ("serve_j4_warm", serve_run 4 serve_warm) ] )

let export_obs () =
  let serial, pooled = obs_scenarios () in
  let scenarios = serial @ pooled in
  let was_enabled = Obs.enabled () in
  Obs.enable ();
  let rows =
    List.map
      (fun (name, f) ->
        Obs.reset ();
        let mj0 = major_direct_words () in
        let mw0 = Gc.minor_words () in
        let t0 = Sys.time () in
        f ();
        let ms = (Sys.time () -. t0) *. 1000. in
        let minor_aw = Float.max 0. (Gc.minor_words () -. mw0) in
        let major_aw = Float.max 0. (major_direct_words () -. mj0) in
        (name, ms, minor_aw, major_aw, List.filter (fun (_, v) -> v <> 0) (Obs.counters ())))
      scenarios
  in
  Obs.reset ();
  if not was_enabled then Obs.disable ();
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"schema_version\": %d,\n" bench_schema_version);
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, ms, minor_aw, major_aw, counters) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "    {\n      \"name\": \"%s\",\n" name);
      Buffer.add_string buf (Printf.sprintf "      \"wall_ms\": %.3f,\n" ms);
      Buffer.add_string buf (Printf.sprintf "      \"minor_words\": %.0f,\n" minor_aw);
      Buffer.add_string buf (Printf.sprintf "      \"major_words\": %.0f,\n" major_aw);
      Buffer.add_string buf "      \"counters\": {";
      List.iteri
        (fun j (cname, v) ->
          if j > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf (Printf.sprintf "\n        \"%s\": %d" cname v))
        counters;
      Buffer.add_string buf "\n      }\n    }")
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let out = open_out "BENCH_obs.json" in
  Buffer.output_buffer out buf;
  close_out out;
  Printf.printf "\n== Observability export: BENCH_obs.json (%d scenarios) ==\n"
    (List.length rows)

(* Metrics-snapshot mode (--metrics-json FILE): run the deterministic
   obs scenarios with full instrumentation — each wrapped in a
   "bench.<name>" span so the snapshot carries a span tree — and write
   one versioned Obs.Snapshot. Counters, span call counts and
   histogram sample totals in the file are exact work counts, so
   tools/bench_diff.exe can hold them to a committed baseline
   (bench/baselines/bench.json) byte-exactly while wall times get a
   tolerance. *)
let export_snapshot file =
  let serial, pooled = obs_scenarios () in
  let scenarios = serial @ pooled in
  let was_enabled = Obs.enabled () in
  Obs.reset ();
  Obs.enable ();
  let mw0 = Gc.minor_words () in
  let run = List.iter (fun (name, f) -> Obs.span ("bench." ^ name) f) in
  run serial;
  (* The major-heap levels are sampled here, before any pool domain
     exists: what the --jobs 4 serve scenarios' domains add to the heap
     depends on how their work interleaves, so including it would make
     gc.heap_words/gc.top_heap_words differ from run to run. Sampled
     this early in a fresh process, they are exact. *)
  let heap = Gc.quick_stat () in
  run pooled;
  let process_minor = Gc.minor_words () -. mw0 in
  (* Attribution coverage: the scenarios run single-domain and each is
     wrapped in a root span, so self words over the whole tree
     telescope to the roots' inclusive words and must account for
     (nearly) every minor word the process allocated — what escapes is
     the per-span instrumentation cost and the list iteration between
     scenarios. More than 10% unattributed means the span deltas are
     wrong (e.g. a counter read got reordered). *)
  let attributed =
    List.fold_left
      (fun acc n -> acc +. n.Obs.sn_minor_aw)
      0. (Obs.span_tree ())
  in
  let coverage = if process_minor > 0. then attributed /. process_minor else 1. in
  if Obs.track_allocations () && Float.abs (coverage -. 1.) > 0.1 then begin
    incr failures;
    Printf.printf "  alloc attribution MISMATCH: spans account for %.1f%% of %.0f minor words\n"
      (100. *. coverage) process_minor
  end;
  let snap = Obs.Snapshot.capture () in
  let level (k, v) =
    match k with
    | "gc.heap_words" -> (k, float_of_int heap.Gc.heap_words)
    | "gc.top_heap_words" -> (k, float_of_int heap.Gc.top_heap_words)
    | _ -> (k, v)
  in
  Obs.Snapshot.write file
    { snap with Obs.Snapshot.gauges = List.map level snap.Obs.Snapshot.gauges };
  Obs.reset ();
  if not was_enabled then Obs.disable ();
  Printf.printf
    "\n== Metrics snapshot: %s (%d scenarios, schema v%d, %.1f%% of minor words attributed) ==\n"
    file (List.length scenarios) Obs.Snapshot.schema_version (100. *. coverage)

(* ------------------------------------------------------------------ *)
(* Part 2: timing benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let timing_tests () =
  let open Bechamel in
  let fs_tree = FS.tree FS.Original in
  let fs_both = FS.phi_both fs_tree in
  let big_gen = { Gen.default_params with depth = 4 } in
  let gen_tree_40 = Gen.tree 42 in
  let gen_fact = Gen.past_based_fact gen_tree_40 ~seed:42 in
  let gen_action =
    match Gen.pick_proper_action gen_tree_40 ~seed:42 with
    | Some a -> a
    | None -> (0, "a0_0")
  in
  let valuation atom g =
    atom = "go" && String.length (Gstate.local g 0) >= 3 && (Gstate.local g 0).[2] = '1'
  in
  let formula = Parser.parse "K[0] go & B[0]>=9/10 F does[1](fire)" in
  let cb_formula = Parser.parse "CB[0,1]>=3/4 go" in
  let q_a = Q.of_ints 355 113 and q_b = Q.of_ints 987654321 123456789 in
  [ Test.make ~name:"q_mul_normalize" (Staged.stage (fun () -> Q.mul q_a q_b));
    Test.make ~name:"q_pow20" (Staged.stage (fun () -> Q.pow q_b 20));
    Test.make ~name:"compile_fs" (Staged.stage (fun () -> FS.tree FS.Original));
    Test.make ~name:"compile_attack_k3" (Staged.stage (fun () -> CA.tree ~rounds:3 ()));
    Test.make ~name:"compile_judge_n5"
      (Staged.stage (fun () -> JD.tree ~rounds:5 ~convict_at:3 ()));
    Test.make ~name:"gen_random_tree_d4" (Staged.stage (fun () -> Gen.tree ~params:big_gen 7));
    Test.make ~name:"belief_expectation_fs"
      (Staged.stage (fun () -> Belief.expected_at_action fs_both ~agent:FS.alice ~act:FS.fire));
    Test.make ~name:"independence_check_fs"
      (Staged.stage (fun () -> Independence.holds fs_both ~agent:FS.alice ~act:FS.fire));
    Test.make ~name:"theorem62_check_fs"
      (Staged.stage (fun () ->
           Theorems.expectation_identity fs_both ~agent:FS.alice ~act:FS.fire));
    Test.make ~name:"theorem62_check_random"
      (Staged.stage (fun () ->
           let agent, act = gen_action in
           Theorems.expectation_identity gen_fact ~agent ~act));
    Test.make ~name:"parse_formula"
      (Staged.stage (fun () -> Parser.parse "K[0] go & B[0]>=9/10 F does[1](fire)"));
    Test.make ~name:"modelcheck_kb_fs"
      (Staged.stage (fun () -> Semantics.eval fs_tree ~valuation formula));
    Test.make ~name:"common_belief_fixpoint_fs"
      (Staged.stage (fun () -> Semantics.eval fs_tree ~valuation cb_formula));
    Test.make ~name:"policy_frontier_fs"
      (Staged.stage (fun () -> Policy.frontier fs_both ~agent:FS.alice ~act:FS.fire));
    Test.make ~name:"simulate_1k_runs_fs"
      (Staged.stage (fun () -> Simulate.sample_runs fs_tree ~samples:1000 ~seed:1));
    Test.make ~name:"kripke_extract_fs" (Staged.stage (fun () -> Kripke.of_tree fs_tree));
    Test.make ~name:"tree_io_roundtrip_fs"
      (Staged.stage (fun () -> Tree_io.of_string (Tree_io.to_string fs_tree)));
    Test.make ~name:"aumann_check_fs"
      (Staged.stage (fun () -> Aumann.check fs_both ~group:[ 0; 1 ]));
    Test.make ~name:"simplify_formula"
      (Staged.stage (fun () -> Simplify.simplify formula));
    Test.make ~name:"appendix_derivation_fs"
      (Staged.stage (fun () -> Appendix.theorem62 fs_both ~agent:FS.alice ~act:FS.fire));
    Test.make ~name:"reference_engine_fs"
      (Staged.stage (fun () ->
           Reference.expected_beta_at_alpha fs_both ~agent:FS.alice ~act:FS.fire))
  ]

let run_timings () =
  let open Bechamel in
  Printf.printf "\n== Timing benchmarks (bechamel, OLS ns/run) ==\n%!";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let tests = Test.make_grouped ~name:"pak" (timing_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  Printf.printf "  %-38s %14s %10s\n" "benchmark" "ns/run" "r²";
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with Some [ e ] -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square result with Some r -> r | None -> nan in
      Printf.printf "  %-38s %14.1f %10.4f\n" name estimate r2)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Parallelism export: BENCH_par.json                                  *)
(* ------------------------------------------------------------------ *)

(* Serial-vs-parallel wall times for every pool-parallelized engine:
   theorem sweeps, block-seeded Monte-Carlo estimation, and the raw
   pool on a synthetic CPU-bound map. Each engine runs once per job
   count; "speedup" is wall(1)/wall(jobs). Results are checked
   identical across job counts while timing — a speedup obtained by
   computing something else would be meaningless. The file records the
   host's recommended domain count: on a single-core runner speedups
   hover around 1.0 and the numbers measure pool overhead instead. *)
let export_par () =
  let wall () = Unix.gettimeofday () in
  let depth4 = { Gen.default_params with Gen.depth = 4 } in
  let fs = FS.tree FS.Original in
  let fs_event = Action.runs_performing fs ~agent:FS.alice ~act:FS.fire in
  let spin x =
    let r = ref x in
    for _ = 1 to 200_000 do
      let v = !r in
      let v = v lxor (v lsl 13) land max_int in
      let v = v lxor (v lsr 7) in
      r := v lxor (v lsl 17) land max_int
    done;
    !r
  in
  let work_items = Array.init 64 (fun i -> i * 7919) in
  let engines =
    [ ( "sweep_thm62_depth4",
        fun pool ->
          let r = Sweep.run ?pool ~params:depth4 Sweep.Expectation ~first_seed:1 ~count:24 in
          Printf.sprintf "%d/%d" (r.Sweep.checked - List.length r.Sweep.violations) r.Sweep.checked );
      ( "sweep_all_checks",
        fun pool ->
          let rs = Sweep.run_all ?pool ~first_seed:1 ~count:60 () in
          Printf.sprintf "%b" (List.for_all Sweep.passed rs) );
      ( "estimate_par_100k",
        fun pool ->
          Q.to_string (Simulate.estimate_par ?pool fs ~event:fs_event ~samples:100_000 ~seed:42) );
      ( "pool_map_64",
        fun pool ->
          let out =
            match pool with
            | Some p -> Pool.map p spin work_items
            | None -> Array.map spin work_items
          in
          string_of_int (Array.fold_left ( + ) 0 out) )
    ]
  in
  let jobs_list = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun (name, f) ->
        let timings =
          List.map
            (fun jobs ->
              let run pool = let t0 = wall () in let v = f pool in ((wall () -. t0) *. 1000., v) in
              (* Allocation is measured around the whole with_pool
                 expression: quick_stat absorbs the joined workers'
                 counters, so the delta is the engine's process-total
                 allocation at this job count. *)
              let mw0 = minor_words_total () in
              let ms, v =
                if jobs = 1 then run None
                else Pool.with_pool ~jobs (fun pool -> run (Some pool))
              in
              let aw = Float.max 0. (minor_words_total () -. mw0) in
              (jobs, ms, aw, v))
            jobs_list
        in
        (* Determinism cross-check: every job count must compute the
           same value, or the timings compare different work. And the
           same work should allocate the same words: minor words must
           be jobs-invariant to within 2x + a 1M-word floor (slack for
           per-worker pool setup and GC-timing jitter in promotion). *)
        (match timings with
         | (_, _, aw1, v1) :: rest ->
           List.iter
             (fun (jobs, _, aw, v) ->
               if v <> v1 then begin
                 incr failures;
                 Printf.printf "  %-22s MISMATCH: jobs=%d computed %s, jobs=1 computed %s\n"
                   name jobs v v1
               end;
               if Float.abs (aw -. aw1) > 1e6
                  && (aw > aw1 *. 2. || aw1 > aw *. 2.)
               then begin
                 incr failures;
                 Printf.printf
                   "  %-22s ALLOC MISMATCH: jobs=%d allocated %.0f minor words, jobs=1 %.0f\n"
                   name jobs aw aw1
               end)
             rest
         | [] -> ());
        (name, timings))
      engines
  in
  let serial_ms timings = match timings with (1, ms, _, _) :: _ -> ms | _ -> nan in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"schema_version\": %d,\n" bench_schema_version);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, timings) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "    {\n      \"name\": \"%s\",\n" name);
      Buffer.add_string buf "      \"runs\": [";
      let s = serial_ms timings in
      List.iteri
        (fun j (jobs, ms, aw, _) ->
          if j > 0 then Buffer.add_string buf ",";
          Buffer.add_string buf
            (Printf.sprintf
               "\n        {\"jobs\": %d, \"wall_ms\": %.3f, \"speedup\": %.3f, \
                \"minor_words\": %.0f}"
               jobs ms (s /. ms) aw))
        timings;
      Buffer.add_string buf "\n      ]\n    }")
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let out = open_out "BENCH_par.json" in
  Buffer.output_buffer out buf;
  close_out out;
  Printf.printf "\n== Parallelism export: BENCH_par.json (%d engines x jobs %s, %d domains recommended) ==\n"
    (List.length rows)
    (String.concat "/" (List.map string_of_int jobs_list))
    (Domain.recommended_domain_count ());
  List.iter
    (fun (name, timings) ->
      Printf.printf "  %-22s" name;
      List.iter (fun (jobs, ms, _, _) -> Printf.printf "  j%d %8.1fms" jobs ms) timings;
      print_newline ())
    rows

(* Value of "--metrics-json FILE" in argv, if present. *)
let metrics_json_arg () =
  let n = Array.length Sys.argv in
  let rec find i =
    if i >= n then None
    else if Sys.argv.(i) = "--metrics-json" && i + 1 < n then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let () =
  Budget.set_wall_clock (Some Unix.gettimeofday);
  Printf.printf "Probably Approximately Knowing — reproduction harness\n";
  Printf.printf "(all probabilities exact rationals; OK = exact equality)\n";
  (* The snapshot runs first, in a fresh heap, so its heap levels do
     not depend on the experiments or the parallelism export. *)
  Option.iter export_snapshot (metrics_json_arg ());
  exp_e1 ();
  exp_f1 ();
  exp_f2 ();
  exp_theorems_random ();
  exp_t71_systems ();
  exp_kop_reliable ();
  exp_s8 ();
  exp_ms ();
  exp_aux_systems ();
  scaling_series ();
  export_obs ();
  export_par ();
  Printf.printf "\n== Reproduction summary: %s ==\n"
    (if !failures = 0 then "ALL CLAIMS REPRODUCED EXACTLY"
     else Printf.sprintf "%d MISMATCHES" !failures);
  let skip_timing = Array.mem "--no-timing" Sys.argv in
  if not skip_timing then run_timings ();
  exit (if !failures = 0 then 0 else 1)
