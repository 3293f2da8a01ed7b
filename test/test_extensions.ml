(* Tests for the extension modules: Jeffrey conditionalization, policy
   improvement (Section 8), Kripke extraction, Monte-Carlo simulation,
   tree serialization, modal axioms, formula simplification, and the
   ALOHA system. *)

open Pak_rational
open Pak_pps
open Pak_logic
open Pak_systems

let q = Q.of_ints
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

let fs () = Firing_squad.tree Firing_squad.Original

(* ------------------------------------------------------------------ *)
(* Jeffrey conditionalization                                          *)
(* ------------------------------------------------------------------ *)

let test_jeffrey_partitions () =
  let t = fs () in
  let cells = Jeffrey.lstate_partition t ~agent:Firing_squad.alice ~time:2 in
  check_bool "lstate cells partition" true (Jeffrey.is_partition t cells);
  let acells = Jeffrey.action_partition t ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  check_bool "action cells partition" true (Jeffrey.is_partition t acells);
  (* Alice at time 2 in go=1 runs: heard yes/none/no; in go=0 runs:
     heard no/none. Five positive cells, no dead cell (uniform depth). *)
  check_int "five lstate cells" 5 (List.length cells);
  check_bool "not a partition detector" false
    (Jeffrey.is_partition t [ Tree.all_runs t; Tree.all_runs t ])

let test_jeffrey_total_probability () =
  let t = fs () in
  let fireb = Action.runs_performing t ~agent:Firing_squad.bob ~act:Firing_squad.fire in
  let cells = Jeffrey.lstate_partition t ~agent:Firing_squad.alice ~time:2 in
  check_q "law of total probability" (Tree.measure t fireb)
    (Jeffrey.total_probability t ~cells ~event:fireb);
  (* Generalized version conditioned on R_alpha — the exact identity
     under Theorem 6.2's proof. *)
  let r_alpha = Action.runs_performing t ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  let acells = Jeffrey.action_partition t ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  check_q "generalized identity"
    (Tree.cond t fireb ~given:r_alpha)
    (Jeffrey.conditional_total_probability t ~cells:acells ~event:fireb ~given:r_alpha);
  Alcotest.check_raises "partition check"
    (Invalid_argument "Jeffrey.total_probability: cells do not partition the runs")
    (fun () -> ignore (Jeffrey.total_probability t ~cells:[ fireb ] ~event:fireb))

let prop_jeffrey_random =
  QCheck.Test.make ~count:100 ~name:"total probability on random systems"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let t = Gen.tree seed in
      let fact = Gen.run_fact t ~seed in
      let event = Fact.event_of_run_fact fact in
      List.for_all
        (fun time ->
          let cells = Jeffrey.lstate_partition t ~agent:0 ~time in
          Q.equal (Tree.measure t event) (Jeffrey.total_probability t ~cells ~event))
        [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Policy improvement (Section 8)                                      *)
(* ------------------------------------------------------------------ *)

let test_policy_reproduces_section8 () =
  (* Restricting the ORIGINAL FS protocol to firing states with belief
     >= 1/2 drops exactly the 'No' state and yields the improved
     protocol's 990/991 — the paper's Section 8 number, derived rather
     than re-implemented. *)
  let t = fs () in
  let fireb = Firing_squad.fire_b_fact t in
  let r =
    Policy.restrict fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire ~min_belief:Q.half
  in
  check_int "one state dropped" 1 (List.length r.Policy.dropped);
  Alcotest.(check string) "the 'No' state" "go1_heard_no"
    (Tree.lkey_label (List.hd r.Policy.dropped));
  check_q "original µ" (q 99 100) r.Policy.original_mu;
  check_bool "restricted µ = 990/991" true (r.Policy.restricted_mu = Some (q 990 991));
  check_q "action measure shrinks" (Q.mul Q.half (q 991 1000))
    r.Policy.restricted_action_measure

let test_policy_frontier () =
  let t = fs () in
  let fireb = Firing_squad.fire_b_fact t in
  let frontier = Policy.frontier fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  (* Belief levels when firing: 0 ('No'), 99/100 (nothing), 1 ('Yes'). *)
  check_int "three levels" 3 (List.length frontier);
  let mus = List.map (fun (_, mu, _) -> mu) frontier in
  check_bool "µ nondecreasing along frontier" true
    (List.for_all2 Q.leq
       (List.filteri (fun i _ -> i < List.length mus - 1) mus)
       (List.tl mus));
  (* Keeping only the certainty state gives µ = 1 = best. *)
  let _, best_mu, _ = List.nth frontier 2 in
  check_q "top of frontier" Q.one best_mu;
  check_q "best matches max belief" Q.one
    (Policy.best fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire)

let test_policy_drop_all () =
  let t = fs () in
  let never = Fact.ff t in
  let r =
    Policy.restrict never ~agent:Firing_squad.alice ~act:Firing_squad.fire ~min_belief:Q.half
  in
  check_bool "nothing kept" true (r.Policy.kept = []);
  check_bool "no restricted µ" true (r.Policy.restricted_mu = None);
  check_q "zero action measure" Q.zero r.Policy.restricted_action_measure

let prop_policy_improves =
  QCheck.Test.make ~count:150 ~name:"restricting at µ never lowers µ (random systems)"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tree = Gen.tree seed in
      match Gen.pick_proper_action tree ~seed with
      | None -> QCheck.assume_fail ()
      | Some (agent, act) ->
        let fact = Gen.past_based_fact tree ~seed in
        let mu = Constr.mu_given_action fact ~agent ~act in
        let r = Policy.restrict fact ~agent ~act ~min_belief:mu in
        (match r.Policy.restricted_mu with
         | None -> true (* everything dropped: vacuous *)
         | Some mu' -> Q.geq mu' mu))

let prop_policy_bounded_by_best =
  QCheck.Test.make ~count:150 ~name:"frontier µ bounded by best belief"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tree = Gen.tree seed in
      match Gen.pick_proper_action tree ~seed with
      | None -> QCheck.assume_fail ()
      | Some (agent, act) ->
        let fact = Gen.past_based_fact tree ~seed in
        let best = Policy.best fact ~agent ~act in
        List.for_all (fun (_, mu, _) -> Q.leq mu best) (Policy.frontier fact ~agent ~act))

(* ------------------------------------------------------------------ *)
(* The executable appendix                                             *)
(* ------------------------------------------------------------------ *)

let test_appendix_lemma_a1 () =
  let t = fs () in
  let fireb = Firing_squad.fire_b_fact t in
  List.iter
    (fun key ->
      let r = Appendix.lemma_a1 fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire key in
      check_bool "a" true r.Appendix.a;
      check_bool "b" true r.Appendix.b;
      check_bool "c" true r.Appendix.c;
      check_bool "d" true r.Appendix.d;
      check_bool "e" true r.Appendix.e)
    (Action.performing_lstates t ~agent:Firing_squad.alice ~act:Firing_squad.fire)

let test_appendix_lemma_b1 () =
  let t = fs () in
  let fireb = Firing_squad.fire_b_fact t in
  let rows = Appendix.lemma_b1 fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  check_int "three rows" 3 (List.length rows);
  List.iter
    (fun row ->
      check_bool
        (Printf.sprintf "B.1 at %s" (Tree.lkey_label row.Appendix.lstate))
        true row.Appendix.equal)
    rows

let test_appendix_thm62_chain () =
  let t = fs () in
  let fireb = Firing_squad.fire_b_fact t in
  let d = Appendix.theorem62 fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  check_bool "independent" true d.Appendix.independent;
  check_bool "chain (10)-(18)" true d.Appendix.chain_upto_18;
  check_bool "bridge (18)=(19)" true d.Appendix.bridge;
  check_bool "chain (19)-(23)" true d.Appendix.chain_19_on;
  check_q "(10) is the expectation" (q 99 100) d.Appendix.eq10;
  check_q "(23) is µ" (q 99 100) d.Appendix.eq23

let test_appendix_thm62_bridge_breaks () =
  (* Figure 1 with ϕ = does(α): the chain identities (10)-(18) and
     (19)-(23) hold unconditionally, and the failure of Theorem 6.2 is
     localized at the bridge step that uses Definition 4.1. *)
  let t1 = Pak_systems.Figure_one.tree () in
  let phi = Pak_systems.Figure_one.phi t1 in
  let d =
    Appendix.theorem62 phi ~agent:Pak_systems.Figure_one.agent
      ~act:Pak_systems.Figure_one.alpha
  in
  check_bool "not independent" false d.Appendix.independent;
  check_bool "chain (10)-(18) still holds" true d.Appendix.chain_upto_18;
  check_bool "chain (19)-(23) still holds" true d.Appendix.chain_19_on;
  check_bool "bridge breaks" false d.Appendix.bridge;
  check_q "(10) = E = 1/2" Q.half d.Appendix.eq10;
  check_q "(23) = µ = 1" Q.one d.Appendix.eq23

let prop_appendix_random =
  QCheck.Test.make ~count:80 ~name:"Appendix chains on random systems"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tree = Gen.tree seed in
      match Gen.pick_proper_action tree ~seed with
      | None -> QCheck.assume_fail ()
      | Some (agent, act) ->
        let fact = Gen.transient_fact tree ~seed in
        let d = Appendix.theorem62 fact ~agent ~act in
        (* The two sub-chains are unconditional; the bridge must hold
           whenever Definition 4.1 does. *)
        d.Appendix.chain_upto_18 && d.Appendix.chain_19_on
        && ((not d.Appendix.independent) || d.Appendix.bridge)
        && List.for_all
             (fun key ->
               let r = Appendix.lemma_a1 fact ~agent ~act key in
               r.Appendix.a && r.Appendix.b && r.Appendix.c && r.Appendix.d && r.Appendix.e)
             (Action.performing_lstates tree ~agent ~act))

(* ------------------------------------------------------------------ *)
(* Reference engine agreement                                          *)
(* ------------------------------------------------------------------ *)

let test_reference_fs () =
  let t = fs () in
  let fireb = Firing_squad.fire_b_fact t in
  check_q "µ agrees" (q 99 100)
    (Reference.mu_phi_at_alpha_given_alpha fireb ~agent:Firing_squad.alice
       ~act:Firing_squad.fire);
  check_q "E agrees" (q 99 100)
    (Reference.expected_beta_at_alpha fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire);
  check_bool "properness agrees" true
    (Reference.is_proper t ~agent:Firing_squad.alice ~act:Firing_squad.fire);
  check_bool "independence agrees" true
    (Reference.local_state_independent fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire)

let prop_reference_beta =
  QCheck.Test.make ~count:40 ~name:"reference beta agrees with Belief.degree"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tree = Gen.tree seed in
      QCheck.assume (Tree.n_runs tree <= 60);
      let fact = Gen.transient_fact tree ~seed in
      Tree.fold_points tree ~init:true ~f:(fun acc ~run ~time ->
          acc
          && Q.equal
               (Belief.degree fact ~agent:0 ~run ~time)
               (Reference.beta fact ~agent:0 ~run ~time)))

let prop_reference_engine =
  QCheck.Test.make ~count:40 ~name:"reference engine agrees on µ, E, properness, independence"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tree = Gen.tree seed in
      QCheck.assume (Tree.n_runs tree <= 60);
      match Gen.pick_proper_action tree ~seed with
      | None -> QCheck.assume_fail ()
      | Some (agent, act) ->
        let fact = Gen.transient_fact tree ~seed in
        Reference.is_proper tree ~agent ~act = Action.is_proper tree ~agent ~act
        && Q.equal
             (Reference.mu_phi_at_alpha_given_alpha fact ~agent ~act)
             (Constr.mu_given_action fact ~agent ~act)
        && Q.equal
             (Reference.expected_beta_at_alpha fact ~agent ~act)
             (Belief.expected_at_action fact ~agent ~act)
        && Reference.local_state_independent fact ~agent ~act
           = Independence.holds fact ~agent ~act)

(* Tree.measure and Tree.cond against Reference's own Q fold over
   run_measure: the full and empty events plus four seeded random
   ones, every ordered pair for cond. An empty condition must raise in
   both. *)
let measure_agrees_with_reference tree ~seed =
  let n = Tree.n_runs tree in
  let rng = Random.State.make [| seed |] in
  let random_event () =
    let density = Random.State.int rng 101 in
    Bitset.init n (fun _ -> Random.State.int rng 100 < density)
  in
  let events =
    Tree.all_runs tree :: Tree.empty_event tree :: List.init 4 (fun _ -> random_event ())
  in
  List.for_all
    (fun a ->
      Q.equal (Tree.measure tree a) (Reference.mu tree (Bitset.mem a))
      && List.for_all
           (fun b ->
             match Tree.cond tree a ~given:b with
             | m -> Q.equal m (Reference.mu_cond tree (Bitset.mem a) ~given:(Bitset.mem b))
             | exception Pak_guard.Error.Division_by_zero _ -> Bitset.is_empty b)
           events)
    events

let prop_reference_measure =
  QCheck.Test.make ~count:24 ~name:"Tree.measure/cond agree with Reference on Gen depth 2-5"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let params = { Gen.default_params with depth = 2 + (seed mod 4) } in
      measure_agrees_with_reference (Gen.tree ~params seed) ~seed)

let test_reference_measure_ladders () =
  let ladders =
    List.map (fun rounds -> (Printf.sprintf "judge %d" rounds, Judge.tree ~rounds ~convict_at:2 ()))
      [ 7; 8; 9 ]
    @ List.map
        (fun rounds ->
          (Printf.sprintf "coordinated-attack %d" rounds, Coordinated_attack.tree ~rounds ()))
        [ 4; 5 ]
  in
  List.iter
    (fun (name, tree) ->
      check_bool (name ^ " has integer weights") true (Tree.weight_denominator tree <> None);
      check_bool (name ^ " agrees") true (measure_agrees_with_reference tree ~seed:1))
    ladders

(* Initial states 1/p1, 1/p2, 1/p3 and the rest, for primes near 10^6:
   the lcm p1·p2·p3 ≈ 10^18 is just under 2^61, so the integer weights
   are used. Splitting the 1/p1 state by 1/p4 keeps every run
   denominator native but pushes the lcm to ≈ 10^24, which forces the
   Q fallback. *)
let prime_tree ~split =
  let p1 = 1000003 and p2 = 1000033 and p3 = 1000037 and p4 = 1000039 in
  let b = Tree.Builder.create ~n_agents:1 in
  let state label = Gstate.make ~env:"" ~locals:[ label ] in
  let inv p = Q.of_ints 1 p in
  let s1 = Tree.Builder.add_initial b ~prob:(inv p1) (state "a") in
  ignore (Tree.Builder.add_initial b ~prob:(inv p2) (state "b"));
  ignore (Tree.Builder.add_initial b ~prob:(inv p3) (state "a"));
  let rest = Q.one_minus (Q.sum [ inv p1; inv p2; inv p3 ]) in
  ignore (Tree.Builder.add_initial b ~prob:rest (state "c"));
  if split then begin
    let child prob act label =
      ignore (Tree.Builder.add_child b ~parent:s1 ~prob ~acts:[| ""; act |] (state label))
    in
    child (inv p4) "x" "d";
    child (Q.one_minus (inv p4)) "y" "e"
  end;
  (Tree.Builder.finalize b, p1 * p2 * p3)

let test_reference_measure_fallback () =
  let tree, d = prime_tree ~split:false in
  Alcotest.(check (option int)) "lcm just under 2^61" (Some d) (Tree.weight_denominator tree);
  check_bool "integer path agrees" true (measure_agrees_with_reference tree ~seed:2);
  let tree, _ = prime_tree ~split:true in
  Alcotest.(check (option int)) "lcm overflows" None (Tree.weight_denominator tree);
  check_bool "fallback agrees" true (measure_agrees_with_reference tree ~seed:3)

(* ------------------------------------------------------------------ *)
(* Monderer–Samet p-agreement                                          *)
(* ------------------------------------------------------------------ *)

let test_p_agreement_full_information () =
  (* Full-information flat system: posteriors are common knowledge,
     hence common p-belief for every p, with spread 0. *)
  let t =
    Monderer_samet.flat [ ([ "x0"; "y0" ], Q.half); ([ "x1"; "y1" ], Q.half) ]
  in
  let phi = Fact.of_state_pred t (fun g -> Gstate.local g 0 = "x1") in
  let reports = Aumann.p_agreement phi ~group:[ 0; 1 ] ~p:(q 9 10) in
  check_int "premise everywhere" 2 (List.length reports);
  List.iter
    (fun r ->
      check_q "spread 0" Q.zero r.Aumann.spread;
      check_bool "within bound" true r.Aumann.within_bound)
    reports

let test_p_agreement_guard () =
  let t = fs () in
  Alcotest.check_raises "p range"
    (Invalid_argument "Aumann.p_agreement: p must lie in (1/2, 1]") (fun () ->
      ignore (Aumann.p_agreement (Fact.tt t) ~group:[ 0; 1 ] ~p:(q 1 4)))

let prop_p_agreement_random =
  QCheck.Test.make ~count:40 ~name:"MS p-agreement bound on random systems"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let tree = Gen.tree seed in
      QCheck.assume (Tree.n_runs tree <= 120);
      let fact = Gen.past_based_fact tree ~seed in
      List.for_all
        (fun (pn, pd) ->
          Aumann.p_disagreements fact ~group:[ 0; 1 ] ~p:(q pn pd) = [])
        [ (3, 4); (9, 10); (1, 1) ])

(* ------------------------------------------------------------------ *)
(* Belief distribution at action                                       *)
(* ------------------------------------------------------------------ *)

let test_belief_distribution () =
  let t = fs () in
  let fireb = Firing_squad.fire_b_fact t in
  let dist = Belief.distribution_at_action fireb ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  check_int "three information states" 3 (List.length dist);
  check_q "weights sum to 1" Q.one (Q.sum (List.map (fun (_, w, _) -> w) dist));
  (* Σ w·β reconstructs Definition 6.1's expectation. *)
  check_q "expectation reconstructed" (q 99 100)
    (Q.sum (List.map (fun (_, w, b) -> Q.mul w b) dist));
  let weight_of label =
    List.find_map
      (fun (k, w, _) -> if Tree.lkey_label k = label then Some w else None)
      dist
    |> Option.get
  in
  check_q "P(heard yes | fire)" (q 891 1000) (weight_of "go1_heard_yes");
  check_q "P(heard nothing | fire)" (q 1 10) (weight_of "go1_heard_none");
  check_q "P(heard no | fire)" (q 9 1000) (weight_of "go1_heard_no")

(* ------------------------------------------------------------------ *)
(* Aumann's agreement theorem                                          *)
(* ------------------------------------------------------------------ *)

let test_aumann_trivial_fact () =
  let t = fs () in
  (* Beliefs in a valid fact are 1 for everyone, which is trivially
     common knowledge: the premise holds at every point and agreement
     follows. *)
  let reports = Aumann.check (Fact.tt t) ~group:[ 0; 1 ] in
  check_int "premise everywhere" (Tree.n_points t) (List.length reports);
  check_bool "all agree" true (List.for_all (fun r -> r.Aumann.equal) reports)

let test_aumann_premise_fails () =
  (* In T̂, agent 1 knows the bit while agent 0's prior is 3/4; the
     belief values are not common knowledge at time 0, so no agreement
     claim is made there. *)
  let b = Tree.Builder.create ~n_agents:2 in
  let s0 = Tree.Builder.add_initial b ~prob:(q 1 4) (Gstate.of_labels "e" [ "i0"; "bit0" ]) in
  let s1 = Tree.Builder.add_initial b ~prob:(q 3 4) (Gstate.of_labels "e" [ "i0"; "bit1" ]) in
  ignore
    (Tree.Builder.add_child b ~parent:s0 ~prob:Q.one ~acts:[| "e"; "n"; "n" |]
       (Gstate.of_labels "e" [ "i1"; "bit0" ]));
  ignore
    (Tree.Builder.add_child b ~parent:s1 ~prob:Q.one ~acts:[| "e"; "n"; "n" |]
       (Gstate.of_labels "e" [ "i1"; "bit1" ]));
  let t = Tree.Builder.finalize b in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  check_bool "no CK of beliefs at t0" false
    (Aumann.common_knowledge_of_beliefs bit1 ~group:[ 0; 1 ] ~run:0 ~time:0);
  check_bool "check_point none" true
    (Aumann.check_point bit1 ~group:[ 0; 1 ] ~run:0 ~time:0 = None);
  (* The theorem is never violated. *)
  check_bool "no disagreement" true (Aumann.disagreement_points bit1 ~group:[ 0; 1 ] = [])

let test_aumann_full_information () =
  (* A flat system where both agents' labels reveal the world: beliefs
     are 0/1, commonly known, and equal at every point. *)
  let t =
    Monderer_samet.flat
      [ ([ "x0"; "y0" ], Q.half); ([ "x1"; "y1" ], q 1 4); ([ "x2"; "y2" ], q 1 4) ]
  in
  let phi = Fact.of_state_pred t (fun g -> Gstate.local g 0 = "x1") in
  let reports = Aumann.check phi ~group:[ 0; 1 ] in
  check_int "premise at all three worlds" 3 (List.length reports);
  check_bool "agreement everywhere" true (List.for_all (fun r -> r.Aumann.equal) reports)

let prop_aumann_random =
  QCheck.Test.make ~count:60 ~name:"no agreeing to disagree on random systems"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let t = Gen.tree seed in
      let fact = Gen.past_based_fact t ~seed in
      Aumann.disagreement_points fact ~group:[ 0; 1 ] = []
      && Aumann.disagreement_points (Fact.tt t) ~group:[ 0; 1 ] = [])

(* ------------------------------------------------------------------ *)
(* Kripke extraction                                                   *)
(* ------------------------------------------------------------------ *)

let test_kripke_structure () =
  let t = fs () in
  let k = Kripke.of_tree t in
  check_int "worlds = points" (Tree.n_points t) (Kripke.n_worlds k);
  check_bool "S5 frame for Alice" true (Kripke.is_equivalence k ~agent:0);
  check_bool "S5 frame for Bob" true (Kripke.is_equivalence k ~agent:1);
  check_bool "synchronous classes" true (Kripke.synchronous k);
  (* point <-> world round trip *)
  let w = Kripke.point_world k ~run:3 ~time:1 in
  check_bool "round trip" true (Kripke.world_point k w = (3, 1));
  check_q "world measure" (Tree.run_measure t 3) (Kripke.world_measure k w)

let test_kripke_agrees_with_layers () =
  let t = fs () in
  let k = Kripke.of_tree t in
  let fireb = Firing_squad.fire_b_fact t in
  let ok_knows = ref true and ok_post = ref true in
  Tree.iter_points t (fun ~run ~time ->
      let w = Kripke.point_world k ~run ~time in
      for agent = 0 to 1 do
        let expected_post = Belief.degree fireb ~agent ~run ~time in
        if not (Q.equal expected_post (Kripke.posterior k ~agent fireb w)) then
          ok_post := false;
        let layer_knows =
          Bitset.for_all
            (fun run' -> Fact.holds fireb ~run:run' ~time)
            (Tree.lstate_runs t (Tree.lkey t ~agent ~run ~time))
        in
        if layer_knows <> Kripke.knows k ~agent fireb w then ok_knows := false
      done);
  check_bool "posterior agrees with Belief.degree" true !ok_post;
  check_bool "knows agrees with partition" true !ok_knows;
  check_bool "dot mentions worlds" true
    (String.length (Kripke.to_dot k ~agent:0) > 100)

let prop_kripke_s5_random =
  QCheck.Test.make ~count:80 ~name:"Kripke frames of random systems are synchronous S5"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let t = Gen.tree seed in
      let k = Kripke.of_tree t in
      Kripke.is_equivalence k ~agent:0
      && Kripke.is_equivalence k ~agent:1
      && Kripke.synchronous k
      && List.for_all
           (fun cls -> cls <> [])
           (Kripke.equivalence_classes k ~agent:0))

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

let test_simulate_deterministic () =
  let t = fs () in
  let a = Simulate.sample_runs t ~samples:50 ~seed:11 in
  let b = Simulate.sample_runs t ~samples:50 ~seed:11 in
  check_bool "same seed, same samples" true (a = b);
  let c = Simulate.sample_runs t ~samples:50 ~seed:12 in
  check_bool "different seed differs" true (a <> c);
  check_int "sample count" 50 (Array.length a);
  Array.iter (fun r -> check_bool "valid run index" true (r >= 0 && r < Tree.n_runs t)) a

let test_simulate_converges () =
  let t = fs () in
  let ev = Action.runs_performing t ~agent:Firing_squad.bob ~act:Firing_squad.fire in
  let exact = Tree.measure t ev in
  let samples = 20_000 in
  let est = Simulate.estimate t ~event:ev ~samples ~seed:7 in
  let err = abs_float (Q.to_float est -. Q.to_float exact) in
  let se = Simulate.standard_error ~p:exact ~samples in
  check_bool
    (Printf.sprintf "within 5 standard errors (err %.5f, se %.5f)" err se)
    true (err < (5. *. se) +. 0.001)

let test_simulate_conditional () =
  let t = fs () in
  let fire_a = Action.runs_performing t ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  let both = Fact.at_action (Firing_squad.phi_both t) ~agent:Firing_squad.alice ~act:Firing_squad.fire in
  let exact = Tree.cond t both ~given:fire_a in
  (match Simulate.estimate_cond t ~event:both ~given:fire_a ~samples:20_000 ~seed:3 with
   | None -> Alcotest.fail "no conditional samples"
   | Some est ->
     let err = abs_float (Q.to_float est -. Q.to_float exact) in
     check_bool (Printf.sprintf "conditional converges (err %.5f)" err) true (err < 0.02));
  (* Impossible conditioning yields None. *)
  check_bool "empty given" true
    (Simulate.estimate_cond t ~event:both ~given:(Tree.empty_event t) ~samples:100 ~seed:1
     = None)

let prop_simulate_random_trees =
  QCheck.Test.make ~count:20 ~name:"simulation matches measure on random systems"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let t = Gen.tree seed in
      let fact = Gen.run_fact t ~seed in
      let ev = Fact.event_of_run_fact fact in
      let exact = Tree.measure t ev in
      let samples = 4_000 in
      let est = Simulate.estimate t ~event:ev ~samples ~seed in
      abs_float (Q.to_float est -. Q.to_float exact)
      < (5. *. Simulate.standard_error ~p:exact ~samples) +. 0.005)

(* [bits < threshold acc] must agree with the rational comparison the
   sampler used to make, on both sides of every threshold. *)
let test_simulate_thresholds () =
  let scale = 1 lsl 30 in
  let near k = [ q k scale; q ((k lsl 10) - 1) (1 lsl 40); q ((k lsl 10) + 1) (1 lsl 40) ] in
  let accs =
    List.concat_map near [ 1; 2; 12_345; 1 lsl 29; scale - 1 ]
    @ [ q 1 3; q 2 3; q ((1 lsl 31) - 1) (1 lsl 31); Q.one;
        (* judge 8's µ(guilty@convict | convict) *)
        q 99_999_927 118_689_454 ]
  in
  List.iter
    (fun acc ->
      let thr = Simulate.threshold acc in
      check_bool "threshold in [0, 2^30]" true (thr >= 0 && thr <= scale);
      for bits = max 0 (thr - 2) to min (scale - 1) (thr + 1) do
        check_bool
          (Printf.sprintf "bits %d vs %s" bits (Q.to_string acc))
          (Q.lt (q bits scale) acc) (bits < thr)
      done)
    accs

(* Edge probabilities that are not dyadic (1/3, 1/7), dyadic (k/2^m),
   and one cumulative probability a hair either side of k/2^30. *)
let fractions_tree () =
  let b = Tree.Builder.create ~n_agents:1 in
  let st l = Gstate.make ~env:"e" ~locals:[ l ] in
  let kids parent probs =
    List.mapi
      (fun i p ->
        Tree.Builder.add_child b ~parent ~prob:p ~acts:[| "t" ^ string_of_int i; "a" |]
          (st (Printf.sprintf "%d_%d" parent i)))
      probs
  in
  let i0 = Tree.Builder.add_initial b ~prob:(q 1 7) (st "x")
  and i1 = Tree.Builder.add_initial b ~prob:(q 2 7) (st "y")
  and i2 = Tree.Builder.add_initial b ~prob:(q 4 7) (st "z") in
  let a = kids i0 [ q 1 3; q 1 3; q 1 3 ] in
  ignore (kids i1 [ q 3 8; q 5 8 ]);
  let k = (12_345 lsl 10) + 1 in
  ignore (kids i2 [ q k (1 lsl 40); q ((1 lsl 40) - k) (1 lsl 40) ]);
  ignore (kids (List.hd a) [ q 1 1024; q 511 1024; q 1 2 ]);
  ignore (kids (List.nth a 2) [ q 2 7; q 5 7 ]);
  Tree.Builder.finalize b

(* Three agents stay at depth 3 or less, where a tree already has
   thousands of nodes. *)
let simulate_trees_arb =
  let trees (seed, depth, n_agents, arbitrary) =
    let depth = if n_agents = 3 then min depth 3 else depth in
    let params = { Gen.default_params with Gen.depth; n_agents } in
    if arbitrary then Gen.tree_arbitrary ~params seed else Gen.tree ~params seed
  in
  QCheck.(map trees (quad (int_range 0 1_000_000) (int_range 0 5) (int_range 1 3) bool))

(* [Simulate] against the Q walk it replaced: the same runs, and the
   same sequential and block-parallel estimates, with and without a
   pool, for several seeds. *)
let same_as_oracle pool t =
  let n = Tree.n_runs t in
  let event = Bitset.of_list n (List.filter (fun r -> r mod 3 = 0) (List.init n Fun.id))
  and given = Bitset.of_list n (List.filter (fun r -> r mod 2 = 1) (List.init n Fun.id)) in
  List.for_all
    (fun seed ->
      Simulate.sample_runs t ~samples:200 ~seed = Simulate_oracle.sample_runs t ~samples:200 ~seed
      && Q.equal
           (Simulate.estimate t ~event ~samples:200 ~seed)
           (Simulate_oracle.estimate t ~event ~samples:200 ~seed)
      && Simulate.estimate_cond t ~event ~given ~samples:200 ~seed
         = Simulate_oracle.estimate_cond t ~event ~given ~samples:200 ~seed
      &&
      let par = Simulate_oracle.estimate_cond_par t ~event ~given ~samples:1100 ~seed in
      Simulate.estimate_cond_par t ~event ~given ~samples:1100 ~seed = par
      && Simulate.estimate_cond_par ~pool t ~event ~given ~samples:1100 ~seed = par)
    [ 1; 7; 424_242 ]

let test_simulate_oracle () =
  Pak_par.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (name, t) -> check_bool name true (same_as_oracle pool t))
        [ ("fractions", fractions_tree ());
          ("firing squad", fs ());
          ("judge 4", Judge.tree ~rounds:4 ~convict_at:2 ())
        ];
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:60 ~name:"Simulate matches the Q walk" simulate_trees_arb
           (same_as_oracle pool)))

(* [pak simulate]'s estimates, as computed by the Q walk. *)
let test_simulate_pinned () =
  let pinned name tree fact ~agent ~act expected =
    let given = Action.runs_performing tree ~agent ~act in
    let event = Fact.at_action fact ~agent ~act in
    let est pool = Simulate.estimate_cond_par ?pool tree ~event ~given ~samples:100_000 ~seed:1 in
    Alcotest.(check (option string)) name (Some expected) (Option.map Q.to_string (est None));
    Pak_par.Pool.with_pool ~jobs:2 (fun pool ->
        Alcotest.(check (option string)) (name ^ " -j 2") (Some expected)
          (Option.map Q.to_string (est (Some pool))))
  in
  let t = fs () in
  pinned "firing-squad" t (Firing_squad.phi_both t) ~agent:Firing_squad.alice
    ~act:Firing_squad.fire "49453/49964";
  let t = Judge.tree ~rounds:4 ~convict_at:2 () in
  pinned "judge --rounds 4" t (Judge.guilty_fact t) ~agent:Judge.judge ~act:Judge.convict
    "49933/52519"

(* After the table is built, a walk allocates nothing: twice the samples
   cost no more words. *)
let test_simulate_no_alloc () =
  let t = Judge.tree ~rounds:4 ~convict_at:2 () in
  let event = Tree.all_runs t in
  let words samples =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Simulate.estimate t ~event ~samples ~seed:5));
    Gc.minor_words () -. w0
  in
  let w1 = words 10_000 and w2 = words 20_000 in
  check_bool (Printf.sprintf "10k more samples cost %.0f words" (w2 -. w1)) true (w2 -. w1 < 100.)

(* ------------------------------------------------------------------ *)
(* Tree serialization                                                  *)
(* ------------------------------------------------------------------ *)

let trees_observationally_equal t1 t2 =
  Tree.n_agents t1 = Tree.n_agents t2
  && Tree.n_nodes t1 = Tree.n_nodes t2
  && Tree.n_runs t1 = Tree.n_runs t2
  && List.for_all
       (fun run ->
         Tree.run_length t1 run = Tree.run_length t2 run
         && Q.equal (Tree.run_measure t1 run) (Tree.run_measure t2 run)
         && List.for_all
              (fun time ->
                Gstate.equal
                  (Tree.node_state t1 (Tree.run_node t1 ~run ~time))
                  (Tree.node_state t2 (Tree.run_node t2 ~run ~time))
                && List.for_all
                     (fun agent ->
                       Tree.action_at t1 ~agent ~run ~time
                       = Tree.action_at t2 ~agent ~run ~time)
                     (List.init (Tree.n_agents t1) Fun.id))
              (List.init (Tree.run_length t1 run) Fun.id))
       (List.init (Tree.n_runs t1) Fun.id)

let test_tree_io_roundtrip () =
  let t = fs () in
  let t2 = Tree_io.of_string (Tree_io.to_string t) in
  check_bool "FS round trip" true (trees_observationally_equal t t2);
  (* Labels with quotes and backslashes survive. *)
  let b = Tree.Builder.create ~n_agents:1 in
  ignore (Tree.Builder.add_initial b ~prob:Q.one (Gstate.of_labels "e\"x\\y" [ "l \"quoted\"" ]));
  let t3 = Tree.Builder.finalize b in
  let t4 = Tree_io.of_string (Tree_io.to_string t3) in
  check_bool "escapes round trip" true (trees_observationally_equal t3 t4)

let test_tree_io_errors () =
  let fails s =
    match Tree_io.of_string s with
    | exception Tree_io.Parse_error _ -> true
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "garbage" true (fails "nonsense");
  check_bool "unterminated" true (fails "(pps (agents 1)");
  check_bool "bad prob" true (fails "(pps (agents 1) (node (parent -1) (prob x) (acts) (env \"e\") (locals \"a\")))");
  check_bool "missing fields" true (fails "(pps (agents 1) (node (parent -1)))");
  check_bool "invariant violation (mass)" true
    (fails "(pps (agents 1) (node (parent -1) (prob 1/2) (acts) (env \"e\") (locals \"a\")))")

(* Every rejection keeps its kind and exact message, and a lexical error
   anywhere in the input beats an earlier structural one; interpretation
   errors come only after a clean read. *)
let test_tree_io_reader_errors () =
  let node = "(node (parent -1) (prob 1) (acts) (env \"e\") (locals \"a\"))" in
  let doc body = "(pps (agents 1) " ^ body ^ ")" in
  let cases =
    [ ("", "parse", "unexpected end of input");
      ("   \n", "parse", "unexpected end of input");
      ("nonsense", "parse", "expected (pps (agents n) (node ...) ...)");
      ("(pps (agents 1)", "parse", "unterminated '('");
      (")", "parse", "unexpected ')'");
      (")\"abc", "parse", "unterminated string");
      ("(a) b", "parse", "trailing input after document");
      ("(a))", "parse", "unexpected ')'");
      ("(a) ) \"x", "parse", "unterminated string");
      ("\"x\\", "parse", "dangling escape in string");
      ("(pps \"a\\", "parse", "dangling escape in string");
      ("\"ab\\\"", "parse", "unterminated string");
      (String.make 1001 '(' ^ "\"abc", "parse", "unterminated string");
      (String.make 1001 '(', "parse", "nesting deeper than 1000");
      (String.make 1000 '(' ^ String.make 1000 ')', "parse",
       "expected (pps (agents n) (node ...) ...)");
      (doc node ^ " (extra)", "parse", "trailing input after document");
      (doc node ^ " \"tail", "parse", "unterminated string");
      ("(pps (agents x) " ^ node ^ ")", "parse", "agents: not an integer");
      ("(pps (agents 1 2) " ^ node ^ ")", "parse", "(agents n) expected");
      (doc "(node (parent -1) (prob x) (acts) (env \"e\") (locals \"a\"))", "parse",
       "prob: not a rational");
      (doc "(node (parent -1) (prob 1/0) (acts) (env \"e\") (locals \"a\"))", "parse",
       "prob: not a rational");
      (doc "(node (parent -1) (prob 1/2) (acts) (env \"e\") (locals \"a\"))",
       "invalid-system", "Tree.finalize: initial probabilities sum to 1/2, not 1");
      (doc "(node (parent -1))", "parse", "node: expected (parent)(prob)(acts)(env)(locals)");
      (doc "(node (parent -1) (prob 1) (acts) (env e) (locals \"a\"))", "parse",
       "env: not a string");
      (doc "(leaf)", "parse", "expected (node ...)")
    ]
  in
  List.iter
    (fun (input, kind, msg) ->
      let name = String.escaped (if String.length input > 40 then String.sub input 0 40 else input) in
      match Tree_io.of_string_result input with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error e ->
        Alcotest.(check (pair string string))
          name (kind, msg)
          (Pak_guard.Error.kind_name e.Pak_guard.Error.kind, e.Pak_guard.Error.msg))
    cases;
  (* Escapes decode, and an unescaped label is read as is. *)
  match
    Tree_io.of_string_result
      (doc "(node (parent -1) (prob 1) (acts) (env \"e\\\"q\") (locals \"a\\\\b\"))")
  with
  | Ok t ->
    let st = Tree.node_state t 0 in
    Alcotest.(check string) "escaped env" "e\"q" st.Gstate.env;
    Alcotest.(check string) "escaped local" "a\\b" (Gstate.local st 0)
  | Error e -> Alcotest.failf "escaped labels rejected: %s" (Pak_guard.Error.to_string e)

(* The reader against [Tree_io_oracle], the reader it replaced: the same
   tree (compared as printed bytes) or the same [Error.t]. *)
let read_new s = Result.map Tree_io.to_string (Tree_io.of_string_result s)
let read_old s = Result.map Tree_io.to_string (Tree_io_oracle.of_string_result s)

let show_read = function
  | Ok doc -> "Ok " ^ String.escaped doc
  | Error e -> "Error " ^ Pak_guard.Error.to_string e

let same_read s =
  let a = read_new s and b = read_old s in
  if a <> b then
    QCheck.Test.fail_reportf "input %S@.reader: %s@.oracle: %s" s (show_read a) (show_read b);
  true

let gen_params depth n_agents = { Gen.default_params with Gen.depth; n_agents }

(* Labels carrying escapes: every label starting with s or a gains a
   quote and a backslash, consistently, so the document still loads. *)
let with_escapes doc =
  let buf = Buffer.create (String.length doc + 64) in
  String.iteri
    (fun i c ->
      Buffer.add_char buf c;
      if c = '"' && i + 1 < String.length doc && (doc.[i + 1] = 's' || doc.[i + 1] = 'a')
         && i > 0 && doc.[i - 1] = ' '
      then Buffer.add_string buf "\\\"\\\\")
    doc;
  Buffer.contents buf

(* Top-level elements of a node line "(node F1 ... F5)": the spans of
   its fields, by paren matching that skips quoted strings. *)
let node_fields line =
  let n = String.length line in
  let fields = ref [] and depth = ref 0 and start = ref 0 and i = ref 0 in
  while !i < n do
    (match line.[!i] with
     | '"' ->
       incr i;
       while !i < n && line.[!i] <> '"' do
         if line.[!i] = '\\' then incr i;
         incr i
       done
     | '(' ->
       if !depth = 1 then start := !i;
       incr depth
     | ')' ->
       decr depth;
       if !depth = 1 then fields := String.sub line !start (!i - !start + 1) :: !fields
     | _ -> ());
    incr i
  done;
  List.rev !fields

let numerals =
  [| "+3"; "0x1f"; "0.5"; "1_0"; "-0"; "007"; "1/0"; "2/4"; "+1/2"; "0b1"; "-1"; "1e3";
     "000000000000000000000000001"; "123456789012345678901234567890/3";
     "1/123456789012345678901234567890"; "4611686018427387904"; "-4611686018427387905";
     "9223372036854775807"; "1/-2"; "/2"; "1/"; "-"; "1//2"; "\0121/2"; "x" |]

(* One random edit of a document: a byte flip, a truncation, an
   inserted structural byte, a node's fields reordered, duplicated,
   dropped or extended, or a numeral replaced. *)
let mutate rng doc =
  let n = String.length doc in
  let pos () = Random.State.int rng (max 1 n) in
  let lines = String.split_on_char '\n' doc in
  let node_edit f =
    let nodes = List.filter (fun l -> String.length l > 7 && String.sub l 0 7 = "  (node") lines in
    if nodes = [] then doc
    else
      let victim = List.nth nodes (Random.State.int rng (List.length nodes)) in
      let fields = Array.of_list (node_fields victim) in
      let edited = "  (node " ^ String.concat " " (f fields) ^ ")" in
      String.concat "\n" (List.map (fun l -> if l == victim then edited else l) lines)
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  match Random.State.int rng 9 with
  | 0 ->
    let i = pos () in
    if n = 0 then doc
    else String.sub doc 0 i ^ String.make 1 (Char.chr (Random.State.int rng 256))
         ^ String.sub doc (i + 1) (n - i - 1)
  | 1 -> String.sub doc 0 (pos ())
  | 2 ->
    let i = pos () in
    String.sub doc 0 i ^ pick [| "("; ")"; "\""; "\\" |] ^ String.sub doc i (n - i)
  | 3 ->
    node_edit (fun fs ->
        let l = Array.to_list fs in
        match l with a :: b :: rest -> b :: a :: rest | l -> l)
  | 4 ->
    node_edit (fun fs ->
        let k = Random.State.int rng (max 1 (Array.length fs)) in
        List.concat (List.mapi (fun i f -> if i = k then [ f; f ] else [ f ]) (Array.to_list fs)))
  | 5 ->
    node_edit (fun fs ->
        let k = Random.State.int rng (max 1 (Array.length fs)) in
        List.filteri (fun i _ -> i <> k) (Array.to_list fs))
  | 6 -> node_edit (fun fs -> Array.to_list fs @ [ pick [| "(extra 1)"; "x"; "\"s\""; "()" |] ])
  | 7 ->
    node_edit (fun fs ->
        Array.to_list
          (Array.map
             (fun f ->
               match String.index_opt f ' ' with
               | Some sp when (String.sub f 0 sp = "(parent" || String.sub f 0 sp = "(prob")
                              && Random.State.bool rng ->
                 String.sub f 0 sp ^ " " ^ pick numerals ^ ")"
               | _ -> f)
             fs))
  | _ ->
    (* A field's value count or kind. *)
    node_edit (fun fs ->
        Array.to_list
          (Array.mapi
             (fun i f ->
               if i <> Random.State.int rng (Array.length fs) then f
               else
                 let inner = String.sub f 1 (String.length f - 2) in
                 pick
                   [| "(" ^ inner ^ " 1)"; "(" ^ inner ^ " \"v\")"; "(" ^ inner ^ " (1))";
                      (match String.index_opt inner ' ' with
                       | Some sp -> "(" ^ String.sub inner 0 sp ^ ")"
                       | None -> f);
                      "\"" ^ inner ^ "\""; "(" ^ String.uppercase_ascii inner ^ ")" |])
             fs))

let doc_of_seed ?(depths = 6) seed =
  let depth = seed mod depths and n_agents = 1 + (seed / 6 mod 3) in
  let params = gen_params depth n_agents in
  let t = if seed / 18 mod 2 = 0 then Gen.tree ~params seed else Gen.tree_arbitrary ~params seed in
  Tree_io.to_string t

let prop_reader_oracle_gen =
  QCheck.Test.make ~count:300 ~name:"reader matches the s-expression oracle on Gen documents"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let doc = doc_of_seed seed in
      same_read doc && same_read (with_escapes doc))

let prop_reader_oracle_mutants =
  QCheck.Test.make ~count:2000 ~name:"reader matches the s-expression oracle on mutated documents"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 4))
    (fun (seed, edits) ->
      let rng = Random.State.make [| seed |] in
      let doc = doc_of_seed ~depths:4 (seed mod 48) in
      let doc = if Random.State.bool rng then with_escapes doc else doc in
      let rec go d k = if k = 0 then d else go (mutate rng d) (k - 1) in
      same_read (go doc edits))

(* [Tree.Builder.finalize] against [Finalize_oracle] on loaded
   documents: a Gen document whose builder calls were edited (a
   probability replaced or two swapped, actions copied from another
   node, a parent moved, a node replaced by the last) is loaded
   through [Tree_io] and must give what the oracle builder gives on
   the same calls — the same tree, or the same [Invalid_system]
   message. *)
(* One edit of a nonempty spec. *)
let mutate_spec rng (spec : Finalize_oracle.spec) =
  let open Finalize_oracle in
  let ops = Array.of_list spec.ops in
  let n = Array.length ops in
  let i = Random.State.int rng n and j = Random.State.int rng n in
  let prob_of = function Initial (p, _) | Child (_, p, _, _) -> p in
  let with_prob p = function
    | Initial (_, s) -> Initial (p, s)
    | Child (parent, _, a, s) -> Child (parent, p, a, s)
  in
  let kept =
    match (Random.State.int rng 5, ops.(i), ops.(j)) with
    | 0, op, _ ->
      let p = Q.of_ints (1 + Random.State.int rng 12) (1 + Random.State.int rng 12) in
      ops.(i) <- with_prob p op;
      n
    | 1, op, op' ->
      ops.(i) <- with_prob (prob_of op') op;
      ops.(j) <- with_prob (prob_of op) op';
      n
    | 2, Child (p, q, _, s), Child (_, _, a, _) ->
      ops.(i) <- Child (p, q, a, s);
      n
    | 3, Child (_, q, a, s), _ ->
      ops.(i) <- Child (Random.State.int rng (n + 1), q, a, s);
      n
    | 4, _, _ ->
      (* node i dropped, the last node in its place *)
      ops.(i) <- ops.(n - 1);
      n - 1
    | _ -> n
  in
  { spec with ops = Array.to_list (Array.sub ops 0 kept) }

let prop_finalize_oracle_documents =
  QCheck.Test.make ~count:400 ~name:"finalize matches the Q-walk oracle on edited documents"
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 3))
    (fun (seed, edits) ->
      let rng = Random.State.make [| seed |] in
      let depth = seed mod 6 and n_agents = 1 + (seed / 6 mod 3) in
      let params = gen_params depth n_agents in
      let t = if seed / 18 mod 2 = 0 then Gen.tree ~params seed else Gen.tree_arbitrary ~params seed in
      let spec = Finalize_oracle.spec_of_tree t in
      if Finalize_oracle.document spec <> Tree_io.to_string t then
        QCheck.Test.fail_reportf "the spec does not render as the tree's document";
      let rec go (s : Finalize_oracle.spec) k =
        if k = 0 || s.ops = [] then s else go (mutate_spec rng s) (k - 1)
      in
      let spec = go spec edits in
      let doc = Finalize_oracle.document spec in
      (match Finalize_oracle.compare_spec spec with
       | None -> ()
       | Some d -> QCheck.Test.fail_reportf "builder on %S: %s" doc d);
      match (Tree_io.of_string_result doc, Finalize_oracle.build_oracle spec) with
      | Ok tree, Ok o -> (
        match Finalize_oracle.difference tree o with
        | None -> true
        | Some d -> QCheck.Test.fail_reportf "loaded %S: %s" doc d)
      | Error e, Error (Invalid_argument msg) ->
        let expected =
          Pak_guard.Error.(with_context "Tree_io.of_string" (make Invalid_system msg))
        in
        Pak_guard.Error.(to_string e = to_string expected)
        || QCheck.Test.fail_reportf "loaded %S: %s, oracle: %s" doc (Pak_guard.Error.to_string e) msg
      | _, Error e ->
        QCheck.Test.fail_reportf "%S: the oracle raised %s" doc (Printexc.to_string e)
      | Error e, Ok _ -> QCheck.Test.fail_reportf "%S rejected: %s" doc (Pak_guard.Error.to_string e))

(* Every one-byte edit of a small document with escapes: the byte
   deleted, doubled, or replaced by each of a few bytes that matter to
   the grammar. *)
let test_reader_one_byte_edits () =
  let doc =
    "(pps (agents 2)\n\
    \  (node (parent -1) (prob 1/2) (acts) (env \"e\\\"0\") (locals \"a\\\\\" \"b\"))\n\
    \  (node (parent -1) (prob 1/2) (acts) (env \"e1\") (locals \"a\" \"b\"))\n\
    \  (node (parent 0) (prob 1) (acts \"x\" \"y\" \"z\") (env \"e\") (locals \"c\" \"d\")))\n"
  in
  (match read_new doc with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "seed document rejected: %s" (Pak_guard.Error.to_string e));
  let n = String.length doc in
  let check s =
    let a = read_new s and b = read_old s in
    if a <> b then
      Alcotest.failf "input %S@.reader: %s@.oracle: %s" s (show_read a) (show_read b)
  in
  for i = 0 to n - 1 do
    let before = String.sub doc 0 i and after = String.sub doc (i + 1) (n - i - 1) in
    check (before ^ after);
    check (before ^ String.make 2 doc.[i] ^ after);
    String.iter
      (fun c -> check (before ^ String.make 1 c ^ after))
      "()\"\\ x0-/"
  done

(* The nesting cap is 1000 lists, at the top level and inside a
   document; a lexical error after the cap still wins. *)
let test_reader_nesting () =
  let nest d = String.make d '(' ^ String.make d ')' in
  let in_doc d = "(pps (agents 1) " ^ nest (d - 1) ^ ")" in
  List.iter
    (fun d ->
      List.iter
        (fun s ->
          let a = read_new s and b = read_old s in
          if a <> b then
            Alcotest.failf "depth %d@.reader: %s@.oracle: %s" d (show_read a) (show_read b))
        [ nest d; in_doc d; nest d ^ " \""; in_doc d ^ " x"; in_doc d ^ " \"\\" ])
    [ 999; 1000; 1001 ];
  match read_new (in_doc 1001) with
  | Error e -> Alcotest.(check string) "past the cap" "nesting deeper than 1000" e.Pak_guard.Error.msg
  | Ok _ -> Alcotest.fail "depth 1001 accepted"

(* Equal labels of one document are one string; labels built to share
   one hash ("Aa" and "BB" collide under the multiply-by-31 hash) still
   read back exactly, past the probe cap of the intern table. *)
let test_reader_interning () =
  let t = Tree_io.of_string (doc_of_seed 21) in
  let seen = Hashtbl.create 64 in
  for id = 0 to Tree.n_nodes t - 1 do
    Array.iter
      (fun l ->
        match Hashtbl.find_opt seen l with
        | Some l' -> if l != l' then Alcotest.failf "label %S read twice" l
        | None -> Hashtbl.add seen l l)
      (Tree.node_state t id).Gstate.locals
  done;
  let rec colliding k = if k = 0 then [ "" ] else
      List.concat_map (fun s -> [ s ^ "Aa"; s ^ "BB" ]) (colliding (k - 1)) in
  let labels = colliding 6 in
  let quoted = String.concat " " (List.map (fun l -> "\"" ^ l ^ "\"") labels) in
  let doc =
    Printf.sprintf "(pps (agents %d) (node (parent -1) (prob 1) (acts) (env \"e\") (locals %s %s)))"
      (2 * List.length labels) quoted quoted
  in
  ignore (same_read doc);
  match Tree_io.of_string_result doc with
  | Ok t ->
    Alcotest.(check (list string)) "colliding labels" (labels @ labels)
      (Array.to_list (Tree.node_state t 0).Gstate.locals)
  | Error e -> Alcotest.failf "colliding labels rejected: %s" (Pak_guard.Error.to_string e)

(* Under a node budget around the document's node count, the reader
   and the oracle succeed or fail alike. *)
let test_reader_budget_parity () =
  List.iter
    (fun seed ->
      let doc = doc_of_seed seed in
      let nodes = match Tree_io.of_string_result doc with
        | Ok t -> Tree.n_nodes t | Error _ -> Alcotest.fail "seed document rejected" in
      for max_nodes = nodes - 2 to nodes + 1 do
        let under read =
          Pak_guard.Budget.with_budget (Pak_guard.Budget.limits ~max_nodes ()) (fun () -> read doc)
        in
        if under read_new <> under read_old then
          Alcotest.failf "seed %d, max_nodes %d: budget outcomes differ" seed max_nodes
      done)
    [ 3; 11; 29; 40; 45 ]

let prop_tree_io_random =
  QCheck.Test.make ~count:60 ~name:"serialization round trip on random systems"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let t = Gen.tree seed in
      trees_observationally_equal t (Tree_io.of_string (Tree_io.to_string t)))

(* ------------------------------------------------------------------ *)
(* Modal axioms                                                        *)
(* ------------------------------------------------------------------ *)

let fs_valuation atom g =
  match atom with
  | "go" -> String.length (Gstate.local g 0) >= 3 && (Gstate.local g 0).[2] = '1'
  | "bob_got" -> Gstate.local g 1 <> "got0"
  | _ -> false

let test_axioms_fs () =
  let t = fs () in
  List.iter
    (fun base ->
      let reports = Axioms.all t ~valuation:fs_valuation ~agent:0 ~base in
      check_bool
        (Printf.sprintf "all axioms valid on FS for %s" (Formula.to_string base))
        true (Axioms.all_valid reports);
      check_int "17 schemas" 17 (List.length reports))
    [ Formula.Atom "go"; Formula.Atom "bob_got"; Parser.parse "go & F does[1](fire)" ]

let prop_axioms_random =
  QCheck.Test.make ~count:30 ~name:"axioms valid on random systems"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let t = Gen.tree seed in
      let valuation atom g =
        atom = "p" && Hashtbl.hash (Gstate.local g 0) mod 2 = 0
      in
      Axioms.all_valid (Axioms.all t ~valuation ~agent:0 ~base:(Formula.Atom "p"))
      && Axioms.all_valid (Axioms.all t ~valuation ~agent:1 ~base:(Formula.Atom "p")))

(* ------------------------------------------------------------------ *)
(* Formula simplification                                              *)
(* ------------------------------------------------------------------ *)

let test_simplify_cases () =
  let s text = Formula.to_string (Simplify.simplify (Parser.parse text)) in
  Alcotest.(check string) "double negation" "x" (s "!!x");
  Alcotest.(check string) "and true" "x" (s "x & true");
  Alcotest.(check string) "or true" "true" (s "x | true");
  Alcotest.(check string) "implies false antecedent" "true" (s "false -> x");
  Alcotest.(check string) "implies false consequent" "!x" (s "x -> false");
  Alcotest.(check string) "idempotent and" "x" (s "x & x");
  Alcotest.(check string) "iff self" "true" (s "x <-> x");
  Alcotest.(check string) "K true" "true" (s "K[0] true");
  Alcotest.(check string) "K false" "false" (s "K[0] false");
  Alcotest.(check string) "B geq 0" "true" (s "B[0]>=0 x");
  Alcotest.(check string) "B of true" "true" (s "B[0]>=3/4 true");
  Alcotest.(check string) "B of false" "false" (s "B[0]>=3/4 false");
  Alcotest.(check string) "B leq of false" "true" (s "B[0]<=1/4 false");
  Alcotest.(check string) "F false" "false" (s "F false");
  Alcotest.(check string) "FF collapse" "F x" (s "F F x");
  Alcotest.(check string) "X false" "false" (s "X false");
  Alcotest.(check string) "X true survives" "X true" (s "X true");
  Alcotest.(check string) "singleton E" "K[1] x" (s "E[1] x");
  Alcotest.(check string) "nested" "true" (s "K[0] (x -> x) & (F false -> y)")

let random_formula_gen =
  (* reuse a compact generator: random nesting of a few shapes *)
  let open QCheck.Gen in
  let base = oneofl [ Formula.Atom "even0"; Formula.Atom "even1"; Formula.True; Formula.False ] in
  let max_depth = 6 in
  let gens = Array.make (max_depth + 1) base in
  for n = 1 to max_depth do
    let sub = gens.(n - 1) in
    gens.(n) <-
      frequency
        [ (2, sub);
          (2, map2 (fun a b -> Formula.And (a, b)) sub sub);
          (2, map2 (fun a b -> Formula.Or (a, b)) sub sub);
          (1, map2 (fun a b -> Formula.Implies (a, b)) sub sub);
          (1, map (fun f -> Formula.Not f) sub);
          (1, map (fun f -> Formula.Knows (0, f)) sub);
          (1, map (fun f -> Formula.Believes (1, Formula.Geq, Q.of_ints 2 3, f)) sub);
          (1, map (fun f -> Formula.Eventually f) sub);
          (1, map (fun f -> Formula.Next f) sub);
          (1, map (fun f -> Formula.Historically f) sub)
        ]
  done;
  QCheck.make ~print:Formula.to_string gens.(max_depth)

let gen_valuation atom g =
  match atom with
  | "even0" -> Hashtbl.hash (Gstate.local g 0) mod 2 = 0
  | "even1" -> Hashtbl.hash (Gstate.local g 1) mod 2 = 0
  | _ -> false

let prop_simplify_preserves_semantics =
  QCheck.Test.make ~count:200 ~name:"simplify preserves semantics"
    QCheck.(pair (int_range 0 10_000) random_formula_gen)
    (fun (seed, f) ->
      let t = Gen.tree seed in
      let a = Semantics.eval t ~valuation:gen_valuation f in
      let b = Semantics.eval t ~valuation:gen_valuation (Simplify.simplify f) in
      Tree.fold_points t ~init:true ~f:(fun acc ~run ~time ->
          acc && Fact.holds a ~run ~time = Fact.holds b ~run ~time))

let prop_simplify_shrinks =
  QCheck.Test.make ~count:300 ~name:"simplify never grows and is idempotent"
    random_formula_gen (fun f ->
      let s = Simplify.simplify f in
      Formula.size s <= Formula.size f && Formula.equal s (Simplify.simplify s))

(* ------------------------------------------------------------------ *)
(* ALOHA                                                               *)
(* ------------------------------------------------------------------ *)

let test_aloha_two_agents () =
  let a = Aloha.analyze ~n:2 ~slots:3 () in
  (* Slot 0: the other agent transmits with probability 1/2; as it
     drains, collision-freedom improves. *)
  Alcotest.(check (list (pair int string)))
    "µ_free by slot"
    [ (0, "1/2"); (1, "2/3"); (2, "3/4") ]
    (List.map (fun (s, v) -> (s, Q.to_string v)) a.Aloha.mu_free_by_slot);
  check_bool "independent (own coin vs others)" true a.Aloha.independent;
  check_q "throughput" (q 11 16) a.Aloha.throughput

let test_aloha_ptx_tradeoff () =
  (* Lower transmission probability raises per-transmission success. *)
  let mu p = List.assoc 0 (Aloha.analyze ~p_tx:p ~n:2 ~slots:1 ()).Aloha.mu_free_by_slot in
  check_q "p=1/2" Q.half (mu Q.half);
  check_q "p=1/4" (q 3 4) (mu (q 1 4));
  check_bool "monotone" true (Q.gt (mu (q 1 10)) (mu (q 1 2)));
  Alcotest.check_raises "needs 2 agents"
    (Invalid_argument "Aloha.tree: need at least two agents") (fun () ->
      ignore (Aloha.tree ~n:1 ~slots:1 ()))

let test_aloha_three_agents () =
  let a = Aloha.analyze ~n:3 ~slots:2 () in
  (* Slot 0 with two rivals at p = 1/2: free iff both idle = 1/4. *)
  check_q "slot 0 with two rivals" (q 1 4) (List.assoc 0 a.Aloha.mu_free_by_slot);
  check_bool "µ improves over slots" true
    (Q.lt (List.assoc 0 a.Aloha.mu_free_by_slot) (List.assoc 1 a.Aloha.mu_free_by_slot));
  (* Theorem 6.2 holds per slot. *)
  let t = Aloha.tree ~n:3 ~slots:2 () in
  List.iter
    (fun slot ->
      let r =
        Theorems.expectation_identity (Aloha.phi_free t ~agent:0 ~slot) ~agent:0
          ~act:(Aloha.tx ~slot)
      in
      check_bool (Printf.sprintf "Thm 6.2 slot %d" slot) true
        (r.Theorems.independent && r.Theorems.identity))
    [ 0; 1 ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_jeffrey_random;
      prop_aumann_random;
      prop_appendix_random;
      prop_reference_beta;
      prop_reference_engine;
      prop_reference_measure;
      prop_p_agreement_random;
      prop_policy_improves;
      prop_policy_bounded_by_best;
      prop_kripke_s5_random;
      prop_simulate_random_trees;
      prop_tree_io_random;
      prop_axioms_random;
      prop_simplify_preserves_semantics;
      prop_simplify_shrinks;
      prop_reader_oracle_gen;
      prop_reader_oracle_mutants;
      prop_finalize_oracle_documents
    ]

let () =
  Alcotest.run "pak_extensions"
    [ ( "jeffrey",
        [ Alcotest.test_case "partitions" `Quick test_jeffrey_partitions;
          Alcotest.test_case "total probability" `Quick test_jeffrey_total_probability
        ] );
      ( "policy",
        [ Alcotest.test_case "reproduces section 8" `Quick test_policy_reproduces_section8;
          Alcotest.test_case "frontier" `Quick test_policy_frontier;
          Alcotest.test_case "drop all" `Quick test_policy_drop_all
        ] );
      ( "appendix",
        [ Alcotest.test_case "lemma A.1" `Quick test_appendix_lemma_a1;
          Alcotest.test_case "lemma B.1" `Quick test_appendix_lemma_b1;
          Alcotest.test_case "theorem 6.2 chain" `Quick test_appendix_thm62_chain;
          Alcotest.test_case "bridge breaks on figure 1" `Quick test_appendix_thm62_bridge_breaks
        ] );
      ( "reference engine",
        [ Alcotest.test_case "firing squad" `Quick test_reference_fs;
          Alcotest.test_case "measure on judge/attack ladders" `Quick
            test_reference_measure_ladders;
          Alcotest.test_case "measure past the 2^61 lcm" `Quick test_reference_measure_fallback
        ] );
      ( "p-agreement",
        [ Alcotest.test_case "full information" `Quick test_p_agreement_full_information;
          Alcotest.test_case "guard" `Quick test_p_agreement_guard
        ] );
      ( "belief distribution",
        [ Alcotest.test_case "at action" `Quick test_belief_distribution ] );
      ( "aumann",
        [ Alcotest.test_case "trivial fact" `Quick test_aumann_trivial_fact;
          Alcotest.test_case "premise fails" `Quick test_aumann_premise_fails;
          Alcotest.test_case "full information" `Quick test_aumann_full_information
        ] );
      ( "kripke",
        [ Alcotest.test_case "structure" `Quick test_kripke_structure;
          Alcotest.test_case "agrees with layers" `Quick test_kripke_agrees_with_layers
        ] );
      ( "simulate",
        [ Alcotest.test_case "deterministic" `Quick test_simulate_deterministic;
          Alcotest.test_case "converges" `Quick test_simulate_converges;
          Alcotest.test_case "conditional" `Quick test_simulate_conditional;
          Alcotest.test_case "threshold boundaries" `Quick test_simulate_thresholds;
          Alcotest.test_case "Q walk oracle" `Quick test_simulate_oracle;
          Alcotest.test_case "pinned estimates" `Quick test_simulate_pinned;
          Alcotest.test_case "walk allocates nothing" `Quick test_simulate_no_alloc
        ] );
      ( "tree_io",
        [ Alcotest.test_case "round trip" `Quick test_tree_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_tree_io_errors;
          Alcotest.test_case "reader errors" `Quick test_tree_io_reader_errors;
          Alcotest.test_case "one-byte edits match the oracle" `Quick test_reader_one_byte_edits;
          Alcotest.test_case "nesting at 999, 1000 and 1001" `Quick test_reader_nesting;
          Alcotest.test_case "budget parity with the oracle" `Quick test_reader_budget_parity;
          Alcotest.test_case "interned labels" `Quick test_reader_interning
        ] );
      ( "axioms", [ Alcotest.test_case "fs" `Quick test_axioms_fs ] );
      ( "simplify", [ Alcotest.test_case "cases" `Quick test_simplify_cases ] );
      ( "aloha",
        [ Alcotest.test_case "two agents" `Quick test_aloha_two_agents;
          Alcotest.test_case "p_tx tradeoff" `Quick test_aloha_ptx_tradeoff;
          Alcotest.test_case "three agents" `Quick test_aloha_three_agents
        ] );
      ("properties", qcheck_cases)
    ]
