(* Tests for the pps core: bitsets, trees, facts, actions, beliefs,
   independence, constraints and theorem checkers. *)

open Pak_rational
open Pak_pps

let q = Q.of_ints
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_q msg expected actual =
  Alcotest.(check string) msg (Q.to_string expected) (Q.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basics () =
  let s = Bitset.of_list 10 [ 1; 3; 7 ] in
  check_int "cardinal" 3 (Bitset.cardinal s);
  check_bool "mem 3" true (Bitset.mem s 3);
  check_bool "mem 2" false (Bitset.mem s 2);
  Alcotest.(check (list int)) "to_list sorted" [ 1; 3; 7 ] (Bitset.to_list s);
  check_bool "empty" true (Bitset.is_empty (Bitset.create 10));
  check_int "full" 10 (Bitset.cardinal (Bitset.full 10));
  check_int "full across words" 100 (Bitset.cardinal (Bitset.full 100));
  check_bool "remove" false (Bitset.mem (Bitset.remove s 3) 3);
  check_int "add idempotent" 3 (Bitset.cardinal (Bitset.add s 7))

let test_bitset_ops () =
  let a = Bitset.of_list 8 [ 0; 1; 2 ] and b = Bitset.of_list 8 [ 2; 3 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 3 ] (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "inter" [ 2 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "diff" [ 0; 1 ] (Bitset.to_list (Bitset.diff a b));
  Alcotest.(check (list int)) "complement" [ 3; 4; 5; 6; 7 ]
    (Bitset.to_list (Bitset.complement a));
  check_bool "subset yes" true (Bitset.subset (Bitset.of_list 8 [ 1 ]) a);
  check_bool "subset no" false (Bitset.subset b a);
  check_bool "for_all" true (Bitset.for_all (fun i -> i < 3) a);
  check_bool "exists" true (Bitset.exists (fun i -> i = 3) b);
  Alcotest.(check (list int)) "filter" [ 0; 2 ]
    (Bitset.to_list (Bitset.filter (fun i -> i mod 2 = 0) a));
  check_int "fold" 3 (Bitset.fold (fun i acc -> acc + i) a 0);
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset.union: capacity mismatch") (fun () ->
      ignore (Bitset.union a (Bitset.create 9)))

let test_bitset_word_boundary () =
  (* Exercise indices straddling the 62-bit word boundary. *)
  let s = Bitset.of_list 130 [ 0; 61; 62; 63; 123; 124; 129 ] in
  check_int "cardinal" 7 (Bitset.cardinal s);
  Alcotest.(check (list int)) "roundtrip" [ 0; 61; 62; 63; 123; 124; 129 ]
    (Bitset.to_list s);
  check_int "complement cardinal" 123 (Bitset.cardinal (Bitset.complement s));
  check_bool "complement no overflow bits" true
    (Bitset.for_all (fun i -> i < 130) (Bitset.complement s))

(* Bulk constructors and word-parallel set operations against a naive
   per-bit bool-array oracle. Capacities are deliberately ragged —
   0, 1, and neighbours of the 62-bit word size — so the masked high
   bits of the last word are exercised on every operation (the
   vectorized evaluation engine leans on exactly these invariants,
   see doc/EVALUATION.md). *)
let gen_bitset_case =
  let open QCheck.Gen in
  let cap_gen = oneof [ oneofl [ 0; 1; 61; 62; 63; 124 ]; int_range 0 200 ] in
  let members cap =
    if cap = 0 then return []
    else list_size (int_range 0 (2 * cap)) (int_range 0 (cap - 1))
  in
  let show xs = String.concat ";" (List.map string_of_int xs) in
  QCheck.make
    ~print:(fun (cap, xs, ys) -> Printf.sprintf "cap=%d a=[%s] b=[%s]" cap (show xs) (show ys))
    (cap_gen >>= fun cap -> map2 (fun xs ys -> (cap, xs, ys)) (members cap) (members cap))

let prop_bitset_bulk_oracle =
  QCheck.Test.make ~count:500 ~name:"bulk bitset ops agree with per-bit oracle"
    gen_bitset_case (fun (cap, xs, ys) ->
      let arr zs =
        let a = Array.make cap false in
        List.iter (fun i -> a.(i) <- true) zs;
        a
      in
      let ax = arr xs and ay = arr ys in
      let sx = Bitset.of_list cap xs and sy = Bitset.of_list cap ys in
      let popcount a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a in
      (* to_list detects spurious indices, cardinal (a word-level
         popcount) detects set bits hiding above the capacity. *)
      let agrees s expect =
        Bitset.to_list s = List.filter (fun i -> expect.(i)) (List.init cap Fun.id)
        && Bitset.cardinal s = popcount expect
      in
      let map2 f a b = Array.init cap (fun i -> f a.(i) b.(i)) in
      agrees (Bitset.init cap (Array.get ax)) ax
      && Bitset.equal (Bitset.init cap (Array.get ax)) sx
      && agrees (Bitset.union sx sy) (map2 ( || ) ax ay)
      && agrees (Bitset.inter sx sy) (map2 ( && ) ax ay)
      && agrees (Bitset.diff sx sy) (map2 (fun a b -> a && not b) ax ay)
      && agrees (Bitset.symdiff sx sy) (map2 ( <> ) ax ay)
      && agrees (Bitset.complement sx) (Array.map not ax)
      && Bitset.equal sx sy = (ax = ay)
      && Bitset.equal (Bitset.complement (Bitset.complement sx)) sx
      && agrees (Bitset.filter (fun i -> ay.(i)) sx) (map2 ( && ) ax ay)
      && Bitset.weighted_sum sx (Array.init cap (fun i -> (i * i) + 1))
         = List.fold_left (fun acc i -> if ax.(i) then acc + (i * i) + 1 else acc) 0
             (List.init cap Fun.id))

(* ------------------------------------------------------------------ *)
(* Hand-built trees                                                    *)
(* ------------------------------------------------------------------ *)

(* Figure 1 of the paper: one agent, one initial state, a fair mixed
   choice between actions alpha and alpha'. *)
let figure1 () =
  let b = Tree.Builder.create ~n_agents:1 in
  let g0 = Tree.Builder.add_initial b ~prob:Q.one (Gstate.of_labels "e0" [ "l0" ]) in
  let _r =
    Tree.Builder.add_child b ~parent:g0 ~prob:Q.half ~acts:[| "env"; "alpha" |]
      (Gstate.of_labels "e1" [ "l1" ])
  in
  let _r' =
    Tree.Builder.add_child b ~parent:g0 ~prob:Q.half ~acts:[| "env"; "alpha'" |]
      (Gstate.of_labels "e1" [ "l1" ])
  in
  Tree.Builder.finalize b

(* The T̂(p, ε) construction of Theorem 5.2 (Figure 2), hardwired at
   p = 3/4, ε = 1/4. Agent 0 is "i" (receives a message, then fires α
   unconditionally at time 1); agent 1 is "j" (holds the bit). *)
let that () =
  let b = Tree.Builder.create ~n_agents:2 in
  let p = q 3 4 in
  let s0 = Tree.Builder.add_initial b ~prob:(Q.one_minus p) (Gstate.of_labels "e" [ "i0"; "bit0" ]) in
  let s1 = Tree.Builder.add_initial b ~prob:p (Gstate.of_labels "e" [ "i0"; "bit1" ]) in
  (* Round 1: j sends m_j or m'_j; i's time-1 label records the message. *)
  let n_r =
    Tree.Builder.add_child b ~parent:s0 ~prob:Q.one ~acts:[| "env"; "recv"; "send_mj" |]
      (Gstate.of_labels "e" [ "got_mj"; "bit0" ])
  in
  let n_r' =
    Tree.Builder.add_child b ~parent:s1 ~prob:(q 2 3) ~acts:[| "env"; "recv"; "send_mj" |]
      (Gstate.of_labels "e" [ "got_mj"; "bit1" ])
  in
  let n_r'' =
    Tree.Builder.add_child b ~parent:s1 ~prob:(q 1 3) ~acts:[| "env"; "recv"; "send_mj'" |]
      (Gstate.of_labels "e" [ "got_mj'"; "bit1" ])
  in
  (* Round 2: i performs alpha unconditionally. *)
  List.iter
    (fun (parent, bit) ->
      ignore
        (Tree.Builder.add_child b ~parent ~prob:Q.one ~acts:[| "env"; "alpha"; "noop" |]
           (Gstate.of_labels "e" [ "done"; bit ])))
    [ (n_r, "bit0"); (n_r', "bit1"); (n_r'', "bit1") ];
  Tree.Builder.finalize b

let test_tree_structure () =
  let t = figure1 () in
  check_int "n_agents" 1 (Tree.n_agents t);
  check_int "n_nodes" 3 (Tree.n_nodes t);
  check_int "n_runs" 2 (Tree.n_runs t);
  check_int "n_points" 4 (Tree.n_points t);
  check_int "run length" 2 (Tree.run_length t 0);
  check_q "run 0 measure" Q.half (Tree.run_measure t 0);
  check_q "run 1 measure" Q.half (Tree.run_measure t 1);
  check_q "total measure" Q.one (Tree.measure t (Tree.all_runs t));
  check_int "initial nodes" 1 (List.length (Tree.initial_nodes t));
  check_int "children of root child" 2 (List.length (Tree.node_children t 0));
  check_bool "parent of initial" true (Tree.node_parent t 0 = None);
  check_bool "parent of child" true (Tree.node_parent t 1 = Some 0);
  check_int "depth" 1 (Tree.node_depth t 1);
  check_bool "runs agree at 0" true (Tree.runs_agree_upto t 0 1 ~time:0);
  check_bool "runs disagree at 1" false (Tree.runs_agree_upto t 0 1 ~time:1)

let test_tree_actions () =
  let t = figure1 () in
  check_bool "action at t=0 run 0" true
    (Tree.action_at t ~agent:0 ~run:0 ~time:0 = Some "alpha");
  check_bool "action at t=0 run 1" true
    (Tree.action_at t ~agent:0 ~run:1 ~time:0 = Some "alpha'");
  check_bool "no action at final point" true (Tree.action_at t ~agent:0 ~run:0 ~time:1 = None);
  check_bool "env action" true (Tree.env_action_at t ~run:0 ~time:0 = Some "env");
  Alcotest.(check (list string)) "agent actions" [ "alpha"; "alpha'" ]
    (Tree.agent_actions t ~agent:0)

let test_tree_lstates () =
  let t = figure1 () in
  let k0 = Tree.lkey t ~agent:0 ~run:0 ~time:0 in
  check_int "lkey time" 0 (Tree.lkey_time k0);
  Alcotest.(check string) "lkey label" "l0" (Tree.lkey_label k0);
  check_int "l0 occurs in both runs" 2 (Bitset.cardinal (Tree.lstate_runs t k0));
  (* Both runs share the time-1 label "l1", so i cannot distinguish them. *)
  let k1 = Tree.lkey t ~agent:0 ~run:0 ~time:1 in
  check_int "l1 shared" 2 (Bitset.cardinal (Tree.lstate_runs t k1));
  check_int "two lstates total" 2 (List.length (Tree.lstates t ~agent:0));
  let missing = Tree.lkey_make ~agent:0 ~time:0 ~label:"nope" in
  check_bool "missing lstate empty" true (Bitset.is_empty (Tree.lstate_runs t missing))

let test_tree_validation () =
  let b = Tree.Builder.create ~n_agents:1 in
  Alcotest.check_raises "no initial" (Invalid_argument "Tree.finalize: no initial states")
    (fun () -> ignore (Tree.Builder.finalize b));
  let b = Tree.Builder.create ~n_agents:1 in
  ignore (Tree.Builder.add_initial b ~prob:Q.half (Gstate.of_labels "e" [ "x" ]));
  Alcotest.check_raises "initial mass"
    (Invalid_argument "Tree.finalize: initial probabilities sum to 1/2, not 1") (fun () ->
      ignore (Tree.Builder.finalize b));
  let b = Tree.Builder.create ~n_agents:1 in
  let n = Tree.Builder.add_initial b ~prob:Q.one (Gstate.of_labels "e" [ "x" ]) in
  ignore
    (Tree.Builder.add_child b ~parent:n ~prob:(q 1 3) ~acts:[| "e"; "a" |]
       (Gstate.of_labels "e" [ "y" ]));
  Alcotest.check_raises "internal mass"
    (Invalid_argument "Tree.finalize: node 0 edge probabilities sum to 1/3, not 1")
    (fun () -> ignore (Tree.Builder.finalize b));
  let b = Tree.Builder.create ~n_agents:1 in
  let n = Tree.Builder.add_initial b ~prob:Q.one (Gstate.of_labels "e" [ "x" ]) in
  ignore
    (Tree.Builder.add_child b ~parent:n ~prob:Q.half ~acts:[| "e"; "a" |]
       (Gstate.of_labels "e" [ "y" ]));
  Alcotest.check_raises "duplicate joint action"
    (Invalid_argument "Tree.Builder.add_child: duplicate joint action at this node")
    (fun () ->
      ignore
        (Tree.Builder.add_child b ~parent:n ~prob:Q.half ~acts:[| "e"; "a" |]
           (Gstate.of_labels "e" [ "z" ])));
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Tree.Builder: edge probability must be in (0,1]") (fun () ->
      ignore (Tree.Builder.add_initial b ~prob:Q.zero (Gstate.of_labels "e" [ "x" ])));
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Tree.Builder.add_child: acts must have length n_agents + 1")
    (fun () ->
      ignore
        (Tree.Builder.add_child b ~parent:n ~prob:Q.half ~acts:[| "e" |]
           (Gstate.of_labels "e" [ "w" ])))

let test_tree_synchrony_check () =
  let t = figure1 () in
  Alcotest.(check (list (pair int string))) "no label reuse" []
    (Tree.check_labels_synchronous t);
  (* Build a tree reusing label "x" at two depths. *)
  let b = Tree.Builder.create ~n_agents:1 in
  let n = Tree.Builder.add_initial b ~prob:Q.one (Gstate.of_labels "e" [ "x" ]) in
  ignore
    (Tree.Builder.add_child b ~parent:n ~prob:Q.one ~acts:[| "e"; "a" |]
       (Gstate.of_labels "e" [ "x" ]));
  let t2 = Tree.Builder.finalize b in
  Alcotest.(check (list (pair int string))) "reuse reported" [ (0, "x") ]
    (Tree.check_labels_synchronous t2)

let test_tree_protocol_consistency () =
  (* figure1 and that() are protocol-generated: consistent. *)
  check_int "figure1 consistent" 0 (List.length (Tree.check_protocol_consistency (figure1 ())));
  check_int "that consistent" 0 (List.length (Tree.check_protocol_consistency (that ())));
  (* A tree where the same local state performs alpha with different
     probabilities at two nodes (distinguished only by agent 1's state):
     not realizable by any protocol P_0. *)
  let b = Tree.Builder.create ~n_agents:2 in
  let n0 = Tree.Builder.add_initial b ~prob:Q.half (Gstate.of_labels "e" [ "same"; "x" ]) in
  let n1 = Tree.Builder.add_initial b ~prob:Q.half (Gstate.of_labels "e" [ "same"; "y" ]) in
  let grow parent p_alpha =
    ignore
      (Tree.Builder.add_child b ~parent ~prob:p_alpha ~acts:[| "e"; "alpha"; "n" |]
         (Gstate.of_labels "e" [ "d"; "d" ]));
    ignore
      (Tree.Builder.add_child b ~parent ~prob:(Q.one_minus p_alpha) ~acts:[| "e"; "beta"; "n" |]
         (Gstate.of_labels "e" [ "d"; "d" ]))
  in
  grow n0 (q 1 3);
  grow n1 (q 2 3);
  let t = Tree.Builder.finalize b in
  let violations = Tree.check_protocol_consistency t in
  check_bool "inconsistency detected" true (violations <> []);
  check_bool "agent 0 flagged" true (List.exists (fun (ag, _, _) -> ag = 0) violations);
  (* Generated protocol-consistent trees pass the check. *)
  for seed = 0 to 20 do
    check_int
      (Printf.sprintf "Gen.tree %d consistent" seed)
      0
      (List.length (Tree.check_protocol_consistency (Gen.tree seed)))
  done

let contains_substr haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_tree_dot () =
  let t = figure1 () in
  let dot = Tree.to_dot t in
  check_bool "mentions lambda" true (contains_substr dot "lambda");
  check_bool "mentions alpha" true (contains_substr dot "alpha")

(* Trees for the index and walk oracles: protocol-consistent Gen trees
   of depth 1-5, arbitrary ones with early leaves, and every built-in
   system. *)
let oracle_trees () =
  let open Pak_systems in
  let gen kind f =
    List.concat_map
      (fun depth ->
        List.map
          (fun seed ->
            (Printf.sprintf "%s depth %d seed %d" kind depth seed,
             f ~params:{ Gen.default_params with Gen.depth } seed))
          [ 1; 2; 3 ])
      [ 1; 2; 3; 4; 5 ]
  in
  let builtin =
    [ ("firing-squad", Firing_squad.tree Firing_squad.Original);
      ("firing-squad improved", Firing_squad.tree Firing_squad.Improved);
      ("figure-one", Figure_one.tree ());
      ("threshold-gap", Threshold_gap.tree ~p:Q.half ~eps:(q 1 10));
      ("coordinated-attack", Coordinated_attack.tree ~rounds:3 ());
      ("mutex", Mutex.tree ());
      ("judge", Judge.tree ~rounds:3 ~convict_at:2 ());
      ("consensus", Consensus.tree ~rounds:2 ());
      ("aloha", Aloha.tree ~n:2 ~slots:2 ());
      ("interactive-proof", Interactive_proof.tree ~rounds:3 ())
    ]
  in
  ( gen "Gen" (fun ~params s -> Gen.tree ~params s)
    @ gen "arbitrary" (fun ~params s -> Gen.tree_arbitrary ~params s),
    builtin )

(* [initial_nodes] against the list the whole-array walk built: every
   node without a parent, in id order, with its probability — the
   measure of the runs through it. *)
let test_tree_initial_nodes () =
  let gen, builtin = oracle_trees () in
  List.iter
    (fun (name, t) ->
      let expected =
        List.filter_map
          (fun id ->
            if Tree.node_parent t id = None then
              Some (Q.to_string (Tree.measure t (Tree.node_runs t id)), id)
            else None)
          (List.init (Tree.n_nodes t) Fun.id)
      in
      Alcotest.(check (list (pair string int)))
        name expected
        (List.map (fun (p, id) -> (Q.to_string p, id)) (Tree.initial_nodes t)))
    (gen @ builtin)

(* The builder against [Finalize_oracle], the [Q]-walk builder it
   replaced: the same builder calls must give the same runs, points,
   node intervals, local states, measures, weights and denominator, or
   the same exception and message. *)
let check_finalize name spec =
  match Finalize_oracle.compare_spec spec with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" name d

let test_tree_finalize_oracle () =
  let gen, builtin = oracle_trees () in
  let more =
    List.concat_map
      (fun (depth, n_agents) ->
        let params = { Gen.default_params with Gen.depth; n_agents } in
        List.concat_map
          (fun seed ->
            [ (Printf.sprintf "Gen depth %d agents %d seed %d" depth n_agents seed,
               Gen.tree ~params seed);
              (Printf.sprintf "arbitrary depth %d agents %d seed %d" depth n_agents seed,
               Gen.tree_arbitrary ~params seed) ])
          [ 4; 5 ])
      [ (0, 2); (0, 1); (2, 1); (3, 3); (4, 1) ]
  in
  (* Run-measure denominators past 2^30. *)
  let ladders =
    let open Pak_systems in
    [ ("judge 7", Judge.tree ~rounds:7 ~convict_at:2 ());
      ("coordinated-attack 5", Coordinated_attack.tree ~rounds:5 ()) ]
  in
  List.iter (fun (name, t) -> check_finalize name (Finalize_oracle.spec_of_tree t))
    (gen @ builtin @ more @ ladders)

(* Hand-built trees for the int/[Q] switches of [finalize]. A shape is
   an edge probability and the subtrees below it; nodes get ids in
   preorder, the label of their child index and one action per child. *)
type shape = N of Q.t * shape list

let spec_of_shapes roots =
  let ops = ref [] and next = ref 0 in
  let rec add parent k (N (prob, kids)) =
    let id = !next in
    incr next;
    let state = Gstate.make ~env:"e" ~locals:[ string_of_int k ] in
    ops :=
      (if parent < 0 then Finalize_oracle.Initial (prob, state)
       else Finalize_oracle.Child (parent, prob, [| "e"; "a" ^ string_of_int k |], state))
      :: !ops;
    List.iteri (add id) kids
  in
  List.iteri (add (-1)) roots;
  { Finalize_oracle.n_agents = 1; ops = List.rev !ops }

(* [1/n] and [(n-1)/n] below a node, each leading to [below]. *)
let split n below = [ N (q 1 n, below); N (q (n - 1) n, below) ]

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let test_tree_finalize_boundaries () =
  let built name shapes =
    let spec = spec_of_shapes shapes in
    check_finalize name spec;
    Finalize_oracle.build_tree spec
  in
  let denominator name shapes expected =
    match built name shapes with
    | Ok t ->
      Alcotest.(check (option int)) (name ^ ": weight_denominator") expected
        (Tree.weight_denominator t)
    | Error e -> Alcotest.failf "%s: %s" name (Printexc.to_string e)
  in
  let rejected name shapes msg =
    match built name shapes with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
      Alcotest.(check string) name
        (Printexc.to_string (Invalid_argument msg))
        (Printexc.to_string e)
  in
  (* Edge products on both sides of the overflow check: a run
     denominator [5m·c] just below and just above max_int (both are
     past 2^61, so D falls back either way), and [m²] below 2^61. *)
  let m = 1073741789 (* the largest prime below 2^30 *) in
  let rec coprime step c = if gcd c (5 * m) = 1 then c else coprime step (c + step) in
  let c_fits = coprime (-1) (max_int / (5 * m)) and c_over = coprime 1 ((max_int / (5 * m)) + 1) in
  check_bool "5m·c straddles max_int" true
    (c_fits <= max_int / (5 * m) && c_over > max_int / (5 * m));
  List.iter
    (fun c ->
      denominator (Printf.sprintf "product 5m·%d" c)
        [ N (Q.one, split m (split 5 (split c []))) ]
        None)
    [ c_fits; c_over ];
  (* 9m·c passes 2^63 by less than 2^36, and no numerator shares a
     factor with m, 9 or c, so every run denominator is 9m·c: a product
     that wrapped would pass for a small positive one. *)
  let c_wrap = 954437213 in
  check_bool "9m·c wraps to a small positive int" true
    (c_wrap > max_int / (9 * m) && 9 * m * c_wrap > 0 && 9 * m * c_wrap < 1 lsl 36
     && gcd (c_wrap - 1) (9 * m) = 1 && gcd (m - 1) (9 * c_wrap) = 1);
  denominator "product 9m·c past 2^63" [ N (Q.one, split m (split 9 (split c_wrap []))) ] None;
  denominator "product m²" [ N (Q.one, split m (split m [])) ] (Some (m * m));
  denominator "product m³" [ N (Q.one, split m (split m (split m []))) ] None;
  (* The lcm of the run denominators just below and just above 2^61:
     runs of denominators 4m and 4n, lcm 4mn. *)
  let lcm_case n =
    [ N (Q.one, [ N (q 1 4, split m []); N (q 3 4, split n []) ]) ]
  in
  let n_below = 536870929 and n_above = 536870933 in
  check_bool "4mn straddles 2^61" true
    (4 * m * n_below < 1 lsl 61 && 4 * m * n_above > 1 lsl 61);
  denominator "lcm just below 2^61" (lcm_case n_below) (Some (4 * m * n_below));
  denominator "lcm just above 2^61" (lcm_case n_above) None;
  (* Edge sums whose lcm is on both sides of the int check's 2^31:
     (p-1)/2p + 1/2p + (q-1)/2q + 1/2q = 1 over 2pq. *)
  let p = 32749 in
  let q_fits = (((1 lsl 31) - 1) / (2 * p)) lor 1 in
  let q_fits = if 2 * p * q_fits < 1 lsl 31 then q_fits else q_fits - 2 in
  List.iter
    (fun qq ->
      let kids =
        List.map
          (fun (a, b) -> N (q a b, []))
          [ (p - 1, 2 * p); (1, 2 * p); (qq - 1, 2 * qq); (1, 2 * qq) ]
      in
      denominator (Printf.sprintf "edge lcm 2p·%d" qq) [ N (Q.one, kids) ] (Some (2 * p * qq)))
    [ q_fits; q_fits + 2 ];
  (* Sums that miss 1 by 1/D, on ints and past the int check, at a node
     and at the root; and sums above 1. *)
  rejected "node misses by 1/77" [ N (Q.one, [ N (q 5 7, []); N (q 3 11, []) ]) ]
    "Tree.finalize: node 0 edge probabilities sum to 76/77, not 1";
  rejected "root misses by 1/77" [ N (q 5 7, []); N (q 3 11, []) ]
    "Tree.finalize: initial probabilities sum to 76/77, not 1";
  rejected "node above 1" [ N (Q.one, [ N (q 5 7, []); N (q 4 11, []) ]) ]
    "Tree.finalize: node 0 edge probabilities sum to 83/77, not 1";
  let p, qq = (65537, 65539) in
  (* x/p + y/q = 1 - 1/pq *)
  let rec solve x = if ((p * qq) - 1 - (x * qq)) mod p = 0 then x else solve (x + 1) in
  let x = solve 1 in
  let y = ((p * qq) - 1 - (x * qq)) / p in
  rejected "node misses by 1/pq past the int check"
    [ N (Q.one, [ N (q x p, []); N (q y qq, []) ]) ]
    (Printf.sprintf "Tree.finalize: node 0 edge probabilities sum to %d/%d, not 1"
       ((p * qq) - 1) (p * qq));
  rejected "root misses by 1/pq past the int check" [ N (q x p, []); N (q y qq, []) ]
    (Printf.sprintf "Tree.finalize: initial probabilities sum to %d/%d, not 1"
       ((p * qq) - 1) (p * qq));
  (* Probabilities with a part of 2^30 or more take the [Q] path. *)
  let big = 1 lsl 31 in
  denominator "large edge parts" [ N (Q.one, split big (split 3 [])) ] (Some (3 * big));
  rejected "large edge parts missing 1"
    [ N (Q.one, [ N (q 1 big, []); N (q (big - 2) big, []) ]) ]
    (Printf.sprintf "Tree.finalize: node 0 edge probabilities sum to %d/%d, not 1" (big - 1) big)

(* [node_runs] and the local-state index against sets recomputed point
   by point from [run_node] and the local states. *)
let test_tree_finalize_index () =
  let gen, builtin = oracle_trees () in
  List.iter
    (fun (name, t) ->
      let through = Array.make (Tree.n_nodes t) [] in
      let occurs = Hashtbl.create 64 in
      for run = Tree.n_runs t - 1 downto 0 do
        for time = 0 to Tree.run_length t run - 1 do
          let id = Tree.run_node t ~run ~time in
          through.(id) <- run :: through.(id);
          for agent = 0 to Tree.n_agents t - 1 do
            let key = Tree.lkey t ~agent ~run ~time in
            Hashtbl.replace occurs key
              (run :: Option.value ~default:[] (Hashtbl.find_opt occurs key))
          done
        done
      done;
      let nodes_ok =
        Array.for_all Fun.id
          (Array.mapi (fun id runs -> Bitset.to_list (Tree.node_runs t id) = runs) through)
      in
      check_bool (name ^ ": node_runs") true nodes_ok;
      for agent = 0 to Tree.n_agents t - 1 do
        let keys =
          Hashtbl.fold (fun k _ acc -> if Tree.lkey_agent k = agent then k :: acc else acc)
            occurs []
          |> List.sort compare
        in
        check_bool (Printf.sprintf "%s: lstates of agent %d" name agent) true
          (Tree.lstates t ~agent = keys);
        check_bool (Printf.sprintf "%s: lstate_runs of agent %d" name agent) true
          (List.for_all
             (fun k -> Bitset.to_list (Tree.lstate_runs t k) = Hashtbl.find occurs k)
             keys)
      done)
    (gen @ builtin)

(* ------------------------------------------------------------------ *)
(* Facts                                                               *)
(* ------------------------------------------------------------------ *)

let test_fact_basics () =
  let t = figure1 () in
  let psi = Fact.not_ (Fact.does t ~agent:0 ~act:"alpha") in
  (* psi = "i is not performing alpha": false at (r,0), true elsewhere *)
  check_bool "(r,0)" false (Fact.holds psi ~run:0 ~time:0);
  check_bool "(r,1)" true (Fact.holds psi ~run:0 ~time:1);
  check_bool "(r',0)" true (Fact.holds psi ~run:1 ~time:0);
  check_bool "tt" true (Fact.holds (Fact.tt t) ~run:0 ~time:0);
  check_bool "ff" false (Fact.holds (Fact.ff t) ~run:0 ~time:0);
  let conj = Fact.and_ psi (Fact.tt t) in
  check_bool "and with tt" false (Fact.holds conj ~run:0 ~time:0);
  check_bool "implies" true
    (Fact.holds (Fact.implies (Fact.ff t) psi) ~run:0 ~time:0);
  check_bool "iff" true
    (Fact.holds (Fact.iff psi psi) ~run:0 ~time:0)

let test_fact_cross_tree_guard () =
  let t1 = figure1 () and t2 = figure1 () in
  Alcotest.check_raises "cross-tree"
    (Invalid_argument "Fact: combining facts from different trees") (fun () ->
      ignore (Fact.and_ (Fact.tt t1) (Fact.tt t2)))

let test_fact_temporal () =
  let t = that () in
  let fires = Fact.does t ~agent:0 ~act:"alpha" in
  let ev = Fact.eventually fires in
  check_bool "eventually true early" true (Fact.holds ev ~run:0 ~time:0);
  check_bool "eventually is run fact" true (Fact.is_about_runs ev);
  let glob = Fact.globally fires in
  check_bool "globally false" false (Fact.holds glob ~run:0 ~time:0);
  let onc = Fact.once fires in
  check_bool "once before" false (Fact.holds onc ~run:0 ~time:0);
  check_bool "once at" true (Fact.holds onc ~run:0 ~time:1);
  check_bool "once after" true (Fact.holds onc ~run:0 ~time:2);
  let hist = Fact.historically (Fact.not_ fires) in
  check_bool "historically true then" true (Fact.holds hist ~run:0 ~time:0);
  check_bool "historically falsified" false (Fact.holds hist ~run:0 ~time:2);
  let nxt = Fact.next fires in
  check_bool "next true at 0" true (Fact.holds nxt ~run:0 ~time:0);
  check_bool "next false at final" false (Fact.holds nxt ~run:0 ~time:2);
  let att = Fact.at_time t 1 fires in
  check_bool "at_time run fact" true (Fact.is_about_runs att);
  check_bool "at_time value" true (Fact.holds att ~run:0 ~time:0)

let test_fact_run_facts () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  check_bool "bit1 about runs" true (Fact.is_about_runs bit1);
  check_bool "bit1 past based" true (Fact.is_past_based bit1);
  let ev = Fact.event_of_run_fact bit1 in
  check_q "µ(bit1) = p" (q 3 4) (Tree.measure t ev);
  let fires_now = Fact.does t ~agent:0 ~act:"alpha" in
  check_bool "does not about runs" false (Fact.is_about_runs fires_now);
  Alcotest.check_raises "event_of_run_fact guard"
    (Invalid_argument "Fact.event_of_run_fact: fact is not a fact about runs") (fun () ->
      ignore (Fact.event_of_run_fact fires_now))

let test_fact_past_based () =
  let t = figure1 () in
  (* "does alpha" at time 0 differs across the two runs although they
     share the time-0 node: not past-based. *)
  let f = Fact.does t ~agent:0 ~act:"alpha" in
  check_bool "does is future-dependent" false (Fact.is_past_based f);
  let g = Fact.of_state_pred t (fun st -> Gstate.local st 0 = "l0") in
  check_bool "state pred past-based" true (Fact.is_past_based g)

let test_fact_at_operators () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  (* i's time-1 local state "got_mj" occurs in runs 0 (bit0) and 1 (bit1). *)
  let k = Tree.lkey_make ~agent:0 ~time:1 ~label:"got_mj" in
  check_int "occurrences" 2 (Bitset.cardinal (Tree.lstate_runs t k));
  check_q "µ(bit1@got_mj)" Q.half (Tree.measure t (Fact.at_lstate bit1 k));
  let ev = Fact.at_action bit1 ~agent:0 ~act:"alpha" in
  check_q "µ(ϕ@α)" (q 3 4) (Tree.measure t ev)

(* ------------------------------------------------------------------ *)
(* Actions                                                             *)
(* ------------------------------------------------------------------ *)

let test_action_properness () =
  let t = that () in
  check_bool "alpha proper" true (Action.is_proper t ~agent:0 ~act:"alpha");
  check_bool "unperformed not proper" false (Action.is_proper t ~agent:0 ~act:"nothing");
  check_int "occurrences" 3 (List.length (Action.occurrences t ~agent:0 ~act:"alpha"));
  check_int "R_alpha is everything" 3
    (Bitset.cardinal (Action.runs_performing t ~agent:0 ~act:"alpha"));
  check_bool "time_performed" true
    (Action.time_performed t ~agent:0 ~act:"alpha" ~run:0 = Some 1);
  check_int "count_in_run" 1 (Action.count_in_run t ~agent:0 ~act:"alpha" ~run:2);
  (* An action repeated in one run is not proper. *)
  let b = Tree.Builder.create ~n_agents:1 in
  let n0 = Tree.Builder.add_initial b ~prob:Q.one (Gstate.of_labels "e" [ "x0" ]) in
  let n1 =
    Tree.Builder.add_child b ~parent:n0 ~prob:Q.one ~acts:[| "e"; "a" |]
      (Gstate.of_labels "e" [ "x1" ])
  in
  ignore
    (Tree.Builder.add_child b ~parent:n1 ~prob:Q.one ~acts:[| "e"; "a" |]
       (Gstate.of_labels "e" [ "x2" ]));
  let t2 = Tree.Builder.finalize b in
  check_bool "repeated not proper" false (Action.is_proper t2 ~agent:0 ~act:"a");
  Alcotest.check_raises "check_proper raises" (Action.Not_proper "agent 0, action a")
    (fun () -> Action.check_proper t2 ~agent:0 ~act:"a")

let test_action_determinism () =
  let t1 = figure1 () in
  (* alpha is chosen by a coin flip at l0: mixed, not deterministic. *)
  check_bool "mixed not deterministic" false (Action.is_deterministic t1 ~agent:0 ~act:"alpha");
  let t = that () in
  (* i fires unconditionally at time 1: deterministic. *)
  check_bool "unconditional deterministic" true (Action.is_deterministic t ~agent:0 ~act:"alpha");
  (* j's send_mj' happens only from bit1, probabilistically: mixed. *)
  check_bool "j send mixed" false (Action.is_deterministic t ~agent:1 ~act:"send_mj")

let test_action_lstates () =
  let t = that () in
  let ls = Action.performing_lstates t ~agent:0 ~act:"alpha" in
  check_int "Li[alpha] size" 2 (List.length ls);
  Alcotest.(check (list string)) "Li[alpha] labels" [ "got_mj"; "got_mj'" ]
    (List.map Tree.lkey_label ls);
  let k = Tree.lkey_make ~agent:0 ~time:1 ~label:"got_mj" in
  check_int "alpha@got_mj" 2 (Bitset.cardinal (Action.performed_at_lstate t ~agent:0 ~act:"alpha" k))

(* [Gen.proper_actions] decides every candidate in one walk; it must
   agree with filtering the agents' actions through [Action.is_proper].
   Gen labels embed the depth, so only the built-in systems have
   improper actions. *)
let test_action_proper_actions () =
  let gen, builtin = oracle_trees () in
  let by_filter t =
    List.concat_map
      (fun agent ->
        List.filter_map
          (fun act -> if Action.is_proper t ~agent ~act then Some (agent, act) else None)
          (Tree.agent_actions t ~agent))
      (List.init (Tree.n_agents t) Fun.id)
    |> List.sort compare
  in
  List.iter
    (fun (name, t) ->
      Alcotest.(check (list (pair int string))) name (by_filter t) (Gen.proper_actions t);
      Alcotest.(check (list (pair int string)))
        (name ^ ", path oracle") (Gen_oracle.proper_actions_by_paths t) (Gen.proper_actions t))
    (gen @ builtin);
  let candidates t =
    List.fold_left (fun n agent -> n + List.length (Tree.agent_actions t ~agent)) 0
      (List.init (Tree.n_agents t) Fun.id)
  in
  check_bool "some built-in system has an improper action" true
    (List.exists (fun (_, t) -> List.length (Gen.proper_actions t) < candidates t) builtin)

(* Everything [Action] answers about a tree, results and exceptions
   alike, as comparable lines: every agent (and one on each side of
   the range) against every action it performs plus an unknown label,
   every run (and one on each side of the range), every local state of
   the agent plus one of another agent and one that never occurs. *)
module type ACTION = sig
  val occurrences : Tree.t -> agent:int -> act:string -> (int * int) list
  val runs_performing : Tree.t -> agent:int -> act:string -> Bitset.t
  val count_in_run : Tree.t -> agent:int -> act:string -> run:int -> int
  val time_performed : Tree.t -> agent:int -> act:string -> run:int -> int option
  val is_performed : Tree.t -> agent:int -> act:string -> bool
  val is_proper : Tree.t -> agent:int -> act:string -> bool
  val check_proper : Tree.t -> agent:int -> act:string -> unit
  val is_deterministic : Tree.t -> agent:int -> act:string -> bool
  val performing_lstates : Tree.t -> agent:int -> act:string -> Tree.lkey list
  val performed_at_lstate : Tree.t -> agent:int -> act:string -> Tree.lkey -> Bitset.t
end

module Action_answers (A : ACTION) = struct
  let show_keys keys = String.concat ";" (List.map (Format.asprintf "%a" Tree.pp_lkey) keys)
  let show_runs ev = String.concat "," (List.map string_of_int (Bitset.to_list ev))

  let answers t =
    let out = ref [] in
    let say what f =
      out := (what ^ ": " ^ (try f () with e -> "raised " ^ Printexc.to_string e)) :: !out
    in
    let n = Tree.n_agents t in
    let agents = List.init (n + 2) (fun i -> i - 1) in
    List.iter
      (fun agent ->
        let in_range = agent >= 0 && agent < n in
        let acts = "no-such-action" :: (if in_range then Tree.agent_actions t ~agent else []) in
        List.iter
          (fun act ->
            let what name = Printf.sprintf "%s agent %d %s" name agent act in
            say (what "occurrences") (fun () ->
                String.concat ";"
                  (List.map (fun (r, time) -> Printf.sprintf "%d,%d" r time)
                     (A.occurrences t ~agent ~act)));
            say (what "runs_performing") (fun () -> show_runs (A.runs_performing t ~agent ~act));
            say (what "is_performed") (fun () -> string_of_bool (A.is_performed t ~agent ~act));
            say (what "is_proper") (fun () -> string_of_bool (A.is_proper t ~agent ~act));
            say (what "check_proper") (fun () -> A.check_proper t ~agent ~act; "ok");
            say (what "is_deterministic") (fun () ->
                string_of_bool (A.is_deterministic t ~agent ~act));
            say (what "performing_lstates") (fun () ->
                show_keys (A.performing_lstates t ~agent ~act));
            for run = -1 to Tree.n_runs t do
              say (what (Printf.sprintf "count_in_run %d" run)) (fun () ->
                  string_of_int (A.count_in_run t ~agent ~act ~run));
              say (what (Printf.sprintf "time_performed %d" run)) (fun () ->
                  match A.time_performed t ~agent ~act ~run with
                  | None -> "none"
                  | Some time -> string_of_int time)
            done;
            let keys =
              Tree.lkey_make ~agent ~time:1 ~label:"nowhere"
              :: (if in_range then Tree.lstates t ~agent else [])
              @ (if n > 1 then [ List.hd (Tree.lstates t ~agent:((max agent 0 + 1) mod n)) ]
                 else [])
            in
            List.iter
              (fun key ->
                say (what (Format.asprintf "performed_at_lstate %a" Tree.pp_lkey key))
                  (fun () -> show_runs (A.performed_at_lstate t ~agent ~act key)))
              keys)
          acts)
      agents;
    List.rev !out
end

module Answers = Action_answers (Action)
module Oracle_answers = Action_answers (Action_oracle)

let same_action_answers t = Answers.answers t = Oracle_answers.answers t

(* Node-reading [Action] against the point-walking one it replaced, on
   the built-in systems (improper and mixed actions) and the fixed Gen
   and arbitrary families. *)
let test_action_point_oracle () =
  let gen, builtin = oracle_trees () in
  List.iter
    (fun (name, t) ->
      Alcotest.(check (list string)) name (Oracle_answers.answers t) (Answers.answers t))
    (builtin @ gen)

(* Random generator parameters: depth 0-5, 1-3 agents, deterministic
   acts, and two-digit labels. Three agents with mixed acts stay at
   depth 3 or less, where a node can have 16 children. *)
let gen_params_arb =
  let params (depth, n_agents, deterministic_acts, wide) =
    let depth = if n_agents = 3 && not deterministic_acts then min depth 3 else depth in
    { Gen.default_params with
      Gen.depth; n_agents; deterministic_acts;
      label_alphabet = (if wide then 12 else 2);
      act_alphabet = (if wide then 11 else 3)
    }
  in
  QCheck.(map params (quad (int_range 0 5) (int_range 1 3) bool bool))

let prop_action_point_oracle =
  QCheck.Test.make ~count:80 ~name:"Action matches the point-walking oracle"
    QCheck.(pair (int_range 0 1_000_000) gen_params_arb)
    (fun (seed, params) ->
      (* The oracle walks every point per query; depth 5 stays with the
         fixed families of [test_action_point_oracle]. *)
      let params = { params with Gen.depth = min params.Gen.depth 4 } in
      same_action_answers (Gen.tree ~params seed)
      && same_action_answers (Gen.tree_arbitrary ~params seed))

(* ------------------------------------------------------------------ *)
(* Beliefs                                                             *)
(* ------------------------------------------------------------------ *)

let test_belief_figure1 () =
  let t = figure1 () in
  let psi = Fact.not_ (Fact.does t ~agent:0 ~act:"alpha") in
  (* beta_i(psi) at the initial state is 1/2 in both runs. *)
  check_q "beta at (r,0)" Q.half (Belief.degree psi ~agent:0 ~run:0 ~time:0);
  check_q "beta at (r',0)" Q.half (Belief.degree psi ~agent:0 ~run:1 ~time:0);
  (* beta@alpha: 1/2 in the run performing alpha, 0 by convention in r'. *)
  check_q "beta@alpha in r" Q.half (Belief.at_action psi ~agent:0 ~act:"alpha" ~run:0);
  check_q "beta@alpha in r'" Q.zero (Belief.at_action psi ~agent:0 ~act:"alpha" ~run:1);
  (* mu(psi@alpha | alpha) = 0 while beliefs meet 1/2: Thm 4.2 premise
     fails to transfer because independence fails. *)
  check_q "mu(psi@alpha|alpha)" Q.zero (Constr.mu_given_action psi ~agent:0 ~act:"alpha")

let test_belief_that () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  (* At "got_mj" the belief is (p-ε)/(1-ε) = 2/3; at "got_mj'" it is 1. *)
  check_q "pooled belief" (q 2 3)
    (Belief.degree_at_lstate bit1 (Tree.lkey_make ~agent:0 ~time:1 ~label:"got_mj"));
  check_q "revealing belief" Q.one
    (Belief.degree_at_lstate bit1 (Tree.lkey_make ~agent:0 ~time:1 ~label:"got_mj'"));
  check_q "mu = p" (q 3 4) (Constr.mu_given_action bit1 ~agent:0 ~act:"alpha");
  (* Theorem 5.2's quantities: µ(β ≥ p | α) = ε = 1/4. *)
  let strong = Belief.threshold_event bit1 ~agent:0 ~act:"alpha" ~cmp:`Geq (q 3 4) in
  check_q "µ(β≥p|α) = ε" (q 1 4)
    (Tree.cond t strong ~given:(Action.runs_performing t ~agent:0 ~act:"alpha"));
  (* Expected belief equals µ (Theorem 6.2): 3/4·(2/3) + 1/4·1 = 3/4. *)
  check_q "expected belief" (q 3 4) (Belief.expected_at_action bit1 ~agent:0 ~act:"alpha");
  check_bool "min belief" true
    (Belief.min_at_action bit1 ~agent:0 ~act:"alpha" = Some (q 2 3))

(* ------------------------------------------------------------------ *)
(* Independence                                                        *)
(* ------------------------------------------------------------------ *)

let test_independence () =
  let t1 = figure1 () in
  let psi = Fact.not_ (Fact.does t1 ~agent:0 ~act:"alpha") in
  check_bool "figure 1 fails" false (Independence.holds psi ~agent:0 ~act:"alpha");
  let fails = Independence.failures psi ~agent:0 ~act:"alpha" in
  check_int "one failing lstate" 1 (List.length fails);
  (match fails with
   | [ f ] ->
     check_q "belief side" Q.half f.Independence.belief;
     check_q "act prob side" Q.half f.Independence.act_prob;
     check_q "joint side" Q.zero f.Independence.joint
   | _ -> Alcotest.fail "expected exactly one failure");
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  check_bool "past-based fact independent" true (Independence.holds bit1 ~agent:0 ~act:"alpha")

(* ------------------------------------------------------------------ *)
(* Constraints and theorems                                            *)
(* ------------------------------------------------------------------ *)

let test_constraint_report () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  let c = Constr.make ~agent:0 ~act:"alpha" ~fact:bit1 ~threshold:(q 7 10) in
  check_bool "holds at 0.7" true (Constr.holds c);
  let r = Constr.report c in
  check_q "report mu" (q 3 4) r.Constr.mu;
  check_q "report action measure" Q.one r.Constr.action_measure;
  check_bool "report satisfied" true r.Constr.satisfied;
  check_bool "report independent" true r.Constr.independent;
  let c2 = Constr.make ~agent:0 ~act:"alpha" ~fact:bit1 ~threshold:(q 4 5) in
  check_bool "fails at 0.8" false (Constr.holds c2);
  Alcotest.check_raises "bad threshold"
    (Invalid_argument "Constr.make: threshold must be a probability") (fun () ->
      ignore (Constr.make ~agent:0 ~act:"alpha" ~fact:bit1 ~threshold:(q 3 2)))

let test_theorem_62_counterexample () =
  (* Figure 1 with ϕ = does(α): µ = 1 but E[β] = 1/2; independence
     fails, so Theorem 6.2 is not contradicted. *)
  let t = figure1 () in
  let phi = Fact.does t ~agent:0 ~act:"alpha" in
  let r = Theorems.expectation_identity phi ~agent:0 ~act:"alpha" in
  check_q "mu" Q.one r.Theorems.mu;
  check_q "expected" Q.half r.Theorems.expected_belief;
  check_bool "not independent" false r.Theorems.independent;
  check_bool "identity fails" false r.Theorems.identity;
  check_bool "theorem respected" true r.Theorems.respected

let test_theorem_62_that () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  let r = Theorems.expectation_identity bit1 ~agent:0 ~act:"alpha" in
  check_bool "independent" true r.Theorems.independent;
  check_bool "identity holds" true r.Theorems.identity;
  check_q "both sides 3/4" (q 3 4) r.Theorems.expected_belief

let test_theorem_42 () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  (* p = 2/3: beliefs are 2/3 and 1, so the premise holds; µ = 3/4 ≥ 2/3. *)
  let r = Theorems.sufficiency bit1 ~agent:0 ~act:"alpha" ~p:(q 2 3) in
  check_bool "premise" true r.Theorems.premise;
  check_bool "conclusion" true r.Theorems.conclusion;
  check_bool "respected" true r.Theorems.respected;
  check_q "min belief" (q 2 3) r.Theorems.min_belief;
  (* p = 3/4: premise fails (min belief 2/3), nothing is claimed. *)
  let r2 = Theorems.sufficiency bit1 ~agent:0 ~act:"alpha" ~p:(q 3 4) in
  check_bool "premise fails" false r2.Theorems.premise;
  check_bool "still respected" true r2.Theorems.respected;
  (* Figure 1: premise holds at p=1/2 but µ=0 — independence is false,
     so the implication is vacuous and respected. *)
  let t1 = figure1 () in
  let psi = Fact.not_ (Fact.does t1 ~agent:0 ~act:"alpha") in
  let r3 = Theorems.sufficiency psi ~agent:0 ~act:"alpha" ~p:Q.half in
  check_bool "fig1 premise" true r3.Theorems.premise;
  check_bool "fig1 conclusion fails" false r3.Theorems.conclusion;
  check_bool "fig1 not independent" false r3.Theorems.independent;
  check_bool "fig1 respected" true r3.Theorems.respected

let test_lemma_43 () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  let r = Theorems.lemma43 bit1 ~agent:0 ~act:"alpha" in
  check_bool "alpha deterministic" true r.Theorems.deterministic;
  check_bool "bit1 past based" true r.Theorems.past_based;
  check_bool "independent" true r.Theorems.independent;
  check_bool "respected" true r.Theorems.respected;
  let t1 = figure1 () in
  let psi = Fact.not_ (Fact.does t1 ~agent:0 ~act:"alpha") in
  let r2 = Theorems.lemma43 psi ~agent:0 ~act:"alpha" in
  check_bool "fig1 neither hypothesis" true
    ((not r2.Theorems.deterministic) && not r2.Theorems.past_based);
  check_bool "fig1 respected (vacuous)" true r2.Theorems.respected

let test_lemma_51 () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  let r = Theorems.necessity_exists bit1 ~agent:0 ~act:"alpha" ~p:(q 3 4) in
  check_bool "constraint holds" true r.Theorems.constraint_holds;
  check_bool "witness exists" true (r.Theorems.witness <> None);
  (* The witness must be the m'_j run (belief 1 ≥ 3/4). *)
  (match r.Theorems.witness with
   | Some (run, time) ->
     check_q "witness belief" Q.one (Belief.degree bit1 ~agent:0 ~run ~time)
   | None -> Alcotest.fail "no witness");
  check_bool "respected" true r.Theorems.respected

let test_theorem_71_corollary_72 () =
  let t = that () in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  (* µ = 3/4 = 1 - 1/4 ≥ 1 - δε needs δε ≥ 1/4, e.g. δ = 1/2, ε = 1/2. *)
  let r = Theorems.pak bit1 ~agent:0 ~act:"alpha" ~eps:Q.half ~delta:Q.half in
  check_bool "premise" true r.Theorems.premise;
  check_bool "conclusion" true r.Theorems.conclusion;
  check_bool "respected" true r.Theorems.respected;
  check_q "µ(β ≥ 1/2 | α)" Q.one r.Theorems.strong_belief_measure;
  let r2 = Theorems.pak_corollary bit1 ~agent:0 ~act:"alpha" ~eps:Q.half in
  check_bool "corollary respected" true r2.Theorems.respected;
  Alcotest.check_raises "bad eps" (Invalid_argument "Theorems.pak: eps and delta must lie in (0,1)")
    (fun () -> ignore (Theorems.pak bit1 ~agent:0 ~act:"alpha" ~eps:Q.one ~delta:Q.half))

let test_kop () =
  (* A reliable variant: i performs alpha only when bit = 1 surely
     holds. Tree: two initial states; alpha performed only from bit1. *)
  let b = Tree.Builder.create ~n_agents:2 in
  let s0 = Tree.Builder.add_initial b ~prob:Q.half (Gstate.of_labels "e" [ "i_idle"; "bit0" ]) in
  let s1 = Tree.Builder.add_initial b ~prob:Q.half (Gstate.of_labels "e" [ "i_go"; "bit1" ]) in
  ignore
    (Tree.Builder.add_child b ~parent:s0 ~prob:Q.one ~acts:[| "e"; "skip"; "noop" |]
       (Gstate.of_labels "e" [ "i_idle1"; "bit0" ]));
  ignore
    (Tree.Builder.add_child b ~parent:s1 ~prob:Q.one ~acts:[| "e"; "alpha"; "noop" |]
       (Gstate.of_labels "e" [ "i_done"; "bit1" ]));
  let t = Tree.Builder.finalize b in
  let bit1 = Fact.of_state_pred t (fun g -> Gstate.local g 1 = "bit1") in
  let r = Theorems.kop bit1 ~agent:0 ~act:"alpha" in
  check_q "mu = 1" Q.one r.Theorems.mu;
  check_bool "premise" true r.Theorems.premise;
  check_q "certainty measure" Q.one r.Theorems.certain_measure;
  check_bool "conclusion" true r.Theorems.conclusion;
  check_bool "respected" true r.Theorems.respected

(* ------------------------------------------------------------------ *)
(* Property-based tests on generated systems                           *)
(* ------------------------------------------------------------------ *)

let seeds = QCheck.int_range 0 1_000_000

let with_proper_action ?params seed k =
  let tree = Gen.tree ?params seed in
  match Gen.pick_proper_action tree ~seed with
  | None -> QCheck.assume_fail ()
  | Some (agent, act) -> k tree agent act

let prop_total_measure_one =
  QCheck.Test.make ~count:100 ~name:"generated tree has total measure 1" seeds (fun seed ->
      let tree = Gen.tree seed in
      Q.equal Q.one (Tree.measure tree (Tree.all_runs tree)))

let prop_run_measures_positive =
  QCheck.Test.make ~count:100 ~name:"every run has positive measure" seeds (fun seed ->
      let tree = Gen.tree seed in
      let ok = ref true in
      for r = 0 to Tree.n_runs tree - 1 do
        if Q.sign (Tree.run_measure tree r) <> 1 then ok := false
      done;
      !ok)

let prop_generated_actions_proper =
  QCheck.Test.make ~count:100 ~name:"generated action labels are proper" seeds (fun seed ->
      let tree = Gen.tree seed in
      (* Depth-tagged labels can occur at most once per run. *)
      List.for_all
        (fun (agent, act) -> Action.is_proper tree ~agent ~act)
        (Gen.proper_actions tree))

let prop_past_based_fact_is_past_based =
  QCheck.Test.make ~count:100 ~name:"Gen.past_based_fact is past-based" seeds (fun seed ->
      let tree = Gen.tree seed in
      Fact.is_past_based (Gen.past_based_fact tree ~seed))

(* The definition, pairwise over points: a fact is past-based iff it
   agrees at (r,t) and (r',t) whenever r and r' share their prefix up
   to t. *)
let prop_is_past_based_pairwise =
  QCheck.Test.make ~count:100 ~name:"Fact.is_past_based matches the pairwise definition" seeds
    (fun seed ->
      let tree = Gen.tree_arbitrary seed in
      let naive f =
        Tree.fold_points tree ~init:true ~f:(fun acc ~run ~time ->
            acc
            && List.for_all
                 (fun run' ->
                   (not (Tree.runs_agree_upto tree run run' ~time))
                   || Fact.holds f ~run ~time = Fact.holds f ~run:run' ~time)
                 (List.init (Tree.n_runs tree) Fun.id))
      in
      List.for_all
        (fun f -> Fact.is_past_based f = naive f)
        [ Gen.past_based_fact tree ~seed; Gen.transient_fact tree ~seed; Gen.run_fact tree ~seed ])

let prop_lemma43_past_based =
  QCheck.Test.make ~count:120 ~name:"Lemma 4.3(b): past-based => independent" seeds
    (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.past_based_fact tree ~seed in
          let r = Theorems.lemma43 fact ~agent ~act in
          r.Theorems.past_based && r.Theorems.independent))

let det_params = { Gen.default_params with deterministic_acts = true }

let prop_lemma43_deterministic =
  QCheck.Test.make ~count:120 ~name:"Lemma 4.3(a): deterministic => independent" seeds
    (fun seed ->
      with_proper_action ~params:det_params seed (fun tree agent act ->
          QCheck.assume (Action.is_deterministic tree ~agent ~act);
          (* Even an arbitrary future-dependent fact must be independent
             of a deterministic action. *)
          let fact = Gen.transient_fact tree ~seed in
          Independence.holds fact ~agent ~act))

let prop_theorem62_random =
  QCheck.Test.make ~count:120 ~name:"Theorem 6.2 on random systems (past-based facts)"
    seeds (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.past_based_fact tree ~seed in
          let r = Theorems.expectation_identity fact ~agent ~act in
          r.Theorems.independent && r.Theorems.identity))

let prop_theorem62_transient =
  QCheck.Test.make ~count:120
    ~name:"Theorem 6.2 on random systems (any fact, conditional on independence)" seeds
    (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.transient_fact tree ~seed in
          (Theorems.expectation_identity fact ~agent ~act).Theorems.respected))

let prop_theorem42_random =
  QCheck.Test.make ~count:120 ~name:"Theorem 4.2 on random systems" seeds (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.past_based_fact tree ~seed in
          (* Use the minimum belief itself as threshold: premise holds
             by construction; conclusion must follow. *)
          match Belief.min_at_action fact ~agent ~act with
          | None -> false
          | Some p -> (Theorems.sufficiency fact ~agent ~act ~p).Theorems.respected))

let prop_lemma51_random =
  QCheck.Test.make ~count:120 ~name:"Lemma 5.1 on random systems" seeds (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.past_based_fact tree ~seed in
          let p = Constr.mu_given_action fact ~agent ~act in
          (* Constraint holds with threshold = µ itself. *)
          (Theorems.necessity_exists fact ~agent ~act ~p).Theorems.respected))

let prop_theorem71_random =
  QCheck.Test.make ~count:120 ~name:"Theorem 7.1 on random systems (grid of eps, delta)"
    seeds (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.past_based_fact tree ~seed in
          List.for_all
            (fun (e, d) ->
              (Theorems.pak fact ~agent ~act ~eps:(q 1 e) ~delta:(q 1 d)).Theorems.respected)
            [ (2, 2); (2, 5); (5, 2); (10, 10); (3, 7) ]))

let prop_corollary72_random =
  QCheck.Test.make ~count:120 ~name:"Corollary 7.2 on random systems" seeds (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.past_based_fact tree ~seed in
          List.for_all
            (fun e ->
              (Theorems.pak_corollary fact ~agent ~act ~eps:(q 1 e)).Theorems.respected)
            [ 2; 3; 5; 10 ]))

let prop_kop_random =
  QCheck.Test.make ~count:120 ~name:"Lemma F.1 (KoP) on random systems" seeds (fun seed ->
      with_proper_action seed (fun tree agent act ->
          let fact = Gen.past_based_fact tree ~seed in
          (Theorems.kop fact ~agent ~act).Theorems.respected))

let prop_run_facts_constant =
  QCheck.Test.make ~count:100 ~name:"run facts are about runs" seeds (fun seed ->
      let tree = Gen.tree seed in
      Fact.is_about_runs (Gen.run_fact tree ~seed))

let prop_belief_is_probability =
  QCheck.Test.make ~count:100 ~name:"beliefs are probabilities" seeds (fun seed ->
      let tree = Gen.tree seed in
      let fact = Gen.transient_fact tree ~seed in
      Tree.fold_points tree ~init:true ~f:(fun acc ~run ~time ->
          acc
          && (let ok = ref true in
              for agent = 0 to Tree.n_agents tree - 1 do
                if not (Q.is_probability (Belief.degree fact ~agent ~run ~time)) then
                  ok := false
              done;
              !ok)))

let prop_belief_complement =
  QCheck.Test.make ~count:100 ~name:"beta(phi) + beta(not phi) = 1" seeds (fun seed ->
      let tree = Gen.tree seed in
      let fact = Gen.transient_fact tree ~seed in
      let neg = Fact.not_ fact in
      Tree.fold_points tree ~init:true ~f:(fun acc ~run ~time ->
          acc
          && Q.equal Q.one
               (Q.add
                  (Belief.degree fact ~agent:0 ~run ~time)
                  (Belief.degree neg ~agent:0 ~run ~time))))

(* ------------------------------------------------------------------ *)
(* Fact against a point-by-point model                                 *)
(* ------------------------------------------------------------------ *)

(* The model of a fact is a bool matrix [run].(time), and every Fact
   operation is checked against its pointwise definition on that
   matrix. Trees: Gen at depths 1-5, Gen.tree_arbitrary with early
   leaves (runs of different lengths), and the built-in systems. *)
let fact_model_trees =
  lazy
    (let module S = Pak_systems in
     let gen d seed = Gen.tree ~params:{ Gen.default_params with Gen.depth = d } seed in
     let arbitrary seed =
       Gen.tree_arbitrary
         ~params:{ Gen.default_params with Gen.depth = 4; early_stop_pct = 35 }
         seed
     in
     Array.of_list
       (List.concat_map (fun d -> [ gen d 1; gen d 2 ]) [ 1; 2; 3; 4; 5 ]
       @ List.map arbitrary [ 1; 2; 3; 4 ]
       @ [ S.Firing_squad.tree S.Firing_squad.Original;
           S.Firing_squad.tree S.Firing_squad.Improved;
           S.Figure_one.tree ();
           S.Threshold_gap.tree ~p:Q.half ~eps:(Q.of_ints 1 10);
           S.Coordinated_attack.tree ~rounds:2 ();
           S.Mutex.tree ();
           S.Judge.tree ~rounds:3 ~convict_at:2 ();
           S.Consensus.tree ~rounds:2 ();
           S.Aloha.tree ~n:2 ~slots:2 ();
           S.Interactive_proof.tree ~rounds:2 ()
         ]))

let prop_fact_model =
  let trees = fact_model_trees in
  QCheck.Test.make ~count:300 ~name:"Fact operations match a bool-matrix model"
    QCheck.(pair (int_range 0 1000) (int_range 0 1_000_000))
    (fun (pick, seed) ->
      let trees = Lazy.force trees in
      let t = trees.(pick mod Array.length trees) in
      let n_runs = Tree.n_runs t in
      let len r = Tree.run_length t r in
      let model p = Array.init n_runs (fun run -> Array.init (len run) (fun time -> p ~run ~time)) in
      let of_fact f = model (Fact.holds f) in
      let same f m = of_fact f = m in
      let map m g = Array.map (Array.map g) m in
      let map2 m m' g = Array.map2 (Array.map2 g) m m' in
      let per_run m g = Array.map (fun row -> Array.map (fun _ -> g row) row) m in
      let scan m init g =
        Array.map
          (fun row ->
            let acc = ref init in
            Array.map (fun v -> acc := g !acc v; !acc) row)
          m
      in
      let p salt ~run ~time = Hashtbl.hash (seed, salt, run, time) mod 3 = 0 in
      let a = Fact.of_pred t (p 1) and b = Fact.of_pred t (p 2) in
      let ma = model (p 1) and mb = model (p 2) in
      let raises msg thunk =
        match thunk () with
        | _ -> false
        | exception Invalid_argument m -> m = msg
      in
      let agents = List.init (Tree.n_agents t) Fun.id in
      let runs_where g = List.filter g (List.init n_runs Fun.id) in
      let exists_time run g = List.exists g (List.init (len run) Fun.id) in
      let is_run_model m = Array.for_all (fun row -> Array.for_all (( = ) row.(0)) row) m in
      let past_based_model m =
        let seen = Hashtbl.create 64 in
        Array.for_all Fun.id
          (Array.mapi
             (fun run row ->
               Array.for_all Fun.id
                 (Array.mapi
                    (fun time v ->
                      let node = Tree.run_node t ~run ~time in
                      match Hashtbl.find_opt seen node with
                      | Some v' -> v = v'
                      | None -> Hashtbl.add seen node v; true)
                    row))
             m)
      in
      let state_pred g = Hashtbl.hash (seed, Gstate.local g 0) mod 2 = 0 in
      let run_pred r = Hashtbl.hash (seed, r) mod 2 = 0 in
      let ev = Fact.eventually a in
      (* Constructors. *)
      same (Fact.tt t) (model (fun ~run:_ ~time:_ -> true))
      && same (Fact.ff t) (model (fun ~run:_ ~time:_ -> false))
      && same a ma
      && Bitset.cardinal (Fact.points a) = List.length (Fact.to_list a)
      && Fact.to_list a
         = List.concat
             (List.init n_runs (fun run ->
                  List.filter_map
                    (fun time -> if ma.(run).(time) then Some (run, time) else None)
                    (List.init (len run) Fun.id)))
      && same (Fact.of_state_pred t state_pred)
           (model (fun ~run ~time -> state_pred (Tree.node_state t (Tree.run_node t ~run ~time))))
      && same (Fact.of_run_pred t run_pred) (model (fun ~run ~time:_ -> run_pred run))
      && List.for_all
           (fun agent ->
             let acts = Tree.agent_actions t ~agent in
             List.for_all
               (fun act ->
                 same (Fact.does t ~agent ~act)
                   (model (fun ~run ~time -> Tree.action_at t ~agent ~run ~time = Some act)))
               acts
             && List.for_all
                  (fun key ->
                    let label = Tree.lkey_label key in
                    same
                      (Fact.local_label_is t ~agent ~label)
                      (model (fun ~run ~time ->
                           Tree.lkey_label (Tree.lkey t ~agent ~run ~time) = label))
                    && same (Fact.of_lstates t [ key ])
                         (model (fun ~run ~time -> Tree.lkey t ~agent ~run ~time = key)))
                  (Tree.lstates t ~agent))
           agents
      (* Connectives. *)
      && same (Fact.not_ a) (map ma not)
      && same (Fact.and_ a b) (map2 ma mb ( && ))
      && same (Fact.or_ a b) (map2 ma mb ( || ))
      && same (Fact.implies a b) (map2 ma mb (fun x y -> (not x) || y))
      && same (Fact.iff a b) (map2 ma mb ( = ))
      && same (Fact.conj t [ a; b ]) (map2 ma mb ( && ))
      && same (Fact.disj t [ a; b ]) (map2 ma mb ( || ))
      (* Temporal operators. *)
      && same ev (per_run ma (Array.exists Fun.id))
      && same (Fact.globally a) (per_run ma (Array.for_all Fun.id))
      && same (Fact.once a) (scan ma false ( || ))
      && same (Fact.historically a) (scan ma true ( && ))
      && same (Fact.next a)
           (Array.map
              (fun row -> Array.mapi (fun time _ -> time + 1 < Array.length row && row.(time + 1)) row)
              ma)
      && List.for_all
           (fun k ->
             same (Fact.at_time t k a)
               (per_run ma (fun row -> k < Array.length row && row.(k))))
           (List.init 7 Fun.id)
      (* Queries and their errors. *)
      && raises "Fact.holds: unknown run" (fun () -> Fact.holds a ~run:(-1) ~time:0)
      && raises "Fact.holds: unknown run" (fun () -> Fact.holds a ~run:n_runs ~time:0)
      && raises "Fact.holds: time out of range for run" (fun () ->
             Fact.holds a ~run:0 ~time:(-1))
      && raises "Fact.holds: time out of range for run" (fun () ->
             Fact.holds a ~run:(n_runs - 1) ~time:(len (n_runs - 1)))
      && Fact.is_about_runs a = is_run_model ma
      && Fact.is_about_runs ev
      && Fact.is_past_based a = past_based_model ma
      && Fact.is_past_based (Fact.once a) = past_based_model (scan ma false ( || ))
      && Bitset.to_list (Fact.event_of_run_fact ev) = runs_where (fun r -> exists_time r (fun time -> ma.(r).(time)))
      && (is_run_model ma
         || raises "Fact.event_of_run_fact: fact is not a fact about runs" (fun () ->
                Fact.event_of_run_fact a))
      (* The @-operators. *)
      && List.for_all
           (fun agent ->
             List.for_all
               (fun key ->
                 Bitset.to_list (Fact.at_lstate a key)
                 = runs_where (fun r ->
                       exists_time r (fun time ->
                           Tree.lkey t ~agent ~run:r ~time = key && ma.(r).(time))))
               (Tree.lstates t ~agent))
           agents
      && List.for_all
           (fun (agent, act) ->
             Bitset.to_list (Fact.at_action a ~agent ~act)
             = runs_where (fun r ->
                   exists_time r (fun time ->
                       Tree.action_at t ~agent ~run:r ~time = Some act && ma.(r).(time))))
           (Gen.proper_actions t))

(* [Gen] against the Printf-based generator it replaced: the same
   documents byte for byte and the same proper actions as both oracle
   passes, across depth 0-5, 1-3 agents, deterministic acts and
   two-digit labels. *)
let prop_gen_oracle =
  QCheck.Test.make ~count:200 ~name:"Gen matches the Printf-based generator"
    QCheck.(pair (int_range 0 1_000_000) gen_params_arb)
    (fun (seed, params) ->
      let same t t0 =
        Tree_io.to_string t = Tree_io.to_string t0
        && Gen.proper_actions t = Gen_oracle.proper_actions t0
        && Gen.proper_actions t = Gen_oracle.proper_actions_by_paths t
      in
      same (Gen.tree ~params seed) (Gen_oracle.tree ~params seed)
      && same (Gen.tree_arbitrary ~params seed) (Gen_oracle.tree_arbitrary ~params seed))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bitset_bulk_oracle;
      prop_total_measure_one;
      prop_run_measures_positive;
      prop_generated_actions_proper;
      prop_past_based_fact_is_past_based;
      prop_is_past_based_pairwise;
      prop_lemma43_past_based;
      prop_lemma43_deterministic;
      prop_theorem62_random;
      prop_theorem62_transient;
      prop_theorem42_random;
      prop_lemma51_random;
      prop_theorem71_random;
      prop_corollary72_random;
      prop_kop_random;
      prop_run_facts_constant;
      prop_belief_is_probability;
      prop_belief_complement
    ]

let () =
  Alcotest.run "pak_pps"
    [ ( "bitset",
        [ Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "set operations" `Quick test_bitset_ops;
          Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundary
        ] );
      ( "tree",
        [ Alcotest.test_case "structure" `Quick test_tree_structure;
          Alcotest.test_case "actions" `Quick test_tree_actions;
          Alcotest.test_case "local states" `Quick test_tree_lstates;
          Alcotest.test_case "validation" `Quick test_tree_validation;
          Alcotest.test_case "synchrony check" `Quick test_tree_synchrony_check;
          Alcotest.test_case "protocol consistency check" `Quick test_tree_protocol_consistency;
          Alcotest.test_case "dot export" `Quick test_tree_dot;
          Alcotest.test_case "finalize index oracle" `Quick test_tree_finalize_index;
          Alcotest.test_case "initial nodes" `Quick test_tree_initial_nodes;
          Alcotest.test_case "finalize oracle" `Quick test_tree_finalize_oracle;
          Alcotest.test_case "finalize int boundaries" `Quick test_tree_finalize_boundaries
        ] );
      ( "fact",
        [ Alcotest.test_case "basics" `Quick test_fact_basics;
          Alcotest.test_case "cross-tree guard" `Quick test_fact_cross_tree_guard;
          Alcotest.test_case "temporal operators" `Quick test_fact_temporal;
          Alcotest.test_case "run facts" `Quick test_fact_run_facts;
          Alcotest.test_case "past-based" `Quick test_fact_past_based;
          Alcotest.test_case "@-operators" `Quick test_fact_at_operators;
          QCheck_alcotest.to_alcotest prop_fact_model
        ] );
      ( "action",
        [ Alcotest.test_case "properness" `Quick test_action_properness;
          Alcotest.test_case "determinism" `Quick test_action_determinism;
          Alcotest.test_case "Li[alpha]" `Quick test_action_lstates;
          Alcotest.test_case "proper_actions one walk" `Quick test_action_proper_actions;
          Alcotest.test_case "point-walking oracle" `Quick test_action_point_oracle;
          QCheck_alcotest.to_alcotest prop_action_point_oracle
        ] );
      ( "belief",
        [ Alcotest.test_case "figure 1" `Quick test_belief_figure1;
          Alcotest.test_case "T-hat" `Quick test_belief_that
        ] );
      ( "independence",
        [ Alcotest.test_case "definition 4.1" `Quick test_independence ] );
      ( "constraints",
        [ Alcotest.test_case "report" `Quick test_constraint_report ] );
      ( "theorems",
        [ Alcotest.test_case "6.2 counterexample (fig 1)" `Quick test_theorem_62_counterexample;
          Alcotest.test_case "6.2 on T-hat" `Quick test_theorem_62_that;
          Alcotest.test_case "4.2 sufficiency" `Quick test_theorem_42;
          Alcotest.test_case "4.3 lemma" `Quick test_lemma_43;
          Alcotest.test_case "5.1 necessity" `Quick test_lemma_51;
          Alcotest.test_case "7.1 and 7.2 PAK" `Quick test_theorem_71_corollary_72;
          Alcotest.test_case "F.1 KoP" `Quick test_kop
        ] );
      ("properties", qcheck_cases);
      ("gen", [ QCheck_alcotest.to_alcotest prop_gen_oracle ])
    ]
