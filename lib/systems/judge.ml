open Pak_rational
open Pak_dist
open Pak_pps
open Pak_protocol

let judge = 0
let defendant = 1
let convict = "convict"

type ls = J of { inc : int } | D of { guilty : bool }
type env_ls = { e_guilty : bool }
type act = Noop | Signal of bool | Convict | Acquit

let act_label = function
  | Noop -> "noop"
  | Signal true -> "sig_inc"
  | Signal false -> "sig_exc"
  | Convict -> convict
  | Acquit -> "acquit"

let spec ~p_guilt ~accuracy ~rounds ~convict_at : (env_ls, ls, act) Protocol.spec =
  { n_agents = 2;
    horizon = rounds + 1;
    init =
      List.filter
        (fun (_, p) -> not (Q.is_zero p))
        [ (({ e_guilty = true }, [| J { inc = 0 }; D { guilty = true } |]), p_guilt);
          (({ e_guilty = false }, [| J { inc = 0 }; D { guilty = false } |]), Q.one_minus p_guilt)
        ];
    env_protocol =
      (fun ~time env ->
        if time >= rounds then Dist.return Noop
        else begin
          let p_inc = if env.e_guilty then accuracy else Q.one_minus accuracy in
          Dist.coin p_inc ~yes:(Signal true) ~no:(Signal false)
        end);
    agent_protocol =
      (fun ~agent ~time ls ->
        Dist.return
          (match (agent, ls) with
           | 0, J j when time = rounds -> if j.inc >= convict_at then Convict else Acquit
           | _ -> Noop));
    transition =
      (fun ~time:_ (env, locals) env_act _ ->
        match (env_act, locals.(0)) with
        | Signal s, J j -> (env, [| J { inc = j.inc + (if s then 1 else 0) }; locals.(1) |])
        | _ -> (env, locals));
    halts = (fun ~time:_ _ -> false);
    env_label = (fun env -> if env.e_guilty then "G" else "I");
    agent_label =
      (fun ~agent ls ->
        match (agent, ls) with
        | 0, J j -> Printf.sprintf "inc%d" j.inc
        | 1, D d -> (if d.guilty then "guilty" else "innocent")
        | _ -> invalid_arg "Judge.agent_label: state/agent mismatch");
    act_label
  }

let tree ?(p_guilt = Q.half) ?(accuracy = Q.of_ints 9 10) ~rounds ~convict_at () =
  if rounds < 1 then invalid_arg "Judge.tree: rounds must be at least 1";
  if convict_at < 0 || convict_at > rounds then
    invalid_arg "Judge.tree: convict_at must lie in 0..rounds";
  if not (Q.is_probability p_guilt) then invalid_arg "Judge.tree: p_guilt not a probability";
  if not (Q.is_probability accuracy) then invalid_arg "Judge.tree: accuracy not a probability";
  let t = Protocol.compile (spec ~p_guilt ~accuracy ~rounds ~convict_at) in
  if not (Action.is_performed t ~agent:judge ~act:convict) then
    invalid_arg "Judge.tree: parameters make conviction impossible (improper action)";
  t

let guilty_fact t = Fact.of_state_pred t (fun g -> Gstate.local g defendant = "guilty")

type analysis = {
  rounds : int;
  convict_at : int;
  mu_guilty_given_convict : Q.t;
  posterior_by_count : (int * Q.t) list;
  expected_belief : Q.t;
  independent : bool;
}

let analyze ?(p_guilt = Q.half) ?(accuracy = Q.of_ints 9 10) ~rounds ~convict_at () =
  let t = tree ~p_guilt ~accuracy ~rounds ~convict_at () in
  let guilty = guilty_fact t in
  let posterior_by_count =
    Action.performing_lstates t ~agent:judge ~act:convict
    |> List.map (fun k ->
           let label = Tree.lkey_label k in
           let count = int_of_string (String.sub label 3 (String.length label - 3)) in
           (count, Belief.degree_at_lstate guilty k))
    (* The judge convicts at the last round only: one local state per count. *)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  { rounds;
    convict_at;
    mu_guilty_given_convict = Constr.mu_given_action guilty ~agent:judge ~act:convict;
    posterior_by_count;
    expected_belief = Belief.expected_at_action guilty ~agent:judge ~act:convict;
    independent = Independence.holds guilty ~agent:judge ~act:convict
  }
