(* Near misses of a formula, for properties that must tell formulas
   apart: [f] with, at each node, a one-in-four chance of another
   operator of the same arity, or of another atom, agent, group,
   comparison or threshold drawn from the given lists. The result often
   differs from [f] in one detail, and sometimes not at all. *)

open Pak_logic

let formula ~atoms ~agents ~groups ~cmps ~thresholds rng (f : Formula.t) =
  let redraw x xs =
    if Random.State.int rng 4 = 0 then List.nth xs (Random.State.int rng (List.length xs)) else x
  in
  let agent i = redraw i agents and group g = redraw g groups and q v = redraw v thresholds in
  let unary =
    Formula.
      [ (fun g -> Not g); (fun g -> Eventually g); (fun g -> Globally g); (fun g -> Next g);
        (fun g -> Once g); (fun g -> Historically g) ]
  in
  let binary =
    Formula.
      [ (fun a b -> And (a, b)); (fun a b -> Or (a, b)); (fun a b -> Implies (a, b));
        (fun a b -> Iff (a, b)) ]
  in
  let rec go : Formula.t -> Formula.t = function
    | (True | False) as f -> f
    | Atom s -> Atom (redraw s atoms)
    | Does (i, act) -> Does (agent i, act)
    | Not g -> redraw (List.nth unary 0) unary (go g)
    | Eventually g -> redraw (List.nth unary 1) unary (go g)
    | Globally g -> redraw (List.nth unary 2) unary (go g)
    | Next g -> redraw (List.nth unary 3) unary (go g)
    | Once g -> redraw (List.nth unary 4) unary (go g)
    | Historically g -> redraw (List.nth unary 5) unary (go g)
    | And (a, b) -> redraw (List.nth binary 0) binary (go a) (go b)
    | Or (a, b) -> redraw (List.nth binary 1) binary (go a) (go b)
    | Implies (a, b) -> redraw (List.nth binary 2) binary (go a) (go b)
    | Iff (a, b) -> redraw (List.nth binary 3) binary (go a) (go b)
    | Knows (i, g) -> Knows (agent i, go g)
    | Believes (i, c, v, g) -> Believes (agent i, redraw c cmps, q v, go g)
    | EveryoneKnows (gr, g) -> EveryoneKnows (group gr, go g)
    | CommonKnows (gr, g) -> CommonKnows (group gr, go g)
    | EveryoneBelieves (gr, v, g) -> EveryoneBelieves (group gr, q v, go g)
    | CommonBelief (gr, v, g) -> CommonBelief (group gr, q v, go g)
  in
  go f
