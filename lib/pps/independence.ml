open Pak_rational

type failure = {
  lstate : Tree.lkey;
  belief : Q.t;
  act_prob : Q.t;
  joint : Q.t;
}

(* Definition 4.1 at one local state: µ(ϕ@ℓ|ℓ)·µ(α@ℓ|ℓ) = µ([ϕ∧α]@ℓ|ℓ),
   the joint event being the intersection of the other two. *)
let failure_at fact ~agent ~act key =
  let tree = Fact.tree fact in
  let given = Tree.lstate_runs tree key in
  let phi = Fact.at_lstate fact key in
  let alpha = Action.performed_at_lstate tree ~agent ~act key in
  let belief = Tree.cond tree phi ~given in
  let act_prob = Tree.cond tree alpha ~given in
  let joint = Tree.cond tree (Bitset.inter phi alpha) ~given in
  if Q.equal (Q.mul belief act_prob) joint then None
  else Some { lstate = key; belief; act_prob; joint }

let failures fact ~agent ~act =
  List.filter_map (failure_at fact ~agent ~act) (Tree.lstates (Fact.tree fact) ~agent)

let holds fact ~agent ~act =
  List.for_all
    (fun key -> Option.is_none (failure_at fact ~agent ~act key))
    (Tree.lstates (Fact.tree fact) ~agent)

let pp_failure fmt f =
  Format.fprintf fmt "@[at %a: µ(ϕ@@ℓ|ℓ)=%a · µ(α@@ℓ|ℓ)=%a ≠ µ([ϕ∧α]@@ℓ|ℓ)=%a@]"
    Tree.pp_lkey f.lstate Q.pp f.belief Q.pp f.act_prob Q.pp f.joint
