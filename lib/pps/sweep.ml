open Pak_rational
module Obs = Pak_obs.Obs
module Pool = Pak_par.Pool

let c_checked = Obs.counter "sweep.systems_checked"
let c_skipped = Obs.counter "sweep.systems_skipped"

type check = Expectation | Sufficiency | Lemma43 | Necessity | Pak_corollary | Kop

let all_checks = [ Expectation; Sufficiency; Lemma43; Necessity; Pak_corollary; Kop ]

let check_name = function
  | Expectation -> "thm62"
  | Sufficiency -> "thm42"
  | Lemma43 -> "lemma43"
  | Necessity -> "lemma51"
  | Pak_corollary -> "cor72"
  | Kop -> "kop"

let of_name = function
  | "thm62" -> Some Expectation
  | "thm42" -> Some Sufficiency
  | "lemma43" -> Some Lemma43
  | "lemma51" -> Some Necessity
  | "cor72" -> Some Pak_corollary
  | "kop" -> Some Kop
  | _ -> None

let paper_result = function
  | Expectation -> "Theorem 6.2"
  | Sufficiency -> "Theorem 4.2"
  | Lemma43 -> "Lemma 4.3(b)"
  | Necessity -> "Lemma 5.1"
  | Pak_corollary -> "Corollary 7.2"
  | Kop -> "Lemma F.1"

type report = {
  check : check;
  eps : Q.t;
  first_seed : int;
  count : int;
  checked : int;
  skipped : int;
  violations : int list;
}

let passed r = r.violations = [] && r.checked > 0

type outcome = Checked of bool | Skipped

(* The instance a seed contributes: generate the tree, pick the proper
   action, derive the past-based fact. A pure function of
   (params, seed) — the property every determinism guarantee of this
   module rests on. *)
let seed_instance ?(params = Gen.default_params) seed =
  let tree = Gen.tree ~params seed in
  match Gen.pick_proper_action tree ~seed with
  | None -> None
  | Some (agent, act) -> Some (tree, (agent, act), Gen.past_based_fact tree ~seed)

(* One check on one seed's instance. The per-seed semantics mirror the
   reproduction bench's random sweeps exactly. *)
let check_instance ~eps check (agent, act) fact =
  Obs.incr c_checked;
  match check with
  | Expectation ->
    let r = Theorems.expectation_identity fact ~agent ~act in
    r.Theorems.independent && r.Theorems.identity
  | Sufficiency ->
    (match Belief.min_at_action fact ~agent ~act with
     | None -> false
     | Some p -> (Theorems.sufficiency fact ~agent ~act ~p).Theorems.respected)
  | Lemma43 -> (Theorems.lemma43 fact ~agent ~act).Theorems.independent
  | Necessity ->
    let p = Constr.mu_given_action fact ~agent ~act in
    (Theorems.necessity_exists fact ~agent ~act ~p).Theorems.respected
  | Pak_corollary -> (Theorems.pak_corollary fact ~agent ~act ~eps).Theorems.respected
  | Kop -> (Theorems.kop fact ~agent ~act).Theorems.respected

(* The given checks on one seed, which is generated once for all of
   them: one outcome per check, in order. *)
let run_seed ~params ~eps checks seed =
  match seed_instance ~params seed with
  | None ->
    Obs.add c_skipped (List.length checks);
    List.map (fun _ -> Skipped) checks
  | Some (_tree, pick, fact) -> List.map (fun c -> Checked (check_instance ~eps c pick fact)) checks

(* Pool.map assembles results in seed order whatever the schedule, so
   the fold, and every report built on it, is job-count-independent. *)
let fold_seeds ?pool ~first_seed ~count f ~init step =
  let seeds = Array.init count (fun i -> first_seed + i) in
  let results = match pool with Some pool -> Pool.map pool f seeds | None -> Array.map f seeds in
  let acc = ref init in
  Array.iteri (fun i r -> acc := step !acc seeds.(i) r) results;
  !acc

let run_checks ?pool ~params ~eps checks ~first_seed ~count =
  if count < 0 then invalid_arg "Sweep.run: negative count";
  let tally (checked, skipped, violations) seed = function
    | Skipped -> (checked, skipped + 1, violations)
    | Checked ok -> (checked + 1, skipped, if ok then violations else seed :: violations)
  in
  fold_seeds ?pool ~first_seed ~count (run_seed ~params ~eps checks)
    ~init:(List.map (fun _ -> (0, 0, [])) checks)
    (fun tallies seed outcomes -> List.map2 (fun t o -> tally t seed o) tallies outcomes)
  |> List.map2
       (fun check (checked, skipped, violations) ->
         { check; eps; first_seed; count; checked; skipped; violations = List.rev violations })
       checks

let run ?pool ?(params = Gen.default_params) ?(eps = Q.of_ints 1 10) check ~first_seed ~count =
  List.hd (run_checks ?pool ~params ~eps [ check ] ~first_seed ~count)

let run_all ?pool ?(params = Gen.default_params) ?(eps = Q.of_ints 1 10) ~first_seed ~count () =
  run_checks ?pool ~params ~eps all_checks ~first_seed ~count

let pp_report fmt r =
  Format.fprintf fmt "%-8s (%s): seeds %d..%d: %d checked, %d skipped, %d violations  %s"
    (check_name r.check) (paper_result r.check) r.first_seed
    (r.first_seed + r.count - 1)
    r.checked r.skipped
    (List.length r.violations)
    (if passed r then "OK" else "FAIL");
  if r.violations <> [] then begin
    Format.fprintf fmt "@\n  violating seeds:";
    List.iter (fun s -> Format.fprintf fmt " %d" s) r.violations
  end
