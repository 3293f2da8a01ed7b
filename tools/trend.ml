(* trend DIR [--last K] [--threshold-pct PCT] [--strict]

   Bench-trend analyzer over a directory of versioned metrics
   snapshots named <series>-NNNN.json (the store bench_diff
   --append-history maintains, seeded from bench/baselines/). Where
   bench_diff compares one pair of runs under a tolerance, trend looks
   at the trajectory: for every metric of every series it fits a
   least-squares line over the last K runs and flags *sustained*
   movement — a relative drift beyond the threshold in which most
   consecutive steps move the same way. A 3%-per-PR slowdown passes
   every pairwise gate with a 5% tolerance; after four PRs the trend
   is 12% and this tool is the one that notices.

   Tracked per snapshot: counters, gauges, histogram sample totals and
   top-level span total seconds. Increase is treated as regression
   (more work, more memory, more time), decrease as improvement; both
   are reported, only regressions affect --strict.

   Exit codes: 0 on a clean report (or any report without --strict),
   1 with --strict when a sustained regression is found, 2 on usage or
   an unreadable store. CI runs this as a non-blocking report step. *)

module Obs = Pak_obs.Obs

let usage () =
  prerr_endline "usage: trend DIR [--last K] [--threshold-pct PCT] [--strict]";
  exit 2

(* <series>-NNNN.json -> Some (series, seq) *)
let parse_name name =
  if Filename.check_suffix name ".json" then
    let stem = Filename.remove_extension name in
    match String.rindex_opt stem '-' with
    | Some i when i > 0 && i < String.length stem - 1 -> (
        let series = String.sub stem 0 i in
        let seq = String.sub stem (i + 1) (String.length stem - i - 1) in
        match int_of_string_opt seq with
        | Some n -> Some (series, n)
        | None -> None)
    | _ -> None
  else None

(* One flat (metric, value) view of a snapshot. *)
let metrics_of (s : Obs.Snapshot.t) =
  let rows = ref [] in
  List.iter
    (fun (n, v) -> rows := ("counter " ^ n, float_of_int v) :: !rows)
    s.Obs.Snapshot.counters;
  List.iter (fun (n, v) -> rows := ("gauge " ^ n, v) :: !rows) s.Obs.Snapshot.gauges;
  List.iter
    (fun (n, counts) ->
      rows := ("hist-total " ^ n, float_of_int (Obs.total_count counts)) :: !rows)
    s.Obs.Snapshot.histograms;
  List.iter
    (fun (node : Obs.span_node) ->
      rows := ("span-total-s " ^ node.Obs.sn_name, node.Obs.sn_total) :: !rows)
    s.Obs.Snapshot.spans;
  List.rev !rows

type verdict = Regression | Improvement

type finding = {
  f_series : string;
  f_metric : string;
  f_verdict : verdict;
  f_first : float;
  f_last : float;
  f_drift : float;  (* relative, signed *)
  f_slope : float;  (* least-squares, per run *)
  f_points : int;
}

(* Sustained movement over [vs] (chronological): relative drift beyond
   [threshold] with a majority of consecutive steps in the drift's
   direction. Needs >= 3 points — two runs are a pair, not a trend. *)
let classify ~threshold vs =
  let n = Array.length vs in
  if n < 3 then None
  else begin
    let first = vs.(0) and last = vs.(n - 1) in
    let base = max (abs_float first) 1e-9 in
    let drift = (last -. first) /. base in
    let ups = ref 0 and downs = ref 0 in
    for i = 1 to n - 1 do
      if vs.(i) > vs.(i - 1) then incr ups
      else if vs.(i) < vs.(i - 1) then incr downs
    done;
    (* least squares on (0..n-1, vs) *)
    let nf = float_of_int n in
    let sx = nf *. (nf -. 1.) /. 2. in
    let sxx = nf *. (nf -. 1.) *. ((2. *. nf) -. 1.) /. 6. in
    let sy = Array.fold_left ( +. ) 0. vs in
    let sxy = ref 0. in
    Array.iteri (fun i v -> sxy := !sxy +. (float_of_int i *. v)) vs;
    let denom = (nf *. sxx) -. (sx *. sx) in
    let slope = if denom = 0. then 0. else ((nf *. !sxy) -. (sx *. sy)) /. denom in
    if drift > threshold && !ups > !downs then Some (Regression, drift, slope)
    else if drift < -.threshold && !downs > !ups then
      Some (Improvement, drift, slope)
    else None
  end

let () =
  let dir = ref None in
  let last = ref 8 in
  let threshold_pct = ref 10. in
  let strict = ref false in
  let rec parse = function
    | [] -> ()
    | "--last" :: v :: rest -> (
        match int_of_string_opt v with
        | Some k when k >= 3 ->
          last := k;
          parse rest
        | _ ->
          prerr_endline "trend: --last expects an integer >= 3";
          exit 2)
    | "--threshold-pct" :: v :: rest -> (
        match float_of_string_opt v with
        | Some p when p > 0. ->
          threshold_pct := p;
          parse rest
        | _ ->
          prerr_endline "trend: --threshold-pct expects a positive number";
          exit 2)
    | "--strict" :: rest ->
      strict := true;
      parse rest
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' -> usage ()
    | arg :: rest ->
      (match !dir with None -> dir := Some arg | Some _ -> usage ());
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dir = match !dir with Some d -> d | None -> usage () in
  (* All three probes can raise Sys_error (permission, TOCTOU races):
     a missing or unreadable history directory is a friendly exit 2,
     never an uncaught exception. *)
  let listing =
    match
      if Sys.file_exists dir && Sys.is_directory dir then Some (Sys.readdir dir)
      else None
    with
    | Some names -> names
    | None | (exception Sys_error _) ->
      Printf.eprintf "trend: %s is not a readable directory\n" dir;
      exit 2
  in
  let by_series = Hashtbl.create 4 in
  Array.iter
    (fun name ->
      match parse_name name with
      | Some (series, seq) ->
        let prev = Option.value (Hashtbl.find_opt by_series series) ~default:[] in
        Hashtbl.replace by_series series ((seq, Filename.concat dir name) :: prev)
      | None -> ())
    listing;
  if Hashtbl.length by_series = 0 then begin
    Printf.eprintf "trend: no <series>-NNNN.json snapshots in %s\n" dir;
    exit 2
  end;
  let threshold = !threshold_pct /. 100. in
  let findings = ref [] in
  let series_names =
    Hashtbl.fold (fun k _ acc -> k :: acc) by_series [] |> List.sort compare
  in
  List.iter
    (fun series ->
      let runs =
        Hashtbl.find by_series series
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let runs =
        let n = List.length runs in
        if n > !last then List.filteri (fun i _ -> i >= n - !last) runs else runs
      in
      let snaps =
        List.filter_map
          (fun (seq, path) ->
            match Obs.Snapshot.of_file path with
            | Ok s -> Some (seq, metrics_of s)
            | Error msg ->
              Printf.eprintf "trend: skipping %s: %s\n" path msg;
              None)
          runs
      in
      Printf.printf "%s: %d run(s)" series (List.length snaps);
      (match (snaps, List.rev snaps) with
       | (lo, _) :: _, (hi, _) :: _ -> Printf.printf " [%04d..%04d]" lo hi
       | _ -> ());
      print_newline ();
      if List.length snaps >= 3 then begin
        (* Metrics present in every run of the window: a metric that
           appears or disappears mid-window has no single trajectory. *)
        let names =
          match snaps with
          | (_, first) :: rest ->
            List.filter
              (fun (n, _) ->
                List.for_all (fun (_, ms) -> List.mem_assoc n ms) rest)
              first
            |> List.map fst
          | [] -> []
        in
        List.iter
          (fun metric ->
            let vs =
              snaps
              |> List.map (fun (_, ms) -> List.assoc metric ms)
              |> Array.of_list
            in
            match classify ~threshold vs with
            | None -> ()
            | Some (verdict, drift, slope) ->
              findings :=
                {
                  f_series = series;
                  f_metric = metric;
                  f_verdict = verdict;
                  f_first = vs.(0);
                  f_last = vs.(Array.length vs - 1);
                  f_drift = drift;
                  f_slope = slope;
                  f_points = Array.length vs;
                }
                :: !findings)
          names
      end)
    series_names;
  let findings = List.rev !findings in
  let regressions =
    List.filter (fun f -> f.f_verdict = Regression) findings
  in
  let improvements =
    List.filter (fun f -> f.f_verdict = Improvement) findings
  in
  let print_finding f =
    Printf.printf "  %-10s %s %s: %g -> %g (%+.1f%% over %d runs, slope %+g/run)\n"
      (match f.f_verdict with
       | Regression -> "REGRESSION"
       | Improvement -> "improved")
      f.f_series f.f_metric f.f_first f.f_last (100. *. f.f_drift) f.f_points
      f.f_slope
  in
  if findings = [] then
    Printf.printf "trend: no sustained movement beyond %.1f%% over the last %d run(s)\n"
      !threshold_pct !last
  else begin
    Printf.printf "trend: %d sustained regression(s), %d sustained improvement(s):\n"
      (List.length regressions) (List.length improvements);
    List.iter print_finding regressions;
    List.iter print_finding improvements
  end;
  if !strict && regressions <> [] then exit 1
