(* Branch-and-bound search over the aggressor alignment window.

   The exhaustive sweep solves one transient per grid point; most of
   those solves land on the flat part of the delay-vs-tau landscape.
   The search solves a coarse sub-grid, then bounds what each
   unexplored bracket between solved alignments can reach with a
   Piyavskii-style estimated Lipschitz rate: delay-vs-tau is an
   RC-smoothed landscape, so the secant slopes between already solved
   neighbors of a bracket, scaled by [safety], estimate how fast the
   delay can move inside it. A bracket is bounded by
   max(d_lo, d_hi) + rate * w/2 with w the bracket width.

   Each refinement round bisects only the brackets whose bound still
   exceeds the incumbent by more than [prune_tol_ps]; the rest are
   discarded for good (the incumbent only grows, so the decision is
   final). Each round's midpoints are fanned out through
   [Runtime.Engine.submit_batch], and every alignment the search did
   solve is byte-identical to the exhaustive solve at that grid point.

   The rate is an estimate, not a bound: a peak narrower than a coarse
   bracket can hide between flat endpoints, and the search then
   returns a worst case short of the exhaustive one by more than
   [prune_tol_ps]. [prune_tol_ps = 0] bypasses the estimate entirely
   and reproduces the exhaustive sweep byte-for-byte. *)

type config = { prune_tol_ps : float; coarse : int; safety : float }

let default = { prune_tol_ps = 0.0; coarse = 9; safety = 1.5 }

type stats = { total : int; solved : int; pruned : int; rounds : int }

type result = {
  best_index : int;
  best_tau : float;
  best_delay : float;
  delays : float option array;
  stats : stats;
}

let mid_delay scenario run =
  let th = Device.Process.thresholds scenario.Scenario.proc in
  let vm = Waveform.Thresholds.v_mid th in
  match
    ( Waveform.Wave.last_crossing run.Injection.far vm,
      Waveform.Wave.last_crossing run.Injection.rcv vm )
  with
  | Some ti, Some ty -> ty -. ti
  | _ ->
      Runtime.Failure.fail
        (Missing_crossing { what = "alignment probe"; level = vm })

let delay_at ?engine scenario ~noiseless:_ ~tau =
  mid_delay scenario (Injection.noisy ?engine scenario ~tau)

let search ?(config = default) ?engine scenario ~noiseless =
  let engine = Runtime.Engine.resolve engine in
  let taus = Scenario.taus scenario in
  let n = Array.length taus in
  let delays = Array.make n None in
  let rounds = ref 0 in
  (* Solve a round of grid indices, fanned out over the pool. *)
  let solve_round idxs =
    match idxs with
    | [] -> ()
    | _ ->
        incr rounds;
        let arr = Array.of_list idxs in
        let k = Array.length arr in
        let ds =
          Runtime.Engine.submit_batch engine k (fun j ->
              delay_at ~engine scenario ~noiseless ~tau:taus.(arr.(j)))
        in
        Array.iteri (fun j d -> delays.(arr.(j)) <- Some d) ds
  in
  let tol = config.prune_tol_ps *. 1e-12 in
  if tol <= 0.0 || n <= Int.max 2 config.coarse then
    (* Exhaustive: solve every grid point in index order — exactly the
       sweep branch-and-bound replaces, byte for byte. *)
    solve_round (List.init n Fun.id)
  else begin
    (* Coarse phase: an evenly spread sub-grid, endpoints included. *)
    let c = Int.min config.coarse n in
    let coarse =
      List.sort_uniq compare
        (List.init c (fun k -> ((k * (n - 1)) + ((c - 1) / 2)) / (c - 1)))
    in
    solve_round coarse;
    (* Refine: bisect every unsolved gap whose bound still exceeds the
       incumbent by more than the tolerance; the rest are pruned
       for good (the incumbent only grows, so the decision is final). *)
    let exhausted = ref false in
    while not !exhausted do
      let incumbent =
        Array.fold_left
          (fun acc -> function Some d -> Float.max acc d | None -> acc)
          neg_infinity delays
      in
      (* Ascending solved grid points, and the secant slope between
         consecutive ones — the local rate samples the Piyavskii-style
         estimate is built from. *)
      let ids =
        let acc = ref [] in
        for i = n - 1 downto 0 do
          match delays.(i) with
          | Some d -> acc := (i, d) :: !acc
          | None -> ()
        done;
        Array.of_list !acc
      in
      let k = Array.length ids in
      let slope j =
        let i0, d0 = ids.(j) and i1, d1 = ids.(j + 1) in
        Float.abs (d1 -. d0)
        /. Float.max epsilon_float (taus.(i1) -. taus.(i0))
      in
      let mids = ref [] in
      for j = 0 to k - 2 do
        let i0, d_lo = ids.(j) and i1, d_hi = ids.(j + 1) in
        if i1 > i0 + 1 then begin
          (* The bracket's own secant plus its solved neighbors': a
             peak hiding between flat endpoints still shows a slope on
             one of the flanks once the coarse grid straddles it. *)
          let lam = ref (slope j) in
          if j > 0 then lam := Float.max !lam (slope (j - 1));
          if j + 2 <= k - 1 then lam := Float.max !lam (slope (j + 1));
          let rate = config.safety *. !lam in
          let b =
            Float.max d_lo d_hi
            +. (rate *. ((taus.(i1) -. taus.(i0)) /. 2.0))
          in
          if b > incumbent +. tol then mids := ((i0 + i1) / 2) :: !mids
        end
      done;
      (match !mids with
      | [] -> exhausted := true
      | ms -> solve_round (List.rev ms))
    done
  end;
  (* The final argmax scans solved points in ascending grid order, so
     the first-maximum-wins tie rule matches the exhaustive sweep. *)
  let best_index = ref (-1) and best = ref neg_infinity in
  Array.iteri
    (fun i -> function
      | Some d -> if !best_index < 0 || d > !best then begin
            best_index := i;
            best := d
          end
      | None -> ())
    delays;
  if !best_index < 0 then
    Runtime.Failure.fail
      (Unsupported { what = "Alignment.search: empty alignment grid" });
  let solved =
    Array.fold_left
      (fun acc d -> if d = None then acc else acc + 1)
      0 delays
  in
  let stats =
    { total = n; solved; pruned = n - solved; rounds = !rounds }
  in
  (match Runtime.Engine.metrics engine with
  | Some mtr ->
      Runtime.Metrics.incr ~n:solved mtr "noise.alignments_solved";
      Runtime.Metrics.incr ~n:stats.pruned mtr "noise.alignments_pruned"
  | None -> ());
  {
    best_index = !best_index;
    best_tau = taus.(!best_index);
    best_delay = !best;
    delays;
    stats;
  }

let pp_stats ppf s =
  Format.fprintf ppf "%d/%d alignments solved (%d pruned, %d rounds)"
    s.solved s.total s.pruned s.rounds
