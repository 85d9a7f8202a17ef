type result = {
  tau : float;
  delay : float;
  nominal_delay : float;
  probes : int;
  pruned : int;
  gamma : (Eqwave.Ladder.outcome, Runtime.Failure.t) Stdlib.result;
}

let mid_delay = Alignment.mid_delay
let delay_at = Alignment.delay_at
let golden = (sqrt 5.0 -. 1.0) /. 2.0

let search ?(coarse = 24) ?(refine = 12) ?(prune_tol_ps = 0.0) ?samples
    ?(ladder = Eqwave.Ladder.default) ?engine scenario =
  if coarse < 3 then invalid_arg "Worst_case.search: coarse < 3";
  let engine = Runtime.Engine.resolve engine in
  let noiseless = Injection.noiseless ~engine scenario in
  let nominal_delay = mid_delay scenario noiseless in
  let probes = ref 0 in
  let eval tau =
    incr probes;
    delay_at ~engine scenario ~noiseless ~tau
  in
  (* The coarse scan is the branch-and-bound part: with a zero
     tolerance it is the plain grid sweep (fanned out, first maximum
     wins); with a positive tolerance, brackets whose secant-rate
     estimate stays within the tolerance of the incumbent are skipped
     — a heuristic, so the result can trail the exhaustive scan by
     more than the tolerance (see [Alignment]). The golden-section
     polish below is inherently sequential and unchanged either way. *)
  let coarse_grid = Scenario.with_cases scenario coarse in
  let align =
    Alignment.search
      ~config:{ Alignment.default with prune_tol_ps }
      ~engine coarse_grid ~noiseless
  in
  probes := !probes + align.Alignment.stats.Alignment.solved;
  let best = ref (align.Alignment.best_tau, align.Alignment.best_delay) in
  let scan = Scenario.taus coarse_grid in
  (* Golden-section maximization on the bracket around the best coarse
     probe. The landscape is piecewise smooth; the bracket spans one
     coarse step on each side. *)
  let step = scan.(1) -. scan.(0) in
  let lo = ref (fst !best -. step) and hi = ref (fst !best +. step) in
  let x1 = ref (!hi -. (golden *. (!hi -. !lo))) in
  let x2 = ref (!lo +. (golden *. (!hi -. !lo))) in
  let f1 = ref (eval !x1) and f2 = ref (eval !x2) in
  for _ = 1 to refine do
    if !f1 > !f2 then begin
      hi := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !hi -. (golden *. (!hi -. !lo));
      f1 := eval !x1
    end
    else begin
      lo := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !lo +. (golden *. (!hi -. !lo));
      f2 := eval !x2
    end;
    let x, d = if !f1 > !f2 then (!x1, !f1) else (!x2, !f2) in
    if d > snd !best then best := (x, d)
  done;
  (* Map the worst-case waveform to its equivalent ramp through the
     degradation ladder — the noisy run at the winning tau is already
     cached, so this costs only the fits. A mapping or solve failure
     here degrades the gamma report, never the search result. *)
  let gamma =
    match
      let noisy = Injection.noisy ~engine scenario ~tau:(fst !best) in
      let ctx =
        Injection.ctx_of_runs ~engine ?samples scenario ~noiseless ~noisy
      in
      Eqwave.Ladder.run ladder ctx
    with
    | Ok o -> Ok o
    | Error skips ->
        let last =
          match List.rev skips with
          | s :: _ -> s.Eqwave.Ladder.reason
          | [] -> "empty ladder"
        in
        Error
          (Runtime.Failure.Mapping_exhausted
             { tried = List.length skips; last })
    | exception Runtime.Failure.Error f -> Error f
    | exception Spice.Transient.No_convergence at ->
        Error (Runtime.Failure.Non_convergence { at })
  in
  {
    tau = fst !best;
    delay = snd !best;
    nominal_delay;
    probes = !probes;
    pruned = align.Alignment.stats.Alignment.pruned;
    gamma;
  }

let pp ppf r =
  Format.fprintf ppf
    "worst alignment tau = %.1f ps: delay %.1f ps (nominal %.1f ps, push-out %+.1f ps, %d simulations%s)"
    (r.tau *. 1e12) (r.delay *. 1e12) (r.nominal_delay *. 1e12)
    ((r.delay -. r.nominal_delay) *. 1e12)
    r.probes
    (if r.pruned > 0 then Printf.sprintf ", %d pruned" r.pruned else "");
  match r.gamma with
  | Ok o ->
      Format.fprintf ppf "; gamma via %s@@rung %d (deviation %.3g V)"
        o.Eqwave.Ladder.technique o.Eqwave.Ladder.rung o.Eqwave.Ladder.score_v
  | Error f -> Format.fprintf ppf "; gamma unmapped: %a" Runtime.Failure.pp f
