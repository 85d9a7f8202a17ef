(* Shared machinery of the benchmark: clocks, order statistics, the
   metric sink, per-layer time accumulators, counter snapshots and the
   traced replay of one alignment case. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics (nearest rank on the sorted samples). *)

let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(Int.max 0 (Int.min (n - 1) k))

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.0

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Metric sink: what the run reports, in emission order. *)

let metrics : (string * string * float) list ref = ref []
let emit name unit_ v = metrics := (name, unit_, v) :: !metrics

(* Free-form facts about the run (sample counts, seeds, shortfalls)
   printed on a line of their own ahead of the result. *)
let details : (string * string) list ref = ref []
let detail k v = details := (k, v) :: !details
let detailf k fmt = Printf.ksprintf (detail k) fmt

(* Set-up is repeated [setup_reps] times and reported as the median;
   [discard] releases every result but the last. *)
let setup_reps = ref 7
let setup_times = ref []

let setup ?(discard = ignore) f =
  let rec go i =
    let r, s = timed f in
    setup_times := s :: !setup_times;
    if i >= !setup_reps then r
    else begin
      discard r;
      go (i + 1)
    end
  in
  go 1

(* Outcome accounting: one op is one case, search or request. *)
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let op_ok ok = incr attempted; if not ok then incr failed

let problem fmt =
  Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* The first few problems, in order, for the details line. *)
let first_problems () =
  let all = List.rev !problems in
  let n = List.length all in
  if n <= 20 then all
  else List.filteri (fun i _ -> i < 20) all @ [ Printf.sprintf "... and %d more" (n - 20) ]

(* Highest resident set of this process so far, from the kernel's
   VmHWM. *)
let max_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

(* Workloads that repeat whole passes read the peak after the first:
   the OCaml 5.1 heap never shrinks, so later passes would add heap
   growth that depends on how many passes fit, not on what one needs. *)
let peak_rss = ref None
let mark_peak_rss () = if !peak_rss = None then peak_rss := Some (max_rss_mb ())

(* ------------------------------------------------------------------ *)
(* Layer accumulators for the traced runs: every timed call into a
   layer adds one sample (seconds) under the layer's key. *)

let layer_samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let record key s =
  Hashtbl.replace layer_samples key
    (s :: Option.value ~default:[] (Hashtbl.find_opt layer_samples key))

let span key f =
  let r, s = timed f in
  record key s;
  r

let get key = Option.value ~default:[] (Hashtbl.find_opt layer_samples key)
let total key = sum (get key)
let calls key = float_of_int (List.length (get key))

(* ------------------------------------------------------------------ *)
(* Process-global counters, read as deltas around a measured pass. *)

type counters = {
  spice : Spice.Transient.Stats.snapshot;
  resil : Runtime.Resilience.Stats.snapshot;
}

let snapshot () =
  {
    spice = Spice.Transient.Stats.snapshot ();
    resil = Runtime.Resilience.Stats.snapshot ();
  }

let emit_spice ~(before : counters) ~(after : counters) =
  let d = Spice.Transient.Stats.diff after.spice before.spice in
  let c name v = emit name "count" (float_of_int v) in
  let open Spice.Transient.Stats in
  c "spice.solves" d.sims;
  c "spice.steps" d.steps;
  c "spice.newton_iters" d.newton_iters;
  c "spice.factorizations" d.factorizations;
  c "spice.step_rejections" d.rejected_steps;
  emit "spice.accept_ratio" "ratio"
    (ratio (float_of_int d.steps) (float_of_int (d.steps + d.rejected_steps)));
  c "spice.batched_solves" d.batched_solves;
  c "spice.peeled_solves" d.peeled_solves;
  let r = Runtime.Resilience.Stats.diff after.resil before.resil in
  c "resilience.retries" r.Runtime.Resilience.Stats.retries;
  c "resilience.failures" r.Runtime.Resilience.Stats.failures

(* Summed over the caches a pass used. *)
let emit_caches caches =
  let count f = float_of_int (List.fold_left (fun n c -> n + f c) 0 caches) in
  let hits = count Runtime.Cache.hits and misses = count Runtime.Cache.misses in
  emit "cache.hits" "count" hits;
  emit "cache.misses" "count" misses;
  emit "cache.hit_ratio" "ratio" (ratio hits (hits +. misses));
  emit "cache.entries" "count" (count Runtime.Cache.length)

let fresh_engine base = Runtime.Engine.with_cache base (Runtime.Cache.create ())

(* ------------------------------------------------------------------ *)
(* The traced replay of one case: the calls [Noise.Eval.evaluate_case]
   makes, in its order, each timed under its layer. Cache hits and
   solves are told apart by the caller: after a batch warm-up the
   noisy run is a cache hit. *)

type traced = {
  delay_ref : float;
  estimates : float option list;  (** per technique, [delay_est] *)
}

let mid_crossing th w =
  match Waveform.Wave.last_crossing w (Waveform.Thresholds.v_mid th) with
  | Some t -> t
  | None -> nan

let traced_case ~engine ~techniques scen ~noiseless ~tau =
  let open Noise in
  let th = Device.Process.thresholds scen.Scenario.proc in
  let wave_span f = span "waveform" f in
  let noisy = span "injection.cache_hit" (fun () -> Injection.noisy ~engine scen ~tau) in
  let ctx =
    span "eqwave.ctx" (fun () -> Injection.ctx_of_runs scen ~noiseless ~noisy)
  in
  let t_in = wave_span (fun () -> mid_crossing th noisy.Injection.far) in
  (* The receiver replay's cache key hashes the whole stimulus; timing
     the fingerprint separately splits the replay into cache-key work
     (injection) and the receiver solve (spice). *)
  let replay input ~tstop =
    ignore (span "injection.replay_key" (fun () -> Spice.Source.fingerprint input));
    span "injection.replay" (fun () ->
        Injection.receiver_response ~engine scen ~input ~tstop)
  in
  let tstop = scen.Scenario.tstop in
  let replay_out = replay (Spice.Source.of_wave noisy.Injection.far) ~tstop in
  let t_out = wave_span (fun () -> mid_crossing th replay_out) in
  ignore (wave_span (fun () -> mid_crossing th noisy.Injection.rcv));
  ignore (wave_span (fun () -> Waveform.Wave.slew replay_out th));
  let delay_ref = t_out -. t_in in
  let estimate (tech : Eqwave.Technique.t) =
    let name = tech.Eqwave.Technique.name in
    match span ("eqwave.tech." ^ name) (fun () -> tech.Eqwave.Technique.run ctx) with
    | exception (Eqwave.Technique.Unsupported _ | Stdlib.Failure _) -> None
    | ramp -> (
        let tstop = Float.max tstop (Waveform.Ramp.t_settle ramp +. 1.5e-9) in
        match replay (Spice.Source.of_ramp ramp) ~tstop with
        | exception (Runtime.Failure.Error _ | Spice.Transient.No_convergence _) -> None
        | out ->
            let t_out = wave_span (fun () -> mid_crossing th out) in
            ignore (wave_span (fun () -> Waveform.Wave.slew out th));
            let t_in = wave_span (fun () -> Waveform.Ramp.arrival ramp th) in
            if Float.is_nan t_out then None else Some (t_out -. t_in))
  in
  let estimates = List.map estimate techniques in
  (* Sensitivity extraction runs inside SGDP and WLS5; this extra call
     prices it on its own and is left out of the layer sums. *)
  ignore (span "eqwave.sensitivity" (fun () -> Eqwave.Sensitivity.compute ctx));
  (match span "eqwave.ladder" (fun () -> Eqwave.Ladder.run Eqwave.Ladder.default ctx) with
  | Ok o -> record "eqwave.rung0" (if o.Eqwave.Ladder.rung = 0 then 1.0 else 0.0)
  | Error _ -> record "eqwave.rung0" 0.0);
  { delay_ref; estimates }

(* Bitwise float equality: the traced replay must reproduce the
   untraced rows exactly, not approximately. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_option a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> same_float x y
  | _ -> false

let agrees (c : Noise.Eval.case_eval) (t : traced) =
  same_float c.Noise.Eval.delay_ref t.delay_ref
  && List.length c.Noise.Eval.metrics = List.length t.estimates
  && List.for_all2
       (fun (m : Noise.Eval.case_metrics) e -> same_option m.Noise.Eval.delay_est e)
       c.Noise.Eval.metrics t.estimates

let technique_names = List.map (fun (t : Eqwave.Technique.t) -> t.Eqwave.Technique.name)
    Eqwave.Registry.all

(* Per-call figures of the layers the traced replays time; a layer a
   workload never calls reads 0. *)
let emit_calls () =
  let ms key = 1e3 *. mean (get key) and us key = 1e6 *. mean (get key) in
  emit "scenario.build_ms" "ms" (ms "scenario.build");
  (* per warmed case: one circuit build is timed for each *)
  emit "injection.prewarm_ms" "ms"
    (1e3 *. ratio (total "injection.prewarm") (calls "scenario.build"));
  emit "injection.replay_ms" "ms" (ms "injection.replay");
  emit "injection.replay_calls" "count" (calls "injection.replay");
  emit "injection.cache_hit_ms" "ms" (ms "injection.cache_hit");
  emit "eqwave.ctx_us" "us" (us "eqwave.ctx");
  emit "eqwave.sensitivity_us" "us" (us "eqwave.sensitivity");
  List.iter
    (fun name -> emit ("eqwave.tech_us." ^ name) "us" (us ("eqwave.tech." ^ name)))
    technique_names;
  emit "eqwave.sgdp_over_wls5" "ratio"
    (ratio (us "eqwave.tech.SGDP") (us "eqwave.tech.WLS5"));
  emit "eqwave.ladder_us" "us" (us "eqwave.ladder");
  emit "eqwave.ladder_rung0_share" "ratio" (mean (get "eqwave.rung0"));
  emit "waveform.crossing_us" "us" (us "waveform")

(* Self time per layer, in seconds, from the accumulators above. The
   replay's cache key is injection work; the rest of a replay is the
   receiver solve. *)
let eqwave_self () =
  total "eqwave.ctx" +. total "eqwave.ladder"
  +. sum (List.map (fun n -> total ("eqwave.tech." ^ n)) technique_names)

let replay_solve_self () = total "injection.replay" -. total "injection.replay_key"

let injection_self () =
  total "injection.cache_hit" +. total "injection.replay_key"

(* What traced cases spent outside the layer calls they time (the
   extra sensitivity call included, since it sits inside the case). *)
let eval_self () =
  total "eval.case"
  -. sum
       (List.map total
          [ "injection.cache_hit"; "injection.replay"; "injection.replay_key";
            "eqwave.ctx"; "eqwave.ladder"; "eqwave.sensitivity"; "waveform" ])
  -. sum (List.map (fun n -> total ("eqwave.tech." ^ n)) technique_names)

(* Self time per layer (seconds over the traced pass), how much of the
   untraced wall time the directly timed layers explain, and what the
   tracing cost. Layers a workload never enters are filled in as 0 by
   run.py. *)
let emit_layers ~self ~untraced_wall ~traced_wall =
  List.iter (fun (layer, s) -> emit ("self_ms." ^ layer) "ms" (1e3 *. s)) self;
  emit "trace.coverage" "ratio" (ratio (sum (List.map snd self)) untraced_wall);
  emit "trace.overhead" "ratio" (ratio traced_wall untraced_wall)
