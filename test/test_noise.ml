open Helpers
open Noise

let th = Device.Process.thresholds Device.Process.c13

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)

let test_config_values () =
  let c = Scenario.config_i in
  Alcotest.(check int) "one aggressor" 1 c.Scenario.n_aggressors;
  approx ~eps:1e-27 "coupling" 100e-15 c.Scenario.cm_total;
  approx ~eps:1e-15 "slew" 150e-12 c.Scenario.input_slew;
  approx ~eps:1e-15 "window" 1e-9 c.Scenario.window;
  Alcotest.(check int) "200 cases" 200 c.Scenario.cases;
  let c2 = Scenario.config_ii in
  Alcotest.(check int) "two aggressors" 2 c2.Scenario.n_aggressors;
  (* Config II lines are half as long. *)
  approx_rel ~rel:1e-9 "half R"
    (c.Scenario.line.Interconnect.Rcline.rtotal /. 2.0)
    c2.Scenario.line.Interconnect.Rcline.rtotal

let test_taus_span_window () =
  let c = Scenario.with_cases Scenario.config_i 11 in
  let taus = Scenario.taus c in
  Alcotest.(check int) "count" 11 (Array.length taus);
  approx ~eps:1e-15 "span" c.Scenario.window
    (taus.(10) -. taus.(0));
  (* strictly increasing *)
  for i = 0 to 9 do
    check_true "increasing" (taus.(i + 1) > taus.(i))
  done

let test_victim_position () =
  Alcotest.(check int) "config I victim first" 0
    (Scenario.victim_line_index Scenario.config_i);
  Alcotest.(check int) "config II victim middle" 1
    (Scenario.victim_line_index Scenario.config_ii)

let test_build_circuit_shape () =
  let ckt, hints = Scenario.build Scenario.config_i ~aggressor_active:true ~tau:0.5e-9 in
  (* 2 chains x 4 inverters = 8 inverters = 16 MOSFETs. *)
  Alcotest.(check int) "mosfets" 16 (List.length (Spice.Circuit.mosfets ckt));
  (* 3 sources: vdd + 2 inputs. *)
  Alcotest.(check int) "sources" 3 (List.length (Spice.Circuit.vsources ckt));
  (* hints cover vdd and the logic levels. *)
  check_true "vdd hint" (List.mem_assoc "vdd" hints);
  check_true "victim far node hinted"
    (List.mem_assoc (Scenario.victim_far_node Scenario.config_i) hints)

let test_build_config_ii_shape () =
  let ckt, _ = Scenario.build Scenario.config_ii ~aggressor_active:true ~tau:0.5e-9 in
  Alcotest.(check int) "mosfets" 24 (List.length (Spice.Circuit.mosfets ckt));
  Alcotest.(check int) "sources" 4 (List.length (Spice.Circuit.vsources ckt))

(* ------------------------------------------------------------------ *)
(* Injection (simulation-backed; slow)                                 *)

let fast_scenario =
  (* Smaller tstop for test speed; the victim transition is early. *)
  { Scenario.config_i with Scenario.dt = 4e-12 }

let noiseless = lazy (Injection.noiseless fast_scenario)

let test_noiseless_transitions () =
  let r = Lazy.force noiseless in
  check_true "far rising"
    (Waveform.Wave.direction r.Injection.far = Waveform.Wave.Rising);
  check_true "rcv falling"
    (Waveform.Wave.direction r.Injection.rcv = Waveform.Wave.Falling);
  match (Waveform.Wave.arrival r.Injection.far th,
         Waveform.Wave.arrival r.Injection.rcv th) with
  | Some ti, Some ty ->
      let d = ty -. ti in
      check_true "receiver delay plausible" (d > 10e-12 && d < 300e-12)
  | _ -> Alcotest.fail "missing crossings"

let test_noiseless_monotone () =
  let r = Lazy.force noiseless in
  (* The noiseless victim waveform should be a clean monotone edge
     (tiny numerical wiggle allowed). *)
  check_true "monotone"
    (Waveform.Wave.is_monotone ~eps:1e-3 r.Injection.far)

let test_noisy_differs () =
  let r0 = Lazy.force noiseless in
  let r1 = Injection.noisy fast_scenario ~tau:fast_scenario.Scenario.victim_t0 in
  let d = Waveform.Wave.sub r1.Injection.far r0.Injection.far in
  let peak = Numerics.Stats.max_abs (Waveform.Wave.values d) in
  check_true "visible coupling noise" (peak > 0.05)

let test_early_aggressor_no_effect_on_delay () =
  (* An aggressor firing 0.6 ns before the victim has settled out by
     the time the victim switches. *)
  let r0 = Lazy.force noiseless in
  let tau = fast_scenario.Scenario.victim_t0 -. 0.6e-9 in
  let r1 = Injection.noisy fast_scenario ~tau in
  match (Waveform.Wave.arrival r0.Injection.rcv th,
         Waveform.Wave.arrival r1.Injection.rcv th) with
  | Some a, Some b -> check_true "arrival barely moves" (abs_float (a -. b) < 10e-12)
  | _ -> Alcotest.fail "missing arrivals"

let test_receiver_response_matches_replay () =
  (* Feeding the recorded noiseless far waveform into the isolated
     receiver must reproduce the chain's receiver output closely. *)
  let r = Lazy.force noiseless in
  let out =
    Injection.receiver_response fast_scenario
      ~input:(Spice.Source.of_wave r.Injection.far)
      ~tstop:fast_scenario.Scenario.tstop
  in
  match (Waveform.Wave.arrival out th, Waveform.Wave.arrival r.Injection.rcv th) with
  | Some a, Some b -> approx ~eps:3e-12 "replay faithful" b a
  | _ -> Alcotest.fail "missing arrivals"

let test_ctx_of_runs () =
  let r0 = Lazy.force noiseless in
  let r1 = Injection.noisy fast_scenario ~tau:1.0e-9 in
  let ctx = Injection.ctx_of_runs fast_scenario ~noiseless:r0 ~noisy:r1 in
  Alcotest.(check int) "P default" 35 ctx.Eqwave.Technique.samples;
  check_true "direction" (Eqwave.Technique.direction ctx = Waveform.Wave.Rising)

(* ------------------------------------------------------------------ *)
(* Shared rho: one extraction per noiseless arc (slow)                 *)

let same_sens what a b =
  check_true (what ^ ": rho bit-identical") (sens_bits a = sens_bits b)

(* SGDP's and WLS5's Gamma_eff through the shared rho equal the
   uncached extraction's, bit for bit, on both paper configurations
   and on the buffer receiver; and each arc extracts once per shift
   however many alignments read it. (The buffer's input and output
   critical regions still overlap here, so its shift is 0 too; the
   non-zero shift is covered on a synthetic separated arc in the
   eqwave suite.) *)
let test_shared_rho_matches_uncached () =
  List.iter
    (fun scen ->
      let engine =
        Runtime.Engine.with_cache Runtime.Engine.reference (Runtime.Cache.create ())
      in
      let noiseless = Injection.noiseless ~engine scen in
      let taus = Scenario.taus scen in
      let m = Runtime.Metrics.create () in
      let shift = ref 0.0 in
      List.iter
        (fun i ->
          let noisy = Injection.noisy ~engine scen ~tau:taus.(i) in
          let ctx =
            { (Injection.ctx_of_runs scen ~noiseless ~noisy) with
              Eqwave.Technique.metrics = Some m }
          in
          shift := Eqwave.Sensitivity.overlap_shift ctx;
          let what = Printf.sprintf "%s case %d" scen.Scenario.name i in
          List.iter
            (fun (tech : Eqwave.Technique.t) ->
              check_true
                (what ^ ": " ^ tech.Eqwave.Technique.name ^ " Gamma_eff bit-identical")
                (fit_bits tech ctx = fit_bits tech (fresh_arc ctx)))
            [ Eqwave.Sgdp.sgdp; Eqwave.Wls.wls5 ];
          List.iter
            (fun output_shift ->
              same_sens what
                (Eqwave.Sensitivity.shared ~output_shift ctx)
                (Eqwave.Sensitivity.compute ~output_shift ctx))
            [ 0.0; !shift ])
        [ 0; 100; 165; 199 ];
      Alcotest.(check int)
        (scen.Scenario.name ^ ": one extraction per shift")
        (if !shift = 0.0 then 1 else 2)
        (counter m "eqwave.rho_extractions");
      check_true "later reads reuse it" (counter m "eqwave.rho_reuses" > 0))
    [ Scenario.config_i; Scenario.config_ii; Scenario.config_i_buffer ]

let noiseless_ctx ~engine scen =
  let r = Injection.noiseless ~engine scen in
  (r, Injection.ctx_of_runs scen ~noiseless:r ~noisy:r)

(* Two presets solve one scenario to different waves: each gets its
   own rho, whichever is read first. *)
let test_shared_rho_per_preset () =
  let _, c_ref = noiseless_ctx ~engine:Runtime.Engine.reference fast_scenario in
  let _, c_fast = noiseless_ctx ~engine:Runtime.Engine.fast fast_scenario in
  let s_ref = Eqwave.Sensitivity.shared c_ref in
  let s_fast = Eqwave.Sensitivity.shared c_fast in
  same_sens "reference" s_ref (Eqwave.Sensitivity.compute c_ref);
  same_sens "fast" s_fast (Eqwave.Sensitivity.compute c_fast);
  check_true "the presets' rho differ" (sens_bits s_ref <> sens_bits s_fast)

(* A corrupt solve is purged from the cache and re-solved on a tighter
   grid, under the same scenario and engine: the re-solved waves get
   their own rho, and so does the clean re-solve that follows. *)
let test_shared_rho_after_purge () =
  let engine () =
    Runtime.Engine.with_cache Runtime.Engine.reference (Runtime.Cache.create ())
  in
  let _, c1 = noiseless_ctx ~engine:(engine ()) fast_scenario in
  let s1 = Eqwave.Sensitivity.shared c1 in
  let e2 = engine () in
  let _, c2 =
    noiseless_ctx
      ~engine:
        (with_solver_faults ~engine:e2 Spice.Transient.Corrupt
           (Runtime.Fault.Nth 0))
      fast_scenario
  in
  let s2 = Eqwave.Sensitivity.shared c2 in
  same_sens "re-solved" s2 (Eqwave.Sensitivity.compute c2);
  check_true "the re-solve changed rho" (sens_bits s1 <> sens_bits s2);
  let _, c3 = noiseless_ctx ~engine:e2 fast_scenario in
  check_true "the purged entry was solved again"
    (c3.Eqwave.Technique.noiseless_in != c2.Eqwave.Technique.noiseless_in);
  let m = Runtime.Metrics.create () in
  let s3 =
    Eqwave.Sensitivity.shared { c3 with Eqwave.Technique.metrics = Some m }
  in
  Alcotest.(check int) "a new arc extracts" 1 (counter m "eqwave.rho_extractions");
  same_sens "clean re-solve" s3 (Eqwave.Sensitivity.compute c3);
  same_sens "clean re-solve equals the first solve" s1 s3

(* ------------------------------------------------------------------ *)
(* Eval (slow)                                                         *)

let test_evaluate_case_all_techniques () =
  let r0 = Lazy.force noiseless in
  let case =
    Eval.evaluate_case fast_scenario ~noiseless:r0
      ~tau:fast_scenario.Scenario.victim_t0
  in
  Alcotest.(check int) "six rows" 6 (List.length case.Eval.metrics);
  check_true "replay fidelity < 2 ps"
    (abs_float case.Eval.chain_vs_replay < 2e-12);
  check_true "positive reference delay" (case.Eval.delay_ref > 0.0);
  List.iter
    (fun m ->
      match m.Eval.delay_err with
      | Some e -> check_true (m.Eval.technique ^ " bounded") (abs_float e < 100e-12)
      | None ->
          Alcotest.failf "%s failed: %s" m.Eval.technique
            (match m.Eval.failure with
            | Some f -> Runtime.Failure.to_string f
            | None -> "?"))
    case.Eval.metrics

let test_run_table_shape () =
  let scen = Scenario.with_cases fast_scenario 3 in
  let progress = ref 0 in
  let table = Eval.run_table ~progress:(fun _ _ -> incr progress) scen in
  Alcotest.(check int) "3 cases" 3 (List.length table.Eval.cases);
  Alcotest.(check int) "progress called" 3 !progress;
  Alcotest.(check int) "6 rows" 6 (List.length table.Eval.rows);
  List.iter
    (fun r ->
      check_true (r.Eval.name ^ " has cases") (r.Eval.n_cases > 0);
      check_true (r.Eval.name ^ " max >= avg")
        (r.Eval.max_abs_ps >= r.Eval.avg_abs_ps -. 1e-9))
    table.Eval.rows

let test_pp_table_renders () =
  let scen = Scenario.with_cases fast_scenario 1 in
  let table = Eval.run_table scen in
  let s = Format.asprintf "%a" Eval.pp_table table in
  check_true "mentions SGDP"
    (let re = ref false in
     String.iteri
       (fun i _ ->
         if i + 4 <= String.length s && String.sub s i 4 = "SGDP" then re := true)
       s;
     !re)

let test_run_table_survives_no_convergence () =
  (* max_newton = 0 makes the very first DC solve diverge, so every
     case raises No_convergence internally; the sweep must still return
     a table with the failures accounted per row. *)
  let scen = Scenario.with_cases fast_scenario 2 in
  let broken =
    Runtime.Engine.map_solver Runtime.Engine.reference (fun c ->
        { c with Spice.Transient.max_newton = 0 })
  in
  let table = Eval.run_table ~engine:broken scen in
  Alcotest.(check int) "2 cases" 2 (List.length table.Eval.cases);
  List.iter
    (fun r ->
      Alcotest.(check int) (r.Eval.name ^ " all failed") 2 r.Eval.n_failed;
      Alcotest.(check int) (r.Eval.name ^ " none measured") 0 r.Eval.n_cases)
    table.Eval.rows;
  List.iter
    (fun c ->
      check_true "nan reference delay" (Float.is_nan c.Eval.delay_ref);
      List.iter
        (fun m -> check_true "failure message recorded" (m.Eval.failure <> None))
        c.Eval.metrics)
    table.Eval.cases

let test_adaptive_matches_fixed_delays () =
  (* Adaptive stepping may not move the Table-1 reference gate delays
     by more than a tenth of a picosecond: the default tolerance on a
     Config I subset, then the served [fast] preset on both configs. *)
  let scen = Scenario.with_cases fast_scenario 2 in
  let fixed = Eval.run_table ~techniques:[ Eqwave.Sgdp.sgdp ] scen in
  let adaptive_engine =
    Runtime.Engine.make ~name:"adaptive"
      ~solver:Spice.Transient.(with_adaptive default_config)
      ()
  in
  let adaptive =
    Eval.run_table ~techniques:[ Eqwave.Sgdp.sgdp ] ~engine:adaptive_engine scen
  in
  List.iter2
    (fun (a : Eval.case_eval) (b : Eval.case_eval) ->
      check_true "no failures" (a.Eval.delay_ref > 0.0 && b.Eval.delay_ref > 0.0);
      check_true "delay_ref within 0.1 ps"
        (abs_float (a.Eval.delay_ref -. b.Eval.delay_ref) < 0.1e-12))
    fixed.Eval.cases adaptive.Eval.cases;
  (* Edges and middle of the 200-point alignment grid, plus index 165,
     Config I's peak, where the delay landscape is steepest. *)
  List.iter
    (fun sc ->
      let taus = Scenario.taus sc in
      List.iter
        (fun i ->
          let delay engine =
            Eval.guard_reference_delay ~engine sc ~tau:taus.(i)
          in
          let d_ref = delay Runtime.Engine.reference in
          let d_fast = delay Runtime.Engine.fast in
          if abs_float (d_fast -. d_ref) >= 0.1e-12 then
            Alcotest.failf "%s case %d: fast %.4f ps vs reference %.4f ps"
              sc.Scenario.name i (d_fast *. 1e12) (d_ref *. 1e12))
        [ 0; 100; 165; 199 ])
    [ Scenario.config_i; Scenario.config_ii ]

(* Solver effort of the served [fast] preset: one Newton solve per
   adaptive step, not a trapezoidal/backward-Euler pair, so Newton
   iterations and LU factorizations per accepted step stay low. The
   dual-companion estimator spent 10 and 4.4. *)
let test_fast_preset_effort () =
  List.iter
    (fun sc ->
      let tau = (Scenario.taus sc).(165) in
      let before = Spice.Transient.Stats.snapshot () in
      ignore (Injection.noisy ~engine:Runtime.Engine.fast sc ~tau);
      let d = Spice.Transient.Stats.(diff (snapshot ()) before) in
      let steps = float_of_int d.Spice.Transient.Stats.steps in
      let per what n =
        let r = float_of_int n /. steps in
        Printf.printf "%s: %.2f %s per accepted step\n" sc.Scenario.name r what;
        r
      in
      check_true "solved" (steps > 0.0);
      check_true "<= 5 Newton iterations per step"
        (per "Newton iterations" d.Spice.Transient.Stats.newton_iters <= 5.0);
      check_true "<= 2 factorizations per step"
        (per "factorizations" d.Spice.Transient.Stats.factorizations <= 2.0))
    [ Scenario.config_i; Scenario.config_ii ]

(* Metamorphic time-shift oracle: moving the victim input and the
   aggressor together by a whole number of full-chain steps changes
   nothing physical, so the gate delay must not move beyond the
   solver's grid sensitivity. The fixed grid keeps the same sample
   phase, so it must agree to 0.01 ps; the adaptive grid starts from
   the quiescent prefix and may land differently, so [fast] gets the
   0.1 ps accuracy budget. *)
let test_time_shift_invariance () =
  List.iter
    (fun (sc, i) ->
      let tau = (Scenario.taus sc).(i) in
      List.iter
        (fun (engine, tol_ps) ->
          let d0 = Eval.guard_reference_delay ~engine sc ~tau in
          List.iter
            (fun k ->
              let s = float_of_int k *. sc.Scenario.dt in
              let shifted =
                { sc with Scenario.victim_t0 = sc.Scenario.victim_t0 +. s }
              in
              let d1 =
                Eval.guard_reference_delay ~engine shifted ~tau:(tau +. s)
              in
              let moved_ps = abs_float (d1 -. d0) *. 1e12 in
              if moved_ps > tol_ps then
                Alcotest.failf "%s case %d, %s, shift %d steps: delay moved %.4f ps"
                  sc.Scenario.name i (Runtime.Engine.name engine) k moved_ps)
            [ -50; 13 ])
        [ (Runtime.Engine.reference, 0.01); (Runtime.Engine.fast, 0.1) ])
    [ (Scenario.config_i, 165); (Scenario.config_ii, 199) ]

let suite =
  ( "noise",
    [
      case "scenario: paper values" test_config_values;
      case "scenario: taus" test_taus_span_window;
      case "scenario: victim position" test_victim_position;
      case "scenario: config I circuit shape" test_build_circuit_shape;
      case "scenario: config II circuit shape" test_build_config_ii_shape;
      slow_case "injection: noiseless transitions" test_noiseless_transitions;
      slow_case "injection: noiseless monotone" test_noiseless_monotone;
      slow_case "injection: coupling visible" test_noisy_differs;
      slow_case "injection: early aggressor harmless" test_early_aggressor_no_effect_on_delay;
      slow_case "injection: replay faithful" test_receiver_response_matches_replay;
      slow_case "injection: ctx assembly" test_ctx_of_runs;
      slow_case "rho: shared equals uncached" test_shared_rho_matches_uncached;
      slow_case "rho: one per preset" test_shared_rho_per_preset;
      slow_case "rho: purged run re-extracts" test_shared_rho_after_purge;
      slow_case "eval: one case, all techniques" test_evaluate_case_all_techniques;
      slow_case "eval: table shape" test_run_table_shape;
      slow_case "eval: pp renders" test_pp_table_renders;
      case "eval: diverging solver becomes failed rows"
        test_run_table_survives_no_convergence;
      slow_case "eval: adaptive matches fixed delays"
        test_adaptive_matches_fixed_delays;
      slow_case "injection: fast preset Newton effort"
        test_fast_preset_effort;
      slow_case "eval: time shift leaves delay unchanged"
        test_time_shift_invariance;
    ] )
