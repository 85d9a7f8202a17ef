(* Shared assertion helpers for the suites. *)

let approx ?(eps = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g (eps %.2g)" msg expected actual
      eps

let approx_rel ?(rel = 1e-6) msg expected actual =
  let scale = Float.max (abs_float expected) 1e-30 in
  if abs_float (expected -. actual) > rel *. scale then
    Alcotest.failf "%s: expected %.9g, got %.9g (rel %.2g)" msg expected actual
      rel

let check_true msg b = Alcotest.(check bool) msg true b

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let qcase ?count name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ?count ~name gen prop)

(* A deterministic pseudo-random float array generator for tests that
   need "arbitrary" data without QCheck plumbing. *)
let lcg_array seed n lo hi =
  let state = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      lo +. ((hi -. lo) *. (float_of_int !state /. float_of_int 0x3FFFFFFF)))

(* A registry counter; 0 when never bumped. *)
let counter m name =
  Option.value ~default:0 (List.assoc_opt name (Runtime.Metrics.counters m))

(* Every array and scalar of an extracted rho, as exact bits. *)
let sens_bits (s : Eqwave.Sensitivity.t) =
  let open Eqwave.Sensitivity in
  let bits = Array.map Int64.bits_of_float in
  ( List.map bits
      [ s.ts; s.vin; s.rho; s.drho_dv; s.v_grid; s.rho_by_v; s.drho_by_v ],
    bits [| fst s.region; snd s.region; s.output_shift |] )

(* A technique's Gamma_eff as exact bits, or its rejection reason. *)
let fit_bits (tech : Eqwave.Technique.t) ctx =
  match tech.Eqwave.Technique.run ctx with
  | r ->
      Ok
        ( Int64.bits_of_float r.Waveform.Ramp.slope,
          Int64.bits_of_float r.Waveform.Ramp.intercept )
  | exception Eqwave.Technique.Unsupported reason -> Error reason

(* Copies of the noiseless waves are a new arc to the rho memo, so a
   ctx over them extracts rho from scratch: the uncached path. *)
let fresh_arc (ctx : Eqwave.Technique.ctx) =
  let copy w =
    Waveform.Wave.create (Waveform.Wave.times w) (Waveform.Wave.values w)
  in
  {
    ctx with
    Eqwave.Technique.noiseless_in = copy ctx.Eqwave.Technique.noiseless_in;
    noiseless_out = copy ctx.Eqwave.Technique.noiseless_out;
    metrics = None;
  }

(* [engine] (default the reference engine) carrying a freshly armed
   solver fault plan. *)
let with_solver_faults ?(engine = Runtime.Engine.reference) kind sel =
  Runtime.Engine.with_faults engine
    (Runtime.Fault.arm Runtime.Engine.fault_kinds { Runtime.Fault.kind; sel })

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* One fault-spec grammar table: every [accept] row parses to its
   expected spec, every [reject] row is refused with the grammar. *)
let fault_grammar kinds ~accept ~reject =
  List.iter
    (fun (s, want) ->
      match Runtime.Fault.parse kinds s with
      | Ok got ->
          check_true (Printf.sprintf "%S parsed as expected" s) (got = want)
      | Error msg -> Alcotest.failf "spec %S rejected: %s" s msg)
    accept;
  List.iter
    (fun s ->
      match Runtime.Fault.parse kinds s with
      | Ok _ -> Alcotest.failf "spec %S accepted" s
      | Error msg ->
          check_true
            (Printf.sprintf "%S: error names the grammar" s)
            (contains_sub ~sub:"(nth:N | RATE[@SEED])" msg))
    reject
