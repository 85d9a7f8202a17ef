type t = {
  region : float * float;
  ts : float array;
  vin : float array;
  rho : float array;
  drho_dv : float array;
  output_shift : float;
  (* Voltage-indexed views, precomputed once: lookups happen per sample
     per technique call and must stay cheap. *)
  v_grid : float array;
  rho_by_v : float array;
  drho_by_v : float array;
}

(* The noiseless input is monotone on the critical region, so [vin] is
   sorted one way or the other; normalize to ascending and keep only
   the strictly increasing spine so interpolation stays well defined
   (simulated edges can carry flat samples near the rails). *)
let build_by_voltage vin values =
  let n = Array.length vin in
  let ordered =
    if n < 2 || vin.(0) <= vin.(n - 1) then
      Array.init n (fun i -> (vin.(i), Array.map (fun v -> v.(i)) values))
    else
      Array.init n (fun i ->
          (vin.(n - 1 - i), Array.map (fun v -> v.(n - 1 - i)) values))
  in
  let kept = ref [ ordered.(0) ] in
  Array.iter
    (fun (v, ys) ->
      match !kept with
      | (vp, _) :: _ when v > vp -> kept := (v, ys) :: !kept
      | _ -> ())
    ordered;
  let pairs = Array.of_list (List.rev !kept) in
  ( Array.map fst pairs,
    Array.map (fun (_, ys) -> ys.(0)) pairs,
    Array.map (fun (_, ys) -> ys.(1)) pairs )

let compute ?(output_shift = 0.0) ?(points = 201) (ctx : Technique.ctx) =
  let open Waveform in
  let region = Technique.noiseless_critical_region ctx in
  let ts = Technique.sample_times region points in
  let vin = Array.map (Wave.value_at ctx.noiseless_in) ts in
  (* Shift the output earlier: v_out_shifted(t) = v_out(t + shift). *)
  let vout =
    Array.map
      (fun tk -> Wave.value_at ctx.noiseless_out (tk +. output_shift))
      ts
  in
  let din = Numerics.Interp.derivative ts vin in
  let dout = Numerics.Interp.derivative ts vout in
  (* Guard the ratio against the vanishing input slope at the very edge
     of the region: treat slopes below 1e-6 of the peak as zero. *)
  let din_peak = Array.fold_left (fun a d -> Float.max a (abs_float d)) 0.0 din in
  let eps = 1e-6 *. din_peak in
  let rho =
    Array.init points (fun k ->
        if abs_float din.(k) <= eps then 0.0 else dout.(k) /. din.(k))
  in
  let drho_dt = Numerics.Interp.derivative ts rho in
  let drho_dv =
    Array.init points (fun k ->
        if abs_float din.(k) <= eps then 0.0 else drho_dt.(k) /. din.(k))
  in
  let v_grid, rho_by_v, drho_by_v = build_by_voltage vin [| rho; drho_dv |] in
  {
    region;
    ts;
    vin;
    rho;
    drho_dv;
    output_shift;
    v_grid;
    rho_by_v;
    drho_by_v;
  }

(* rho depends on the noiseless arc alone, so a sweep or a server
   extracts it once per arc, not once per call. The memo is keyed on
   the two noiseless waves by physical identity — never on a scenario
   or config name, which a resilience fallback or a re-solve can map
   to different waves — and holds them weakly, so an arc's entries die
   with its waves. Each arc keeps one entry per (thresholds, shift,
   points). *)
module Arc_wave = struct
  type t = Waveform.Wave.t

  let equal = ( == )

  (* Identity decides equality; the hash only spreads arcs over the
     buckets. Waves from one solver grid share their leading samples,
     so hash a mid-span value rather than the start. *)
  let hash w =
    let open Waveform.Wave in
    Hashtbl.hash (length w, value_at w (0.5 *. (t_start w +. t_end w)))
end

module Arcs = Ephemeron.K2.Make (Arc_wave) (Arc_wave)

type entry = {
  th : Waveform.Thresholds.t;
  shift : float;
  points : int;
  sens : t;
}

let arcs : entry list Arcs.t = Arcs.create 16

(* One lock over the table, held through an extraction so concurrent
   callers on one arc wait for it instead of extracting twice. *)
let arcs_lock = Mutex.create ()

let shared ?(output_shift = 0.0) ?(points = 201) (ctx : Technique.ctx) =
  let key = (ctx.Technique.noiseless_in, ctx.Technique.noiseless_out) in
  let sens, counter =
    Mutex.protect arcs_lock (fun () ->
        let entries = Option.value ~default:[] (Arcs.find_opt arcs key) in
        match
          List.find_opt
            (fun e ->
              e.points = points
              && Float.equal e.shift output_shift
              && e.th = ctx.Technique.th)
            entries
        with
        | Some e -> (e.sens, "eqwave.rho_reuses")
        | None ->
            let sens = compute ~output_shift ~points ctx in
            Arcs.replace arcs key
              ({ th = ctx.Technique.th; shift = output_shift; points; sens }
              :: entries);
            (sens, "eqwave.rho_extractions"))
  in
  Option.iter (fun m -> Runtime.Metrics.incr m counter) ctx.Technique.metrics;
  sens

let lookup_by_voltage s ys v =
  let xs = s.v_grid in
  let n = Array.length xs in
  (* Outside the critical voltage band the sensitivity is zero by
     definition (the paper's filter). *)
  if n < 2 || v < xs.(0) || v > xs.(n - 1) then 0.0
  else Numerics.Interp.linear xs ys v

let rho_at_voltage s v = lookup_by_voltage s s.rho_by_v v
let drho_dv_at_voltage s v = lookup_by_voltage s s.drho_by_v v

let rho_at_time s t =
  let a, b = s.region in
  if t < a || t > b then 0.0 else Numerics.Interp.linear s.ts s.rho t

let overlap_shift (ctx : Technique.ctx) =
  let open Waveform in
  let in_region = Technique.noiseless_critical_region ctx in
  (* The receiver may be inverting or not (buffers); judge the output
     edge from the waveform itself. *)
  let out_dir = Wave.direction ctx.Technique.noiseless_out in
  let lo = Thresholds.v_low ctx.th and hi = Thresholds.v_high ctx.th in
  let from_level, to_level =
    match out_dir with
    | Wave.Rising -> (lo, hi)
    | Wave.Falling -> (hi, lo)
  in
  match
    ( Wave.first_crossing ctx.noiseless_out from_level,
      Wave.last_crossing ctx.noiseless_out to_level )
  with
  | Some a2, Some b2 when b2 > a2 ->
      let a1, b1 = in_region in
      if a2 <= b1 && a1 <= b2 then 0.0
      else begin
        (* Align the 0.5 Vdd crossings. *)
        let vm = Thresholds.v_mid ctx.th in
        match
          ( Wave.last_crossing ctx.noiseless_in vm,
            Wave.last_crossing ctx.noiseless_out vm )
        with
        | Some tmi, Some tmo -> tmo -. tmi
        | _ ->
            raise
              (Technique.Unsupported
                 "overlap_shift: missing 0.5 Vdd crossing")
      end
  | _ ->
      raise
        (Technique.Unsupported
           "overlap_shift: noiseless output does not span the thresholds")

let peak s =
  Array.fold_left (fun a r -> Float.max a (abs_float r)) 0.0 s.rho
