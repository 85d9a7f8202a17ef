(* align_search: for each configuration, one exhaustive sweep (tol 0)
   of the paper's 200-point grid and Noise.Alignment.search at
   prune_tol_ps 1, 2 and 5, each search on a fresh cache so none
   replays another's solves.

   The inputs are the paper's grid and these tolerances, whatever the
   seed: the worst-case landscape, and so the pruning defect on
   Config I, is a property of that grid, and a seeded grid phase moves
   the pruned searches' solve counts, and with them every figure, from
   seed to seed. The searches run in one fixed order too, since the
   heap an exhaustive sweep leaves behind slows what follows it. *)

open Common

let preset = Runtime.Engine.reference
let tols = [ 1.0; 2.0; 5.0 ]

type op = { scen : Noise.Scenario.t; tol : float }

type outcome = {
  op : op;
  result : Noise.Alignment.result option;  (** [None]: the search raised *)
  wall : float;
}

let ops ~cases =
  let scens =
    List.map (fun s -> Noise.Scenario.with_cases s cases)
      Noise.Scenario.[ config_i; config_ii ]
  in
  (scens, List.concat_map (fun scen -> List.map (fun tol -> { scen; tol }) (0.0 :: tols)) scens)

let search ~noiseless op =
  let engine = fresh_engine preset in
  let nl = List.assq op.scen noiseless in
  let config = { Noise.Alignment.default with Noise.Alignment.prune_tol_ps = op.tol } in
  let result, wall =
    timed (fun () ->
        match Noise.Alignment.search ~config ~engine op.scen ~noiseless:nl with
        | r -> Some r
        | exception e -> (
            match Noise.Eval.failure_of_exn e with
            | Some f ->
                problem "%s tol %g: %s" op.scen.Noise.Scenario.name op.tol
                  (Runtime.Failure.to_string f);
                None
            | None -> raise e))
  in
  { op; result; wall }

let tol_name tol = Printf.sprintf "tol%.0f" tol

let config_name (s : Noise.Scenario.t) =
  if s.Noise.Scenario.n_aggressors = 1 then "config_i" else "config_ii"

(* Every alignment a pruned search solved must equal the exhaustive
   delay at that index, bit for bit; the exhaustive sweep must have
   solved every point. Returns the shortfall in ps of each pruned
   search against its exhaustive sweep. *)
let check pass =
  let exhaustive scen =
    List.find_map
      (fun o -> if o.op.scen == scen && o.op.tol = 0.0 then o.result else None)
      pass
  in
  List.filter_map
    (fun o ->
      let ok, shortfall =
        match (o.result, exhaustive o.op.scen) with
        | None, _ | _, None -> (false, None)
        | Some _, Some e when o.op.tol = 0.0 ->
            let full = Array.for_all Option.is_some e.Noise.Alignment.delays in
            if not full then
              problem "%s exhaustive sweep left points unsolved"
                o.op.scen.Noise.Scenario.name;
            (full, None)
        | Some r, Some e ->
            let same = ref true in
            Array.iteri
              (fun i d ->
                match (d, e.Noise.Alignment.delays.(i)) with
                | None, _ -> ()
                | Some a, Some b when same_float a b -> ()
                | Some _, _ ->
                    same := false;
                    problem "%s tol %g index %d: pruned delay differs from exhaustive"
                      o.op.scen.Noise.Scenario.name o.op.tol i)
              r.Noise.Alignment.delays;
            ( !same,
              Some
                ( o,
                  (e.Noise.Alignment.best_delay -. r.Noise.Alignment.best_delay) *. 1e12 ) )
      in
      op_ok ok;
      shortfall)
    pass

(* Whole passes until the budget is spent, at least one: a partial
   pass would change the exhaustive/pruned mix the figures rest on. *)
let passes ~seconds ~noiseless order =
  let t0 = now () in
  let rec go acc =
    let pass = List.map (search ~noiseless) order in
    mark_peak_rss ();
    let acc = pass :: acc in
    let pass_time = sum (List.map (fun o -> o.wall) pass) in
    if now () -. t0 +. pass_time > seconds then List.rev acc else go acc
  in
  go []

(* The traced pass: for each search, the solve work it did is replayed
   on a fresh cache through the layer functions — circuit builds, the
   batch warm-up of the solved alignments, then a cache-hit noisy
   lookup and the mid-threshold delay per solved point. What the
   search's wall time leaves over is its own bracketing and bounding. *)
let traced_pass pass =
  let before = snapshot () in
  let searched = ref 0.0 and replayed = ref 0.0 in
  let caches = ref [] in
  List.iter
    (fun o ->
      match o.result with
      | None -> ()
      | Some r ->
          let engine = fresh_engine preset in
          caches := Option.to_list (Runtime.Engine.cache engine) @ !caches;
          let taus = Noise.Scenario.taus o.op.scen in
          let solved =
            List.filter_map
              (fun i -> if r.Noise.Alignment.delays.(i) <> None then Some taus.(i) else None)
              (List.init (Array.length taus) Fun.id)
            |> Array.of_list
          in
          let (), wall =
            timed (fun () ->
                Array.iter
                  (fun tau ->
                    ignore
                      (span "scenario.build" (fun () ->
                           Noise.Scenario.build o.op.scen ~aggressor_active:true ~tau)))
                  solved;
                ignore
                  (span "injection.prewarm" (fun () ->
                       Noise.Injection.prewarm_noisy ~engine o.op.scen solved));
                Array.iter
                  (fun tau ->
                    let run =
                      span "injection.cache_hit" (fun () ->
                          Noise.Injection.noisy ~engine o.op.scen ~tau)
                    in
                    ignore
                      (span "waveform" (fun () -> Noise.Alignment.mid_delay o.op.scen run)))
                  solved)
          in
          searched := !searched +. o.wall;
          replayed := !replayed +. wall)
    pass;
  emit_spice ~before ~after:(snapshot ());
  emit_caches !caches;
  (!searched, !replayed)

let run ~seed:_ ~seconds ~smoke ~trace =
  let cases = if smoke then 24 else 200 in
  let scens, order = ops ~cases in
  detail "align.order"
    (String.concat ","
       (List.map (fun o -> config_name o.scen ^ ":" ^ tol_name o.tol) order));
  let noiseless =
    setup (fun () ->
        List.map (fun s -> (s, Noise.Injection.noiseless ~engine:preset s)) scens)
  in
  let all = passes ~seconds ~noiseless order in
  (* Every pass is checked; the figures are the same in each, so the
     first pass's shortfalls are the ones reported. *)
  let shortfalls = match List.map check all with first :: _ -> first | [] -> [] in
  let outcomes = List.concat all in
  let walls = List.map (fun o -> o.wall) outcomes in
  let n_pass = float_of_int (List.length all) in
  detailf "align.passes" "%d" (List.length all);
  let worst = List.fold_left (fun acc (_, s) -> Float.max acc s) 0.0 shortfalls in
  let shortfall_name o =
    Printf.sprintf "align.shortfall_ps.%s.%s" (config_name o.op.scen) (tol_name o.op.tol)
  in
  List.iter (fun (o, s) -> detailf (shortfall_name o) "%.4f" s) shortfalls;
  if not trace then begin
    emit "ops_per_s" "1/s" (float_of_int (List.length outcomes) /. sum walls);
    (* The pruned searches differ in solve count, so their median jumps
       between them from run to run; their mean does not. *)
    emit "op_ms" "ms"
      (1e3 *. mean (List.filter_map (fun o -> if o.op.tol > 0.0 then Some o.wall else None) outcomes));
    (* The slow ops are the two exhaustive sweeps: their mean. *)
    emit "op_tail_ms" "ms"
      (1e3 *. mean (List.filter_map (fun o -> if o.op.tol = 0.0 then Some o.wall else None) outcomes))
  end
  else begin
    let wall_of p = sum (List.map (fun o -> o.wall) (List.filter p outcomes)) /. n_pass in
    emit "align.exhaustive_s" "s" (wall_of (fun o -> o.op.tol = 0.0));
    emit "align.pruned_s" "s" (wall_of (fun o -> o.op.tol > 0.0));
    emit "align.worst_shortfall_ps" "ps" worst;
    List.iter (fun (o, s) -> emit (shortfall_name o) "ps" s) shortfalls;
    (* Branch-and-bound accounting over the pruned searches of the
       first pass. *)
    let pruned =
      List.filter_map
        (fun o -> if o.op.tol > 0.0 then o.result else None)
        (List.hd all)
    in
    let st f = float_of_int (List.fold_left (fun a r -> a + f r.Noise.Alignment.stats) 0 pruned) in
    let solved = st (fun s -> s.Noise.Alignment.solved) in
    emit "align.solved" "count" solved;
    emit "align.pruned" "count" (st (fun s -> s.Noise.Alignment.pruned));
    emit "align.rounds" "count" (st (fun s -> s.Noise.Alignment.rounds));
    emit "align.solve_ratio" "ratio" (ratio solved (st (fun s -> s.Noise.Alignment.total)));
    let searched, replayed = traced_pass (List.hd all) in
    let builds = total "scenario.build" in
    let children =
      total "injection.prewarm" +. total "injection.cache_hit" +. total "waveform"
    in
    emit_calls ();
    let self =
      [
        ("scenario", builds);
        ("spice", total "injection.prewarm" -. builds);
        ("injection", total "injection.cache_hit");
        ("waveform", total "waveform");
      ]
    in
    emit "self_ms.alignment" "ms" (1e3 *. Float.max 0.0 (searched -. children));
    emit_layers ~self ~untraced_wall:searched ~traced_wall:(searched +. replayed)
  end
