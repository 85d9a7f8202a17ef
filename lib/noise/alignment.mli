(** Branch-and-bound search over the aggressor alignment window.

    The exhaustive alignment sweep solves one transient per grid
    point. [search] instead solves a coarse sub-grid (fanned out with
    {!Runtime.Engine.submit_batch}), bounds every unexplored bracket
    with a Piyavskii-style rate estimated from the secant slopes
    between solved neighbors, and bisects only brackets whose bound
    still exceeds the incumbent by more than [prune_tol_ps]. Every
    alignment actually solved is byte-identical to the exhaustive
    solve there, and with [prune_tol_ps = 0] the search degenerates
    to the exhaustive sweep, byte-for-byte.

    The secant rate is a heuristic, not a bound: a delay peak narrower
    than one coarse bracket can hide between flat endpoints, and the
    returned worst case can then trail the exhaustive one by more
    than [prune_tol_ps]. On the 200-point grid at [prune_tol_ps = 5]
    the search returns 43.68 ps against 62.09 ps on Config I, and
    69.44 ps against 102.48 ps on {!Scenario.config_i_buffer}. *)

type config = {
  prune_tol_ps : float;
      (** pruning tolerance in ps: a bracket is pruned once its
          estimated bound exceeds the incumbent by no more than this.
          A heuristic knob, not a guaranteed shortfall (see above).
          0 disables pruning entirely (exhaustive sweep). *)
  coarse : int;  (** coarse-phase sub-grid size (endpoints included) *)
  safety : float;
      (** multiplier on the observed secant-slope rate *)
}

val default : config
(** [{ prune_tol_ps = 0.0; coarse = 9; safety = 1.5 }] — exhaustive
    unless a tolerance is asked for. *)

type stats = { total : int; solved : int; pruned : int; rounds : int }

type result = {
  best_index : int;  (** grid index of the worst-case alignment *)
  best_tau : float;
  best_delay : float;
  delays : float option array;
      (** per-grid-point mid-threshold delay; [None] = pruned *)
  stats : stats;
}

val mid_delay : Scenario.t -> Injection.run -> float
(** Receiver-output minus receiver-input last mid-threshold crossing.
    Raises {!Runtime.Failure.Error} [Missing_crossing] if either probe
    never crosses. *)

val delay_at :
  ?engine:Runtime.Engine.t -> Scenario.t -> noiseless:Injection.run ->
  tau:float -> float
(** Solve (or replay from cache) the noisy case at [tau] and measure
    {!mid_delay}. *)

val search :
  ?config:config -> ?engine:Runtime.Engine.t -> Scenario.t ->
  noiseless:Injection.run -> result
(** Run the search over [Scenario.taus scenario]. Solved rounds are
    fanned out with {!Runtime.Engine.submit_batch}; ties break toward
    the lowest grid index (first maximum wins), matching the
    exhaustive sweep. When the engine carries a metrics registry,
    counts [noise.alignments_solved] / [noise.alignments_pruned]. *)

val pp_stats : Format.formatter -> stats -> unit
