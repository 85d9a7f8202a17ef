(** Monte-Carlo noise-injection experiments.

    The paper sweeps aggressor alignment deterministically; real
    integration flows also randomize alignment and aggressor polarity.
    This driver samples both and reports per-technique error
    percentiles, which is how a tool team would qualify a reduction
    technique before adoption. Deterministic under a fixed seed. *)

type sample = {
  tau : float;
  aggressor_rising : bool;
  case : Eval.case_eval;
}

type summary = {
  technique : string;
  p50_ps : float;
      (** median |delay error|; 0 (with [n = 0]) when every sample
          failed *)
  p95_ps : float;
  max_ps : float;
  n : int;
  failed : int;
}

val run :
  ?seed:int -> ?samples:int -> ?techniques:Eqwave.Technique.t list ->
  ?ladder:Eqwave.Ladder.t ->
  ?checkpoint_dir:string ->
  ?engine:Runtime.Engine.t ->
  Scenario.t -> sample list * summary list
(** [run scenario] draws [samples] (default 50) cases with uniformly
    random alignment over the scenario window and random aggressor
    polarity. [seed] defaults to 42. All draws happen before any
    evaluation, so the result is deterministic for a given seed even
    when the cases are swept on the engine's pool
    ({!Runtime.Engine.submit_batch}); the engine's cache
    memoizes the underlying simulations. Cases whose simulation fails beyond the
    engine's {!Runtime.Resilience} ladder are counted in each
    summary's [failed] (typed, via [Eval.failed_case]) instead of
    aborting the run. [ladder] (default {!Eqwave.Ladder.default})
    produces each sample's [case.mapping] degradation record.

    With [checkpoint_dir], completed samples are journaled under a
    fingerprint covering the scenario, solver config, policy, seed and
    sample count; an interrupted run resumed with the same arguments
    replays the journal and produces byte-identical results. *)

val pp_summary : Format.formatter -> summary list -> unit
