(** Trace-driven timing model — the reproduction's substitute for the
    Scarab simulator (DESIGN.md §2).

    A decoupled-frontend, interval-style cycle account over basic-block
    events:

    - every block costs [instrs / width] base cycles;
    - its instruction lines probe the L1i/L2/L3 hierarchy; a miss stalls
      the frontend only for the part FDIP could not hide, where the
      prefetcher's lead grows with the branch-predictor-filled FTQ and
      collapses to zero on every misprediction resteer;
    - a mispredicted branch pays the squash/refill penalty;
    - a taken branch whose target misses in the BTB pays a decode-resteer
      bubble and dents the FDIP lead.

    This reproduces the two mechanisms behind the paper's Fig. 1
    decomposition: removing mispredictions removes squash cycles {e and}
    restores FDIP lookahead, which converts exposed I-cache misses into
    hidden ones (the paper's "frontend stalls avoided by FDIP").

    Cycle and stall totals accumulate internally in scaled integers
    (2^-20 cycle fixed point, DESIGN.md §15) and are converted to floats
    once per run, so accumulation is exact, allocation-free, and
    independent of evaluation order across the feed strategies. *)

type result = {
  cycles : float;
  instrs : int;
  branches : int;
  mispredicts : int;
  misp_stall : float;  (** squash/refill cycles *)
  fe_stall : float;  (** exposed instruction-fetch miss cycles *)
  btb_stall : float;
  l1i_misses : int;
  exposed_misses : int;  (** misses FDIP failed to fully hide *)
  seg_mispredicts : int array;
      (** mispredictions per trace segment (for warm-up and trace-length
          sweeps, Figs. 22–23).  Segment [k] covers event indices
          [k*events/segments, (k+1)*events/segments): sizes differ by at
          most one, and short runs ([events < segments], [events = 0])
          spread evenly instead of leaving trailing empty segments. *)
  seg_instrs : int array;
}

val degraded : result -> bool
(** [true] on the quarantined-run sentinel (NaN cycles).  Derived
    metrics of a degraded result are NaN, not a perfect score. *)

val ipc : result -> float
val mpki : result -> float

val speedup_pct : baseline:result -> improved:result -> float
(** Percentage IPC speedup of [improved] over [baseline] (same trace). *)

val run :
  ?params:Params.t ->
  ?segments:int ->
  events:int ->
  source:Whisper_trace.Branch.source ->
  predict:(Whisper_trace.Branch.event -> bool) ->
  unit ->
  result
(** [predict e] must carry out the full predict/train protocol of the
    modelled predictor and return whether the direction was predicted
    correctly. *)

type arena_exec =
  | Oracle
      (** Every prediction is correct — the [ideal] technique with zero
          per-event predictor work. *)
  | Compiled of
      (arena:Whisper_trace.Arena.t -> n:int -> verdicts:Bytes.t -> unit)
      (** Staged kernel, dispatched to exactly once per run: [fill] must
          write, for each event index [i < n], a non-['\000'] byte into
          [verdicts.[i]] iff the technique got event [i]'s direction
          right.  The buffer is machine-owned per-domain scratch (reused
          across runs, at least [n] bytes, bytes beyond [n] unspecified),
          so a kernel may also use it for its own per-event state before
          writing the final verdicts.  See
          {!Whisper_bpu.Predictor.Compiled} for the producing side. *)

val run_arena_exec :
  ?params:Params.t ->
  ?segments:int ->
  events:int ->
  arena:Whisper_trace.Arena.t ->
  exec:arena_exec ->
  unit ->
  result
(** Replay path: the same timing model as {!run}, fed by direct indexed
    reads from a packed {!Whisper_trace.Arena} instead of a closure
    source — no [Branch.event] is allocated per event — with the
    technique's verdicts coming from one [exec] strategy per run.  Both
    entry points share one accounting core, so for the same stream and
    the same predictor decisions the results are byte-identical; {!run}
    is the reference the tests compare every strategy against.
    @raise Invalid_argument if [events] exceeds the arena's length. *)
