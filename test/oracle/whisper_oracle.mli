(** Differential oracles: the slow, obviously faithful implementations
    that the production fast paths must reproduce exactly.  Private to
    the tests and the benchmark harness; nothing in [lib/] or [bin/]
    links it.

    {1 Closure replay}

    The closure-replay oracle for {!Whisper_sim.Runner}: every technique
    simulated end to end — the stream regenerated through
    [App_model.source] per pass, the LBR profile collected by the
    closure {!Whisper_trace.Profile.collect} with
    {!Whisper_sim.Runner.lbr_predictor}, each trained runtime wrapping a
    {!Whisper_bpu.Tage_scl.predictor} closure baseline, and the timing
    model fed per event by {!Whisper_pipeline.Machine.run}.

    [Runner]'s staged arena path must reproduce every result here byte
    for byte.  The [ctx] supplies only the event count, the default
    baseline budget and the memoized control-flow graphs; nothing here
    reads or fills its profile, arena or result tables. *)

val profile :
  ?inputs:int list ->
  ?baseline_kb:int ->
  Whisper_sim.Runner.ctx ->
  Whisper_trace.Workloads.config ->
  Whisper_trace.Profile.t
(** Closure profile collection, same defaults and merge as
    {!Whisper_sim.Runner.profile}. *)

val exec :
  ?profile:Whisper_trace.Profile.t ->
  Whisper_sim.Runner.ctx ->
  Whisper_trace.Workloads.config ->
  Whisper_sim.Runner.technique ->
  train_inputs:int list ->
  kb:int ->
  Whisper_trace.Branch.event ->
  bool
(** A fresh technique runtime, trained offline where needed, as a
    per-event exec closure for {!Whisper_pipeline.Machine.run}.  Training
    reads [profile] when given (it must be the [train_inputs] profile at
    [kb]), else collects it with {!profile}. *)

val run :
  ?train_inputs:int list ->
  ?test_input:int ->
  ?baseline_kb:int ->
  ?profile:Whisper_trace.Profile.t ->
  Whisper_sim.Runner.ctx ->
  Whisper_trace.Workloads.config ->
  Whisper_sim.Runner.technique ->
  Whisper_pipeline.Machine.result
(** One closure simulation, same defaults as {!Whisper_sim.Runner.run};
    nothing is memoized. *)

val run_batch :
  jobs:int ->
  Whisper_sim.Runner.ctx ->
  Whisper_trace.Workloads.config ->
  Whisper_sim.Runner.technique list ->
  Whisper_pipeline.Machine.result list
(** The closure equivalent of a {!Whisper_sim.Runner.run_batch} over
    default-input {!Whisper_sim.Runner.sim}s of one app: one closure
    profile (only if some technique trains), then each technique's
    training and closure simulation, [jobs]-wide.  Results in technique
    order. *)

(** {1 Component oracles} *)

module Algorithm1 = Algorithm1_ref
(** The seed's naive Algorithm 1 engine over dense per-key count arrays:
    [mispredictions] walks the occupied keys against a [Bytes] truth
    table, [find] scores every candidate in full.  Oracle and benchmark
    reference for {!Whisper_core.Algorithm1}'s packed engine. *)

module History_select = History_select_ref
(** The seed [decide]: per-(length, half) re-scans of the profile
    ([tables_at], [part_stats]) scored through {!Algorithm1}.  Returns
    the same choice as {!Whisper_core.History_select.decide} on any
    profile. *)

module Runtime = Runtime_ref
(** The seed interpretive hint runtime: [Inject.hints_at] lookups per
    event, a [Lru]-backed hint buffer and folded updates over every
    configured length.  Must agree with {!Whisper_core.Runtime} verdict
    for verdict and counter for counter. *)

module Cache = Cache_ref
(** The original array-of-arrays set-associative LRU cache, with its own
    geometry check.  Must be trace-identical to
    {!Whisper_pipeline.Cache}. *)
