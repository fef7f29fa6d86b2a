(** The closure-replay oracle for {!Whisper_sim.Runner}: every technique
    simulated the slow, obviously faithful way, end to end — the stream
    regenerated through [App_model.source] per pass, the LBR profile
    collected by the closure {!Whisper_trace.Profile.collect} with
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
