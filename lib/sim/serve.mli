(** Continuous-profiling service mode: the long-running loop that turns
    the batch reproduction into the paper's deployment story (§IV's
    fleet pipeline run {e forever}, not once).

    Each {e generation} of the scripted scenario models one fleet
    delivery interval, per application: a trace chunk is collected from
    the (possibly drifting) workload and delivered — optionally
    corrupted by the {!Whisper_util.Fault} machinery — to the service,
    which accepts it once per content id (re-deliveries are counted
    no-ops), re-scores the deployed hint plan against a sliding window
    of recent chunks merged with {!Whisper_trace.Profile_chunk}
    ({!Whisper_core.Rescore}), and when
    coverage has decayed past the drift threshold re-runs the full
    analysis over the shared domain pool.  A candidate plan is rolled
    out only if it scores at least as well as the incumbent on the same
    window — otherwise it is rolled back and the incumbent stays
    deployed.  Corrupt chunks and faulted analyses quarantine; they
    never kill the service.

    With [jobs > 1] the next chunks are collected on the shared domain
    pool while the current step runs; only collection moves, so every
    output below is the same at any [jobs].

    Crash safety mirrors {!Sweep}: the scenario is frozen into a
    content-keyed {!Whisper_util.Manifest}, every completed
    (generation, app) step appends its canonical {e ledger line} to a
    checksummed {!Whisper_util.Journal} bound to the manifest id (both
    opened through {!Whisper_util.Journal.resume}), and chunk/plan
    artifacts are stored with {!Whisper_util.Durable.write_atomic} under
    the state dir.
    [kill -9] at any instant loses at most the in-flight step: resuming
    replays the journal (verifying rolled-out plan files by digest —
    anything inconsistent re-executes) and the final ledger is
    byte-identical to an uninterrupted run's. *)

type config = {
  apps : string list;  (** {!Whisper_trace.Workloads.by_name} entries *)
  generations : int;  (** scripted delivery intervals *)
  chunk_events : int;  (** branch events collected per chunk *)
  window : int;  (** sliding window, in accepted chunks *)
  kb : int;  (** baseline predictor budget during collection *)
  max_samples : int;  (** per-branch sample cap of chunks and window merges *)
  drift_flip : int option;
      (** generation at which the workload switches to session-mix
          phase 1 ({!Whisper_trace.App_model} [?phase]) *)
  decay_frac : float;
      (** re-analysis triggers when window coverage falls below
          [decay_frac] x the deployed plan's rollout coverage *)
  state_dir : string;  (** manifest, journal, chunk and plan stores *)
  jobs : int;
      (** analysis fan-out and chunk-collection lookahead over the shared
          pool: up to [jobs] chunks in flight; 1 collects inline *)
  faults : float;  (** chaos rate, 0.0 = off *)
  fault_seed : int;
  redeliver : bool;  (** re-offer each accepted chunk (idempotency probe) *)
  resume : bool;  (** replay [state_dir]'s journal before executing *)
  max_steps : int option;
      (** test hook: stop — as if [kill -9]'d — once this many steps
          have been journaled this run, skipping the ledger *)
}

val default : state_dir:string -> config
(** One app ([finagle-http]), 12 generations, 120 k-event chunks, window
    4, 64 KB, flip at generation 6, decay 0.5, no faults, no resume. *)

val plan : config -> Whisper_util.Manifest.t
(** The frozen scenario: one item per (generation, app), meta carrying
    every result-affecting parameter (chaos knobs included).  Pure in
    the config — [jobs], [resume] and [max_steps] are excluded, so a
    resumed or differently-parallel run binds to the same journal. *)

(** {1 Ledger lines}

    Every completed step renders to one canonical [key=value] line —
    the journal detail, the stdout ledger and the soak job's diff
    target are all this same string. *)

type step
(** One parsed ledger line. *)

val render_step : step -> string

val parse_step : string -> step option
(** Total inverse: [parse_step (render_step s) = Some s], and [None] on
    anything malformed (resume re-executes such steps). *)

type outcome = {
  ledger : string list;
      (** canonical per-step lines in manifest order; empty when
          [interrupted] *)
  summary : string list;  (** canonical per-app + totals summary lines *)
  manifest_id : string;
  total : int;  (** manifest items *)
  completed : int;  (** steps newly journaled this run *)
  resumed : int;  (** journal entries applied without re-execution *)
  chunks_ingested : int;
  duplicates : int;  (** re-deliveries counted as no-ops, cumulative *)
  chunks_quarantined : int;
  rescores : int;
  drift_detected : int;
  analyses : int;  (** re-analyses that ran to completion *)
  analysis_quarantined : int;  (** faulted/hung analyses skipped *)
  rollouts : int;
  rollbacks : int;
  journal_recovered : bool;
  journal_dropped_bytes : int;
  interrupted : bool;
}

val validate : config -> (unit, string) result
(** [Error] names the first of [chunk_events], [window], [max_samples]
    and [jobs] that is below 1. *)

val run : config -> outcome
(** Execute (or resume) the scripted scenario.  The ledger and summary
    are deterministic functions of the config — independent of job
    count, kills and resumes.
    @raise Invalid_argument when {!validate} rejects the config, before
    the state dir is touched. *)

val decide_rollout :
  incumbent:float option -> candidate:float -> [ `Rollback | `Rollout ]
(** The rollout rule applied after every completed re-analysis: the
    candidate plan replaces the incumbent only when its window coverage
    is at least the incumbent's ([incumbent = None] — no deployed plan
    — always rolls out). *)

val check_recovery : config -> outcome -> (unit, string) result
(** The soak gate's drift-recovery assertion: for every app, the phase
    flip must have produced at least one drift detection at or after
    [drift_flip], at least one post-flip rollout, and a final deployed
    coverage strictly above the post-flip trough.  [Error] carries a
    human-readable reason; meaningless (and an error) on interrupted
    outcomes or scenarios without a flip. *)
