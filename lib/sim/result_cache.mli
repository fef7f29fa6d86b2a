(** Persistent on-disk cache of timing-model results, so re-running
    [whisper experiment] only simulates configurations that changed.

    A {!Whisper_util.Durable.Store} of [Machine.result]s (magic [WRSC],
    extension [.res], counters [result_cache.*]), keyed by the same
    [technique_key × app × inputs × events × baseline_kb] string the
    in-memory memo table uses.  Corrupt or stale entries are dropped,
    counted and recomputed; failed writes are counted. *)

val default_dir : string
(** ["_whisper_cache"] *)

include
  Whisper_util.Durable.STORE with type value = Whisper_pipeline.Machine.result
