(** Persistent on-disk cache of packed trace-replay arenas
    ({!Whisper_trace.Arena}), so repeated CLI invocations skip the
    decode-once generation step entirely and replay straight from disk.

    A {!Whisper_util.Durable.Store} (magic [WARC], extension [.arena],
    counters [arena_cache.*]) whose envelope version sits on top of the
    arena codec's own. *)

val default_subdir : string
(** ["arenas"] — the subdirectory of the result-cache root the runner
    places arena entries under. *)

include Whisper_util.Durable.STORE with type value = Whisper_trace.Arena.t
