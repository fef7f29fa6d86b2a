(** The run-time hint buffer (paper §IV, "Run-time hint usage").

    Executing a [brhint] instruction deposits an integer payload, keyed
    by the covered branch's PC, into this small bounded structure;
    predicting a branch probes it in parallel with the dynamic
    predictor.  The paper finds 32 entries sufficient — the sensitivity
    knob is exercised by the [hintbuf_ablation] bench.

    The payload is whatever integer the runtime wants back at probe
    time: the compiled {!Whisper_core.Runtime} stores its precompiled
    plan-entry index, the convenience wrappers below store the encoded
    33-bit [brhint] itself.  Payloads are non-negative so {!probe} can
    report a miss as the negative sentinel {!miss} without allocating an
    [option] per event — the hint-buffer probe runs once per simulated
    branch, and boxing the result was measurable in the replay bench.

    {b Eviction semantics} (pinned by tests): the buffer is ordered by
    {e hint execution}, not by use.  {!insert} refreshes an entry's
    position (re-executing a brhint renews its hint), while {!probe}
    never does — predicting a covered branch is not what keeps its hint
    alive, its brhint being on the hot path is.  When a new key arrives
    at capacity, the entry whose brhint executed {e longest ago} is
    evicted.  Calling this structure an "LRU" would oversell it: it is a
    FIFO over last executions.  The semantics match the hardware story
    (the buffer snoops executed hint instructions; the predictor port is
    read-only) and are relied on by every committed result, so changing
    them is a results-affecting decision, not a refactor. *)

type t

val create : size:int -> t
val size : t -> int
val length : t -> int

val miss : int
(** The probe-miss sentinel, [-1]. *)

val insert : t -> branch_pc:int -> int -> unit
(** Executed-brhint side effect; refreshes the entry's eviction position
    on re-execution.  The payload must be non-negative.
    @raise Invalid_argument on a negative payload. *)

val probe : t -> branch_pc:int -> int
(** Lookup at prediction time: the stored payload, or {!miss} ([-1]).
    {b Does not} refresh the eviction position (the buffer tracks hint
    executions, not branch executions), and never allocates. *)

val insert_hint : t -> branch_pc:int -> Brhint.t -> unit
(** {!insert} of the encoded hint (convenience for callers that do not
    precompile payloads). *)

val probe_hint : t -> branch_pc:int -> Brhint.t option
(** {!probe} + decode.  Allocates on a hit — differential-oracle and
    test convenience, not the replay hot path. *)

val insertions : t -> int
(** Total inserts (dynamic brhint executions observed). *)

val hits : t -> int
val misses : t -> int
(** Probe statistics (hinted-branch coverage diagnostics). *)
