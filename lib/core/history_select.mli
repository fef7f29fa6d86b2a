(** Hashed history correlation: per-branch selection of the history
    length and Boolean formula that minimize profiled mispredictions
    (paper §III-A).

    For every candidate length in the geometric series, the branch's
    profile samples are grouped into taken/not-taken tables keyed by the
    hashed history at that length; Algorithm 1 then scores the randomized
    candidate formulas, alongside the two bias hints (always/never
    taken).  The best (length, formula-or-bias) pair is compared against
    the baseline predictor's misprediction count on the same samples —
    only a branch the formula beats gets a hint (otherwise it is left to
    the dynamic predictor).

    One scan of the branch's raw sample records fills packed per-length
    taken/not-taken counters for the train and eval halves
    simultaneously, and candidates are scored through
    {!Algorithm1.find_packed_below} against the shared packed truth
    tables — one path for every sample count.  The seed implementation,
    which re-tabulates per (length, half) and scores through [Bytes]
    truth tables, lives in the test-only [whisper_oracle] library; the
    two return identical choices on any profile. *)

type choice = {
  len_idx : int;
  formula_id : int;
  bias : Brhint.bias;
  sample_mispred : int;  (** mispredictions of this choice on the profile *)
  baseline_mispred : int;  (** baseline mispredictions on the same samples *)
  samples : int;
}

type scratch
(** Reusable per-worker workspace for {!decide}: the packed count tables
    for every history length plus the Algorithm-1 build buffers.  Not
    safe to share across domains — give each worker its own. *)

val scratch : Config.t -> scratch
(** Workspace sized for [cfg.n_lengths] history series. *)

val domain_scratch : Config.t -> scratch
(** The calling domain's cached workspace, allocated on first use and
    reused across branches and across [Analyze.run] calls; grown (never
    shrunk) when a config needs more history lengths than any earlier
    one.  Sound because {!decide} restores the all-zero counter
    invariant before returning.  Per-domain by construction, so the
    "never share a scratch across domains" rule holds automatically. *)

val reset_scratch : scratch -> unit
(** Restore the all-zero counter invariant {!decide} requires on entry.
    Only needed after external corruption (see {!poison_scratch}) —
    {!decide} itself always leaves the scratch clean. *)

val scratch_clean : scratch -> bool
(** Whether every counter cell is zero — the invariant {!decide} must
    restore before returning.  Test hook for the scratch-reuse contract. *)

val poison_scratch : scratch -> unit
(** Overwrite the workspace with garbage.  Test hook: simulates a buggy
    consumer so tests can prove a dirty scratch is what breaks reuse and
    {!reset_scratch}/{!decide}'s exit invariant is what repairs it. *)

val decide :
  ?min_gain:int ->
  ?scratch:scratch ->
  Config.t ->
  Randomized.t ->
  Whisper_trace.Profile.t ->
  pc:int ->
  choice option
(** [None] when the branch has no samples or no choice beats the baseline
    by at least [min_gain] (default from config).  Passing [?scratch]
    avoids the internal workspace allocation when deciding many branches.
    Only shared read-only state of [rnd] is touched, so concurrent calls
    from several domains (each with its own scratch) are safe. *)
