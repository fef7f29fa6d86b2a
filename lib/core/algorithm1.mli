(** FIND-BOOLEAN-FORMULA (paper Algorithm 1).

    Given taken/not-taken hashed-history tables [T] and [NT] — keys are
    hashed histories, values are profile sample counts — find, among a
    candidate set of formulas, the one that mispredicts the fewest
    samples: a formula [f] mispredicts every taken sample whose key does
    not satisfy [f] plus every not-taken sample whose key does.

    Formulas are scored against bitset truth tables
    ({!Whisper_formula.Tree.packed_truth_table}) using the identity
    [m = t_total - sum over satisfied keys of (t_k - nt_k)] over a
    compact per-key delta array — keys with [t_k = nt_k] drop out of the
    sum entirely and are never visited.  The search prunes candidates
    through a sorted-by-|delta| suffix bound, and stops the candidate
    scan outright once some candidate reaches the irreducible floor
    [sum min(t_k, nt_k)] that no formula can beat; all of it selects
    exactly what an exhaustive scan would.  The naive per-key [Bytes]
    engine lives in the test-only [whisper_oracle] library as the
    differential oracle and benchmark reference. *)

type tables
(** Compacted per-key deltas for one branch at one history length, plus
    the totals and pruning bounds.  Tables from {!tables_of_counts} own
    their storage and are immutable; tables from
    {!tables_of_cells_below} are views into the scratch, valid only
    until its next build. *)

(** {1 Building tables} *)

type scratch
(** Reusable workspace for {!tables_of_cells_below}: one allocation
    serves any number of sequential builds.  Not safe to share across
    domains — give each worker its own. *)

val scratch : unit -> scratch
(** Workspace for the 256 keys of the 8-bit hash space. *)

val tables_of_counts : taken:int array -> not_taken:int array -> tables
(** Build from dense per-key count arrays (length [2^hash_bits]), keys
    ordered by decreasing [|t_k - nt_k|]. *)

val tables_of_cells_below :
  scratch -> cells:int array -> off:int -> cutoff:int -> tables option
(** Fused hot-path extraction over 256 packed counter cells:
    [cells.(off + k)] holds key [k]'s taken count in bits [0 .. 30] and
    its not-taken count in bits [31 .. 61].  Returns [None] when no key
    is occupied, or when the irreducible misprediction floor
    [sum min(t_k, nt_k)] — a lower bound on {e any} formula's score — is
    at least [cutoff], so the caller can skip the whole candidate scan
    exactly.  The returned tables are a zero-allocation {e view} into
    the scratch, invalidated by the scratch's next build — score them
    before building again. *)

(** {1 Inspecting tables} *)

val tables_total : tables -> int * int
(** Total (taken, not-taken) sample counts. *)

val distinct_keys : tables -> int

(** {1 Scoring} *)

val mispredictions_packed : tables -> ptruth:int array -> int
(** Mispredictions of the formula whose packed bitset truth table is
    [ptruth], computed branchlessly.  [ptruth] must cover every key in
    the tables (8 words for the 8-bit hash space; unchecked, like
    {!Whisper_formula.Tree.eval_tt}). *)

val always_mispredictions : tables -> int
(** Mispredictions of the always-taken hint (= not-taken samples). *)

val never_mispredictions : tables -> int

val find_packed :
  tables ->
  candidates:int array ->
  packed:int array array ->
  int * int * int
(** [find_packed tables ~candidates ~packed] returns
    [(index, formula_id, m')] for the winning candidate — the one with
    the minimum misprediction count [m'], ties resolved to the earlier
    candidate as in the paper's sequential scan — where [packed.(i)] is
    the packed truth table of [candidates.(i)] ([packed] may be longer
    than [candidates]).  Losing candidates are abandoned through an
    optimistic suffix bound the moment they provably cannot beat the
    current best, which never changes the selected formula.
    @raise Invalid_argument on an empty candidate set or when [packed] is
    shorter than [candidates]. *)

val find_packed_below :
  tables ->
  candidates:int array ->
  packed:int array array ->
  cutoff:int ->
  (int * int * int) option
(** Like {!find_packed}, but only interested in candidates scoring
    strictly below [cutoff]: returns [None] when no candidate beats it.
    Exactly equivalent to running {!find_packed} and discarding a winner
    with [m' >= cutoff] — callers that already hold a bound (the best
    choice from other history lengths) let the scorer abandon hopeless
    candidates after a single bound comparison, or the whole table after
    one floor comparison. *)
