(** Randomized formula testing (paper §III-B).

    Whisper shuffles the whole formula id space once with a Fisher–Yates
    permutation and reuses the same order for every branch, testing only
    a prefix (0.1 % by default) as Algorithm 1 candidates.  The candidate
    prefix and its packed truth tables are frozen at {!create} — the same
    ids recur for every (branch, history-length) pair by construction, so
    per-call copies and lazy memos would be pure overhead on the hot
    path. *)

type t

val create : Config.t -> t
(** Shuffles the id space determined by [Config.ops] (32768 extended /
    128 classic formulas for 8 hash bits) with the config seed, and
    precomputes the candidate prefix's packed truth tables. *)

val candidates : t -> int array
(** The id prefix tested per branch (length {!Config.explore_count}; the
    full space when [explore_frac >= 1]).  Returns the {e same} array on
    every call — treat it as immutable.  Safe to read concurrently. *)

val packed_candidates : t -> int array array
(** Packed truth tables ({!Whisper_formula.Tree.packed_truth_table}),
    parallel to {!candidates}.  Built once at {!create}; shared and safe
    to read concurrently from multiple domains. *)

val space : t -> int
(** Size of the searched space. *)

val truth_of : t -> int -> Bytes.t
(** Memoized [Bytes] truth table of a formula id (hint rescoring and the
    test oracle's naive scorer).  The memo is mutex-protected: safe, if
    slow, to call from multiple domains. *)

val tree_of : t -> int -> Whisper_formula.Tree.t
(** Decode an id according to the configured op family (classic ids are
    embedded in [And]/[Or]-only trees). *)
