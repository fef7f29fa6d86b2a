(** Packed bounded int→int probe table with insertion-ordered eviction.

    The run-time hint buffer's store: a fixed node pool in parallel
    [int array]s (keys, payloads, hash chains, recency links), so
    {!probe} and {!insert} are O(1) expected and never allocate — a miss
    is the negative sentinel {!miss}, not an [option].

    Eviction order is {e insertion} order, not access order: {!insert}
    of an existing key refreshes its recency, {!probe} never does.  This
    is precisely the hint-buffer semantics (entries age by when their
    [brhint] last executed, not by when the branch was predicted); see
    {!Whisper_core.Hint_buffer} for the rationale and the pinning
    tests. *)

type t

val miss : int
(** The probe-miss sentinel, [-1].  Payloads must be non-negative so the
    sentinel can never collide with a stored value. *)

val create : capacity:int -> t
(** At most [capacity] live bindings; the bucket table is sized to a
    power of two at least twice that, so chains stay short.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int
val length : t -> int

val probe : t -> int -> int
(** [probe t k] is [k]'s payload, or {!miss} ([-1]) when absent.  Does
    {b not} refresh [k]'s eviction position, and never allocates. *)

val insert : t -> int -> int -> unit
(** [insert t k v] binds [k] to payload [v >= 0], making [k] the most
    recently inserted key.  When [k] is new and the table is full, the
    least recently {e inserted} key is evicted first.
    @raise Invalid_argument if [v < 0]. *)

