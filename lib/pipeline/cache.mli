(** Generic set-associative LRU cache of line tags, used for the L1i/L2/L3
    instruction-side hierarchy and for the BTB.

    The kernel is a single flat preallocated [int array] (set-major,
    way 0 = MRU), so [access]/[probe] are allocation-free and an instance
    can be [reset] and reused across runs instead of rebuilt.  The
    original array-of-arrays implementation is its differential oracle
    in the test-only [whisper_oracle] library (see the cache fuzz
    suite). *)

type t

val create : ?bytes:int -> ?entries:int -> assoc:int -> line_bytes:int -> unit -> t
(** Size by [bytes] (capacity / line size sets the entry count) or
    directly by [entries].  @raise Invalid_argument unless exactly one of
    the two is given and geometry is a power of two. *)

val entries : t -> int

val reset : t -> unit
(** Invalidate every line and zero the hit/miss counters, returning the
    instance to its freshly-created state without reallocating. *)

val access : t -> int -> bool
(** [access t addr] probes the line containing [addr] and updates LRU /
    fills on miss; returns whether it hit. *)

val probe : t -> int -> bool
(** Hit test without state change. *)

val hits : t -> int
val misses : t -> int
