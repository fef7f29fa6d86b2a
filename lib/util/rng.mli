(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction (workload generation,
    randomized formula testing, behaviour sampling) draw from this
    SplitMix64-based generator so that every experiment is reproducible
    from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams of
    the parent and child are statistically independent. *)

val next : t -> int64
(** [next t] returns the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val bits : t -> int -> int
(** [bits t n] returns [n] uniform random bits as a non-negative int,
    [0 <= n <= 62]. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val bool : t -> bool
(** A fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] samples the number of failures before the first success
    of a Bernoulli([p]) process; [p] must be in (0, 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle (Durstenfeld variant), as used by the
    paper's randomized formula testing (§III-B). *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element.  @raise Invalid_argument on empty array. *)

val sample_weighted : t -> (float * 'a) array -> 'a
(** [sample_weighted t arr] picks an element with probability proportional
    to its weight.  Weights must be non-negative and not all zero. *)
