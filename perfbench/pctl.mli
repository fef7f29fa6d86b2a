(** Order statistics for per-call timings.

    A timing is reported as its median plus the highest percentile that
    still has at least ten calls beyond it, with the call count — so a
    tail figure is never read off one or two outliers. *)

val median : float array -> float
(** Middle sample; the mean of the two middle samples for even sizes.
    @raise Invalid_argument on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]th percentile (p in
    \[0, 100\]): the smallest sample with at least [p]% of the samples at
    or below it.  @raise Invalid_argument on an empty array or [p]
    outside the range. *)

val tail_rank : int -> int option
(** [tail_rank n] is the highest integer percentile whose nearest-rank
    sample, among [n] calls, has at least ten calls ranked above it;
    [None] when [n <= 10]. *)

type summary = {
  calls : int;
  median : float;
  tail : (int * float) option;  (** (percentile, value) per {!tail_rank} *)
}

val summarize : float array -> summary
(** @raise Invalid_argument on an empty array. *)
