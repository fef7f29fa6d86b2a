(** The benchmark's span recorder.

    Spans wrap calls {e into} the library from the benchmark's own code:
    name, start, end, parent and an optional work count (events, samples)
    so per-call rates are measured where the work happens.  Spans stay in
    memory until the run ends.  The recorder is single-domain: the traced
    run calls every layer sequentially from the main domain.  Untraced
    runs create no recorder at all. *)

type span = {
  id : int;  (** creation order *)
  parent : int;  (** enclosing span's id, [-1] at the top *)
  name : string;
  t0 : float;  (** wall-clock seconds *)
  t1 : float;
  work : int;  (** units of work the call did, 0 when not counted *)
}

type t

val create : unit -> t

val with_span : t -> ?work:int -> string -> (unit -> 'a) -> 'a
(** Runs the function inside a span; the span is closed (and kept) when
    the function raises too. *)

val count : t -> string -> float -> unit
(** Adds to a named counter recorded at the same boundary as the spans. *)

val counted : t -> string -> float
(** A counter's total, 0 when never counted. *)

val spans : t -> span array
(** Closed spans in creation order (a parent precedes its children). *)

val duration : span -> float

val self_times : span array -> float array
(** Per span: its duration minus the durations of its direct children
    (children of one parent never overlap in a sequential run). *)

val leaves : span array -> span list
(** Spans that enclose no other span. *)

val leaf_seconds : span array -> float

val unattributed_pct : wall:float -> span array -> float
(** Share of [wall] that no leaf span covers, in percent, floored at 0. *)

val named : span array -> string -> span list
