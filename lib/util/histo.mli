(** Integer-keyed counting histograms.

    Thin wrapper over [Hashtbl] (injection planning's block
    co-occurrence counts). *)

type t

val create : ?size_hint:int -> unit -> t

val incr : t -> int -> unit
(** Add one to the count of a key. *)

val add : t -> int -> int -> unit
(** [add t k n] adds [n] to the count of [k]. *)

val count : t -> int -> int
(** Count of a key; 0 when absent. *)

val total : t -> int
(** Sum of all counts. *)

val cardinal : t -> int
(** Number of distinct keys. *)

val to_sorted_list : t -> (int * int) list
(** Bindings sorted by key. *)

val by_count_desc : t -> (int * int) list
(** Bindings sorted by decreasing count (ties by key). *)

val merge_into : dst:t -> src:t -> unit
(** Add every count of [src] into [dst] (profile merging, Fig. 18). *)

val copy : t -> t
