(** TAGE-SC-L (Seznec, CBP-4/5): TAGE refined by a statistical corrector
    and overridden by a loop predictor — the state-of-the-art online
    baseline of the paper (64 KB in the main results; 8 KB–1 MB in the
    sensitivity sweeps). *)

type t

val create : Sizes.t -> t

val storage_bits : t -> int

val predict : t -> pc:int -> bool
val train : t -> pc:int -> taken:bool -> unit
val spectate : t -> pc:int -> taken:bool -> unit

val predictor : Sizes.t -> Predictor.t
(** Package as a {!Predictor.t} named ["tage-scl-<kb>KB"]. *)

val exec : t -> pc:int -> taken:bool -> bool
(** Fused predict→train with direct known calls; state evolution
    identical to {!predict} followed by {!train}. *)

val compiled : Sizes.t -> Predictor.Compiled.t
(** Staged arena kernel (fresh instance per [fill] call); see
    {!Predictor.Compiled} for the contract. *)
