(** Named metric values and the benchmark's one-line JSON result. *)

val valid_name : string -> bool
(** 1–64 characters from [[A-Za-z0-9_.-]], starting with a letter or a
    digit. *)

type t = private { name : string; value : float; unit_ : string }

val make : string -> unit_:string -> float -> t
(** @raise Invalid_argument on an invalid name or a non-finite value. *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> t list -> string
(** [{"correct": …, "attempted": …, "failed": …, "metrics": {name:
    {"value": v, "unit": u}, …}}] on one line, values printed with
    round-trip precision.  Names and units are plain ASCII (checked by
    {!make} for names), so OCaml's [%S] quoting is valid JSON here. *)
