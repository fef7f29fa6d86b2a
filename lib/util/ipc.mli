(** Length-prefixed binary framing and the sweep supervisor/worker wire
    protocol.

    Frames are a 4-byte big-endian payload length followed by the
    payload; payloads are {!Binio}-encoded messages.  The supervisor
    multiplexes many workers with [select], so its side reads through a
    buffered {!reader} that absorbs partial reads and yields only
    complete frames; workers block on {!read_frame}.  Every decode
    failure is a typed {!Whisper_error.t} with stage [Worker] — a
    corrupt or truncated frame from a dying process can never crash the
    supervisor. *)

val protocol_version : int
val max_frame : int
(** Upper bound on a frame payload; longer length prefixes are rejected
    as [Count_overflow] (a torn pipe must not drive a giant
    allocation). *)

(** {1 Framing} *)

type reader

val reader : Unix.file_descr -> reader
val reader_fd : reader -> Unix.file_descr

val feed : reader -> [ `Data | `Eof ]
(** One [read] into the buffer ([`Eof] when the peer closed).  Call
    after [select] reports the fd readable. *)

val next_frame : reader -> bytes option
(** Pop one complete frame if buffered; [None] means feed more.
    @raise Whisper_error.Error on an oversized length prefix. *)

val read_frame : reader -> bytes option
(** Blocking: feed until a frame or EOF ([None]). *)

val write_frame : Unix.file_descr -> bytes -> unit
(** Write the whole frame (prefix + payload), looping over short
    writes.  Raises [Unix_error] (e.g. [EPIPE]) if the peer is gone. *)

(** {1 Protocol messages} *)

type init = {
  events : int;
  baseline_kb : int;
  cache_dir : string;  (** [""] = no persistent cache *)
  faults : float;
  fault_seed : int;
  heartbeat_s : float;
  hang_timeout_s : float;
}

type to_worker =
  | Init of init
  | Item of { seq : int; attempt : int; key : string; spec : string }
  | Shutdown

type outcome = Completed of { digest : string } | Failed of { reason : string }

type from_worker =
  | Hello of { pid : int }
  | Heartbeat of { seq : int }
  | Finished of { seq : int; key : string; outcome : outcome }

val encode_to_worker : to_worker -> bytes
val decode_to_worker : bytes -> (to_worker, Whisper_error.t) result
val encode_from_worker : from_worker -> bytes
val decode_from_worker : bytes -> (from_worker, Whisper_error.t) result

val send_from_worker : Unix.file_descr -> from_worker -> unit
