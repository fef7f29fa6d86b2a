(** The one durability layer: every file the caches, sweeps and serve
    persist goes through here.

    Writes are atomic: the bytes go to a temp file next to the target,
    which is then renamed over it, so a reader — or a process resuming
    after [kill -9] — sees either the old file or the new one, never a
    torn mix.  On top of that, {!Store} is a keyed, self-validating blob
    store: one file per key, named by the key's digest, carrying a magic
    tag, a format version and the full key, so a stale, foreign or
    damaged entry is detected, dropped and counted instead of trusted. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents. *)

val write_atomic : string -> bytes -> unit
(** [write_atomic path data] creates the parent directories, writes
    [data] to [<path>.<pid>.<domain>.tmp] and renames it over [path].
    No [fsync]: atomicity, not durability across power loss.
    @raise Sys_error or [Unix.Unix_error] when the write fails; the temp
    file is removed first. *)

val read : string -> bytes option
(** The whole file, or [None] when it is missing or unreadable. *)

(** What a keyed store persists: the payload codec plus the envelope's
    identity. *)
module type CODEC = sig
  type value

  val magic : string
  (** Raw tag opening every entry. *)

  val version : int
  (** Envelope format version; bump it when the payload encoding
      changes, so older entries decode as stale. *)

  val stage : Whisper_error.stage
  (** Stage every decode error carries. *)

  val ext : string
  (** Entry file extension, dot included. *)

  val metric_prefix : string
  (** Telemetry counters are [<prefix>.loads], [.stores],
      [.corrupt_dropped] and [.write_failures]. *)

  val write : Binio.Writer.t -> value -> unit
  val read : Binio.Reader.t -> value
end

module type STORE = sig
  type value
  type t
  type counters = { write_failures : int; corrupt_dropped : int }

  val create :
    ?corrupt:(key:string -> bytes -> bytes) -> dir:string -> unit -> t
  (** Create the directory (and parents) if needed.  [corrupt] is a
      read-path hook applied to entry bytes before decoding — used by
      the fault-injection harness to model on-disk bit rot; production
      callers omit it. *)

  val dir : t -> string

  val counters : t -> counters
  (** Snapshot of the degradation counters accumulated so far. *)

  val path : t -> key:string -> string
  (** The entry file a given key maps to (for tests/tooling). *)

  val find : t -> key:string -> value option
  (** [None] on a miss or on a corrupt/stale entry (which is deleted
      and counted under [corrupt_dropped]). *)

  val store : t -> key:string -> value -> unit
  (** Best-effort: write failures (read-only or bogus directory, disk
      full) are swallowed and counted under [write_failures] — the value
      simply is not persisted. *)

  val encode : key:string -> value -> bytes

  val decode : key:string -> bytes -> (value, Whisper_error.t) result
  (** Total: corrupt input, version skew and key mismatch all come back
      as typed [Error]s carrying the byte offset of the fault. *)
end

module Store (C : CODEC) : STORE with type value = C.value
