let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* pid + domain: sweep worker processes share one cache directory, and
   every process numbers its domains from 0 — the pid keeps two workers
   storing the same key from interleaving writes into one temp file *)
let write_atomic path data =
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Domain.self () :> int)
  in
  try
    Binio.to_file tmp data;
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let read path = try Some (Binio.of_file path) with Sys_error _ -> None

module type CODEC = sig
  type value

  val magic : string
  val version : int
  val stage : Whisper_error.stage
  val ext : string
  val metric_prefix : string
  val write : Binio.Writer.t -> value -> unit
  val read : Binio.Reader.t -> value
end

module type STORE = sig
  type value
  type t
  type counters = { write_failures : int; corrupt_dropped : int }

  val create :
    ?corrupt:(key:string -> bytes -> bytes) -> dir:string -> unit -> t
  val dir : t -> string
  val counters : t -> counters
  val path : t -> key:string -> string
  val find : t -> key:string -> value option
  val store : t -> key:string -> value -> unit
  val encode : key:string -> value -> bytes
  val decode : key:string -> bytes -> (value, Whisper_error.t) result
end

module Store (C : CODEC) = struct
  type value = C.value
  type counters = { write_failures : int; corrupt_dropped : int }

  type t = {
    cache_dir : string;
    corrupt : (key:string -> bytes -> bytes) option;
    n_write_failures : int Atomic.t;
    n_corrupt_dropped : int Atomic.t;
  }

  let metric name = Telemetry.counter (C.metric_prefix ^ "." ^ name)
  let m_loads = metric "loads"
  let m_stores = metric "stores"
  let m_corrupt = metric "corrupt_dropped"
  let m_write_failures = metric "write_failures"

  let create ?corrupt ~dir () =
    mkdir_p dir;
    {
      cache_dir = dir;
      corrupt;
      n_write_failures = Atomic.make 0;
      n_corrupt_dropped = Atomic.make 0;
    }

  let dir t = t.cache_dir

  let counters t =
    {
      write_failures = Atomic.get t.n_write_failures;
      corrupt_dropped = Atomic.get t.n_corrupt_dropped;
    }

  let path t ~key =
    Filename.concat t.cache_dir (Digest.to_hex (Digest.string key) ^ C.ext)

  (* The envelope binds the entry to its full key (so a digest collision
     or a stale file decodes to Key_mismatch, not a wrong value) and
     carries its own version on top of the payload's. *)
  let encode ~key v =
    let w = Binio.Writer.create () in
    Binio.Writer.magic w C.magic;
    Binio.Writer.varint w C.version;
    Binio.Writer.string w key;
    C.write w v;
    Binio.Writer.contents w

  let decode ~key b =
    Whisper_error.protect ~context:key C.stage @@ fun () ->
    let r = Binio.Reader.create b in
    Binio.Reader.magic r C.magic;
    let voff = Binio.Reader.pos r in
    let v = Binio.Reader.varint r in
    if v <> C.version then
      Whisper_error.raise_error ~offset:voff ~context:key C.stage
        (Whisper_error.Version_mismatch { got = v; expected = C.version });
    let koff = Binio.Reader.pos r in
    if Binio.Reader.string r <> key then
      Whisper_error.raise_error ~offset:koff ~context:key C.stage
        Whisper_error.Key_mismatch;
    let value = C.read r in
    if not (Binio.Reader.eof r) then
      Whisper_error.raise_error ~offset:(Binio.Reader.pos r) ~context:key
        C.stage Whisper_error.Trailing_bytes;
    value

  let find t ~key =
    let file = path t ~key in
    match read file with
    | None -> None
    | Some b -> (
        match
          decode ~key (match t.corrupt with None -> b | Some f -> f ~key b)
        with
        | Ok v ->
            Telemetry.incr m_loads;
            Some v
        | Error _ ->
            (* corrupt/stale entries (torn write, bit rot, version bump)
               are dropped and counted, and the caller recomputes *)
            (try Sys.remove file with Sys_error _ -> ());
            Atomic.incr t.n_corrupt_dropped;
            Telemetry.incr m_corrupt;
            None)

  (* Best-effort: the store is an optimization, so a failing write
     (read-only or bogus directory, disk full) must not abort a run that
     already has the value — but it is counted, so a fleet run can
     report how much of its work failed to persist. *)
  let store t ~key v =
    try
      write_atomic (path t ~key) (encode ~key v);
      Telemetry.incr m_stores
    with Sys_error _ | Unix.Unix_error _ ->
      Atomic.incr t.n_write_failures;
      Telemetry.incr m_write_failures
end
