let protocol_version = 2
let max_frame = 1 lsl 24

(* ------------------------------------------------------------------ *)
(* Framing                                                            *)
(* ------------------------------------------------------------------ *)

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (** valid bytes at the front of [buf] *)
}

let reader fd = { fd; buf = Bytes.create 8192; len = 0 }
let reader_fd r = r.fd

let ensure_capacity r need =
  if Bytes.length r.buf < need then begin
    let nb = Bytes.create (max need (2 * Bytes.length r.buf)) in
    Bytes.blit r.buf 0 nb 0 r.len;
    r.buf <- nb
  end

let feed r =
  ensure_capacity r (r.len + 4096);
  match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
  | 0 -> `Eof
  | n ->
      r.len <- r.len + n;
      `Data
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> `Eof

let frame_len r =
  if r.len < 4 then None
  else
    let b i = Char.code (Bytes.get r.buf i) in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_frame then
      Whisper_error.raise_error Whisper_error.Worker
        (Whisper_error.Count_overflow { count = n; remaining = max_frame });
    Some n

let next_frame r =
  match frame_len r with
  | None -> None
  | Some n ->
      if r.len < 4 + n then None
      else begin
        let payload = Bytes.sub r.buf 4 n in
        Bytes.blit r.buf (4 + n) r.buf 0 (r.len - 4 - n);
        r.len <- r.len - 4 - n;
        Some payload
      end

let rec read_frame r =
  match next_frame r with
  | Some f -> Some f
  | None -> ( match feed r with `Eof -> None | `Data -> read_frame r)

let write_all fd b off len =
  let off = ref off and left = ref len in
  while !left > 0 do
    let n = Unix.write fd b !off !left in
    off := !off + n;
    left := !left - n
  done

let write_frame fd payload =
  let n = Bytes.length payload in
  if n > max_frame then invalid_arg "Ipc.write_frame: frame too large";
  let framed = Bytes.create (4 + n) in
  Bytes.set framed 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set framed 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set framed 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set framed 3 (Char.chr (n land 0xFF));
  Bytes.blit payload 0 framed 4 n;
  write_all fd framed 0 (4 + n)

(* ------------------------------------------------------------------ *)
(* Messages                                                           *)
(* ------------------------------------------------------------------ *)

type init = {
  events : int;
  baseline_kb : int;
  cache_dir : string;
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

let tag_init = 0
let tag_item = 1
let tag_shutdown = 2
let tag_hello = 10
let tag_heartbeat = 11
let tag_finished = 12

let encode_to_worker m =
  let w = Binio.Writer.create ~capacity:256 () in
  (match m with
  | Init i ->
      Binio.Writer.varint w tag_init;
      Binio.Writer.varint w protocol_version;
      Binio.Writer.varint w i.events;
      Binio.Writer.varint w i.baseline_kb;
      Binio.Writer.string w i.cache_dir;
      Binio.Writer.float64 w i.faults;
      Binio.Writer.varint w i.fault_seed;
      Binio.Writer.float64 w i.heartbeat_s;
      Binio.Writer.float64 w i.hang_timeout_s
  | Item { seq; attempt; key; spec } ->
      Binio.Writer.varint w tag_item;
      Binio.Writer.varint w seq;
      Binio.Writer.varint w attempt;
      Binio.Writer.string w key;
      Binio.Writer.string w spec
  | Shutdown -> Binio.Writer.varint w tag_shutdown);
  Binio.Writer.contents w

let decode_to_worker b =
  Whisper_error.protect Whisper_error.Worker (fun () ->
      let r = Binio.Reader.create b in
      let toff = Binio.Reader.pos r in
      match Binio.Reader.varint r with
      | t when t = tag_init ->
          let voff = Binio.Reader.pos r in
          let v = Binio.Reader.varint r in
          if v <> protocol_version then
            Whisper_error.raise_error ~offset:voff Whisper_error.Worker
              (Whisper_error.Version_mismatch
                 { got = v; expected = protocol_version });
          let events = Binio.Reader.varint r in
          let baseline_kb = Binio.Reader.varint r in
          let cache_dir = Binio.Reader.string r in
          let faults = Binio.Reader.float64 r in
          let fault_seed = Binio.Reader.varint r in
          let heartbeat_s = Binio.Reader.float64 r in
          let hang_timeout_s = Binio.Reader.float64 r in
          Init
            {
              events;
              baseline_kb;
              cache_dir;
              faults;
              fault_seed;
              heartbeat_s;
              hang_timeout_s;
            }
      | t when t = tag_item ->
          let seq = Binio.Reader.varint r in
          let attempt = Binio.Reader.varint r in
          let key = Binio.Reader.string r in
          let spec = Binio.Reader.string r in
          Item { seq; attempt; key; spec }
      | t when t = tag_shutdown -> Shutdown
      | t ->
          Whisper_error.raise_error ~offset:toff Whisper_error.Worker
            (Whisper_error.Out_of_range (Printf.sprintf "message tag %d" t)))

let encode_from_worker m =
  let w = Binio.Writer.create ~capacity:128 () in
  (match m with
  | Hello { pid } ->
      Binio.Writer.varint w tag_hello;
      Binio.Writer.varint w pid
  | Heartbeat { seq } ->
      Binio.Writer.varint w tag_heartbeat;
      Binio.Writer.varint w seq
  | Finished { seq; key; outcome } -> (
      Binio.Writer.varint w tag_finished;
      Binio.Writer.varint w seq;
      Binio.Writer.string w key;
      match outcome with
      | Completed { digest } ->
          Binio.Writer.varint w 0;
          Binio.Writer.string w digest
      | Failed { reason } ->
          Binio.Writer.varint w 1;
          Binio.Writer.string w reason));
  Binio.Writer.contents w

let decode_from_worker b =
  Whisper_error.protect Whisper_error.Worker (fun () ->
      let r = Binio.Reader.create b in
      let toff = Binio.Reader.pos r in
      match Binio.Reader.varint r with
      | t when t = tag_hello -> Hello { pid = Binio.Reader.varint r }
      | t when t = tag_heartbeat -> Heartbeat { seq = Binio.Reader.varint r }
      | t when t = tag_finished ->
          let seq = Binio.Reader.varint r in
          let key = Binio.Reader.string r in
          let ooff = Binio.Reader.pos r in
          let outcome =
            match Binio.Reader.varint r with
            | 0 -> Completed { digest = Binio.Reader.string r }
            | 1 -> Failed { reason = Binio.Reader.string r }
            | c ->
                Whisper_error.raise_error ~offset:ooff Whisper_error.Worker
                  (Whisper_error.Out_of_range
                     (Printf.sprintf "outcome tag %d" c))
          in
          Finished { seq; key; outcome }
      | t ->
          Whisper_error.raise_error ~offset:toff Whisper_error.Worker
            (Whisper_error.Out_of_range (Printf.sprintf "message tag %d" t)))

let send_from_worker fd m = write_frame fd (encode_from_worker m)
