(* The durable-storage layer shared by the caches, sweeps and serve.

   What must hold:
   - the on-disk encodings of result-cache entries, arena-cache entries,
     manifests and journals stay byte-for-byte what earlier releases
     wrote, so existing caches and state dirs stay valid (and the
     sweep's resume check, which compares result-cache encoding
     digests, keeps accepting them);
   - [Durable.write_atomic] replaces its target whole and never leaves
     a temp file behind, whether the write succeeds or fails;
   - [Journal.resume] starts fresh whenever the saved state cannot be
     trusted, recovers (truncating a torn tail) when it can, lets the
     last record per key win, and always hands back an appendable
     journal. *)

open Whisper_util
open Whisper_trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Format goldens                                                     *)
(* ------------------------------------------------------------------ *)

let hex b = Digest.to_hex (Digest.bytes b)

let result =
  {
    Whisper_pipeline.Machine.cycles = 123456.75;
    instrs = 100_000;
    branches = 20_000;
    mispredicts = 321;
    misp_stall = 4321.5;
    fe_stall = 210.25;
    btb_stall = 17.125;
    l1i_misses = 55;
    exposed_misses = 41;
    seg_mispredicts = [| 17; 18; 19 |];
    seg_instrs = [| 9876; 9877; 9878 |];
  }

let arena () =
  let config = Option.get (Workloads.by_name "mysql") in
  let cfg = Workloads.build_cfg config in
  Arena.build ~events:2_000 (App_model.create ~cfg ~config ~input:0 ())

let item key = { Manifest.key; spec = "" }

let golden_manifest =
  Manifest.make
    ~meta:[ ("events", "2000"); ("kb", "64") ]
    [|
      { Manifest.key = "app-a/whisper/0/1/64/2000"; spec = "spec-a" };
      item "app-b/ideal/0/1/64/2000";
    |]

let d1 = { Journal.key = "k1"; status = Journal.Done; detail = "d1" }
let q1 = { Journal.key = "k1"; status = Journal.Quarantined; detail = "why" }
let d2 = { Journal.key = "k2"; status = Journal.Done; detail = "d2" }

(* Pinned: a changed digest means every existing cache entry, manifest
   or journal of that kind stops decoding. *)
let test_format_goldens () =
  List.iter
    (fun (name, expected, bytes) -> check_string name expected (hex bytes))
    [
      ( "Result_cache.encode",
        "7e5d02ab5188252d7c89f3afb380ee49",
        Whisper_sim.Result_cache.encode ~key:"golden/whisper/0/1/64/2000"
          result );
      ( "Arena_cache.encode",
        "b98b9569366f9a5cc669dc008c4d0f9e",
        Whisper_sim.Arena_cache.encode ~key:"golden/arena/mysql/0/2000"
          (arena ()) );
      ( "Manifest.encode",
        "f203561456bd17fbfc52197b535ac454",
        Manifest.encode golden_manifest );
      ( "Journal header + entries",
        "8a71f5087a3886847031a212a1f6973a",
        Bytes.concat Bytes.empty
          [
            Journal.encode_header ~manifest_id:"mid-1";
            Journal.encode_entry d1;
            Journal.encode_entry { q1 with Journal.key = "k2" };
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* write_atomic                                                       *)
(* ------------------------------------------------------------------ *)

let tmp_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tmp")

let raises f =
  match f () with
  | () -> false
  | exception (Sys_error _ | Unix.Unix_error _) -> true

let test_write_atomic () =
  let dir = Test_dirs.fresh "durable" in
  let sub = Filename.concat (Filename.concat dir "a") "b" in
  let path = Filename.concat sub "f.bin" in
  Durable.write_atomic path (Bytes.of_string "first");
  Durable.write_atomic path (Bytes.of_string "second");
  check_bool "parents created, target replaced whole" true
    (Durable.read path = Some (Bytes.of_string "second"));
  check_int "no temp file after success" 0 (List.length (tmp_files sub));
  check_bool "missing file reads as None" true
    (Durable.read (Filename.concat sub "nope") = None);
  (* a regular file where the parent directory should be *)
  let blocker = Filename.concat dir "blocker" in
  Durable.write_atomic blocker (Bytes.of_string "x");
  check_bool "write under a regular file raises" true
    (raises (fun () ->
         Durable.write_atomic
           (Filename.concat blocker "f.bin")
           (Bytes.of_string "y")));
  (* a directory as the target: the temp file is written, the rename
     fails, and the temp file must be cleaned up *)
  let target = Filename.concat dir "target" in
  Durable.write_atomic (Filename.concat target "inside") (Bytes.of_string "z");
  check_bool "rename over a non-empty directory raises" true
    (raises (fun () -> Durable.write_atomic target (Bytes.of_string "w")));
  check_int "no temp file after failures" 0 (List.length (tmp_files dir));
  check_bool "blocker untouched" true
    (Durable.read blocker = Some (Bytes.of_string "x"))

(* ------------------------------------------------------------------ *)
(* Journal.resume                                                     *)
(* ------------------------------------------------------------------ *)

let m = Manifest.make ~meta:[ ("job", "a") ] [| item "k1"; item "k2" |]
let m_other = Manifest.make ~meta:[ ("job", "b") ] m.items
let torn = "\xa7\x09half-a-rec"

(* Lay down a state dir: the [saved] manifest (if any) and a journal
   bound to [bound] holding [entries], followed by [tail] raw bytes. *)
let lay ?saved ?(bound = Manifest.id m) ?(entries = []) ?(tail = "") () dir =
  Option.iter
    (fun s -> Manifest.save s ~path:(Filename.concat dir "manifest.bin"))
    saved;
  let path = Filename.concat dir "journal.bin" in
  let j = Journal.create ~path ~manifest_id:bound in
  List.iter (Journal.append j) entries;
  Journal.close j;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc tail;
  close_out oc

let prior_entries (r : Journal.resumed) =
  Hashtbl.fold (fun _ e acc -> e :: acc) r.prior [] |> List.sort compare

let test_resume_table () =
  let d3 = { Journal.key = "k3"; status = Journal.Done; detail = "d3" } in
  List.iter
    (fun (name, resume, setup, recovered, dropped, prior) ->
      let dir = Test_dirs.fresh "resume" in
      setup dir;
      let r = Journal.resume ~resume ~dir m in
      check_bool (name ^ ": recovered") recovered r.recovered;
      check_int (name ^ ": dropped bytes") dropped r.dropped_bytes;
      check_bool (name ^ ": last record per key") true
        (prior_entries r = List.sort compare prior);
      (* fresh or recovered, the journal takes appends and the state
         dir resumes cleanly afterwards *)
      Journal.append r.journal d3;
      Journal.close r.journal;
      let r2 = Journal.resume ~resume:true ~dir m in
      check_bool (name ^ ": resumable after append") true r2.recovered;
      check_int (name ^ ": clean after append") 0 r2.dropped_bytes;
      check_bool (name ^ ": append kept") true
        (prior_entries r2 = List.sort compare (d3 :: prior));
      Journal.close r2.journal)
    [
      ( "resume=false",
        false,
        lay ~saved:m ~entries:[ d1; d2 ] (),
        false,
        0,
        [] );
      ("missing manifest", true, lay ~entries:[ d1 ] (), false, 0, []);
      ( "manifest id mismatch",
        true,
        lay ~saved:m_other ~bound:(Manifest.id m_other) ~entries:[ d1 ] (),
        false,
        0,
        [] );
      ( "journal bound to another id",
        true,
        lay ~saved:m ~bound:"other" ~entries:[ d1 ] (),
        false,
        0,
        [] );
      ( "torn tail",
        true,
        lay ~saved:m ~entries:[ d1; d2 ] ~tail:torn (),
        true,
        String.length torn,
        [ d1; d2 ] );
      ( "last record wins",
        true,
        lay ~saved:m ~entries:[ d1; d2; q1 ] (),
        true,
        0,
        [ q1; d2 ] );
    ]

let () =
  Alcotest.run "whisper_durable"
    [
      ( "format",
        [ Alcotest.test_case "golden digests" `Quick test_format_goldens ] );
      ( "durable",
        [
          Alcotest.test_case "write_atomic leaves no temp file" `Quick
            test_write_atomic;
        ] );
      ("resume", [ Alcotest.test_case "table" `Quick test_resume_table ]);
    ]
