(* Continuous-profiling service mode.

   What must hold:
   - Mergeset's bounded lexicographic-smallest selection is associative,
     commutative and delivery-order independent (the algebra the chunk
     accumulator's byte-identity promise rests on);
   - any permutation of the same chunk multiset accumulates to a
     byte-identical materialized profile AND an identical hint plan;
   - re-delivering an ingested chunk is a counted no-op; corrupt or
     truncated chunks are typed errors that leave the accumulator
     untouched;
   - the WRSC plan codec round-trips and is content-stable;
   - a serve scenario interrupted any number of times (max_steps — the
     in-process stand-in for kill -9) and resumed produces a ledger
     byte-identical to an uninterrupted run, faults included;
   - the scripted phase flip drives coverage down, triggers re-analysis
     and recovers (check_recovery holds);
   - the rollout rule prefers the incumbent on a strict loss;
   - the staged compiled-kernel collector Serve uses (Runner.lbr_profile)
     produces exactly the closure Profile.collect chunk;
   - a tiny fixed scenario's ledger and summary match a pinned digest, so
     a collector change that alters any chunk fails here;
   - non-positive chunk_events / window / max_samples / jobs are rejected
     before the state dir is touched;
   - pipelined chunk collection (jobs > 1) is invisible in every durable
     output — ledger, summary, journal bytes, chunk and plan stores,
     Telemetry counters — and an interrupted pipeline stores no chunk of
     a step that did not run;
   - a resume whose window has moved past a lost chunk file regenerates
     it and still matches the clean run.

   State dirs go through Test_dirs so runtest leaves nothing behind. *)

open Whisper_util
open Whisper_trace
open Whisper_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Mergeset                                                           *)
(* ------------------------------------------------------------------ *)

let record_of_int stride v =
  let b = Bytes.create stride in
  for i = 0 to stride - 1 do
    Bytes.set b i (Char.chr ((v lsr (8 * (stride - 1 - i))) land 0xFF))
  done;
  b

(* reference semantics: sort every offered record, keep the cap smallest *)
let reference_contents ~stride ~cap records =
  let sorted = List.sort Bytes.compare (List.map (record_of_int stride) records) in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  Bytes.concat Bytes.empty (take cap sorted)

let qcheck_mergeset_orders =
  QCheck.Test.make ~name:"mergeset: any insertion order, same bytes" ~count:300
    QCheck.(pair (list (int_bound 0xFFFF)) (int_bound 60))
    (fun (records, salt) ->
      let stride = 3 and cap = 7 in
      let ingest order =
        let s = Mergeset.create ~stride ~cap in
        List.iter (fun v -> Mergeset.add s (record_of_int stride v) ~off:0) order;
        s
      in
      let shuffled =
        let a = Array.of_list records in
        let rng = Rng.create (salt + 1) in
        for i = Array.length a - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let s1 = ingest records and s2 = ingest shuffled in
      (* split-merge grouping: first half and second half in separate
         sets, then add_all *)
      let n = List.length records in
      let s3 = ingest (List.filteri (fun i _ -> i < n / 2) records) in
      let s4 = ingest (List.filteri (fun i _ -> i >= n / 2) records) in
      Mergeset.add_all s3 ~other:s4;
      let expect = reference_contents ~stride ~cap records in
      Mergeset.contents s1 = expect
      && Mergeset.contents s2 = expect
      && Mergeset.contents s3 = expect
      && Mergeset.equal s1 s2
      && Mergeset.seen s1 = n)

let test_mergeset_basics () =
  let s = Mergeset.create ~stride:2 ~cap:3 in
  check_int "empty" 0 (Mergeset.length s);
  List.iter
    (fun v -> Mergeset.add s (record_of_int 2 v) ~off:0)
    [ 0x0202; 0x0101; 0x0303; 0x0101; 0x0404 ];
  check_int "capped" 3 (Mergeset.length s);
  check_int "seen counts drops" 5 (Mergeset.seen s);
  (* duplicates are multiset members: 0101 0101 0202 survive the cap *)
  check_string "smallest kept, duplicates included" "010101010202"
    (let b = Mergeset.contents s in
     String.concat ""
       (List.init (Bytes.length b) (fun i ->
            Printf.sprintf "%02x" (Char.code (Bytes.get b i)))));
  (* self add_all doubles every kept record deterministically *)
  Mergeset.add_all s ~other:s;
  check_string "self-merge is snapshot-safe" "010101010101"
    (let b = Mergeset.contents s in
     String.concat ""
       (List.init (Bytes.length b) (fun i ->
            Printf.sprintf "%02x" (Char.code (Bytes.get b i)))))

(* ------------------------------------------------------------------ *)
(* Chunks and the accumulator                                         *)
(* ------------------------------------------------------------------ *)

let tiny_config =
  {
    (Option.get (Workloads.by_name "finagle-http")) with
    Workloads.name = "serve-test";
    functions = 24;
    seed = 17;
  }

let tiny_cfg = Workloads.build_cfg tiny_config

(* a real collected chunk profile, phase/input-parameterized *)
let collect_profile ?(phase = 0) ~input ~events () =
  Profile.collect ~max_samples:64 ~lengths:Workloads.lengths ~events
    ~make_source:(fun () ->
      App_model.source
        (App_model.create ~phase ~cfg:tiny_cfg ~config:tiny_config ~input ()))
    ~make_predictor:(Whisper_sim.Runner.lbr_predictor 64)
    ()

let profile_bytes p = Profile_io.to_bytes p

let test_chunk_roundtrip () =
  let p = collect_profile ~input:0 ~events:20_000 () in
  let b = Profile_chunk.encode ~app:"serve-test" ~seq:5 p in
  match Profile_chunk.decode b with
  | Error e -> Alcotest.failf "decode failed: %s" (Whisper_error.to_string e)
  | Ok c ->
      check_string "app" "serve-test" c.Profile_chunk.app;
      check_int "seq" 5 c.Profile_chunk.seq;
      (* Profile_io.to_bytes is insertion-order sensitive, so compare
         through the canonical merge, not the raw image *)
      let canon q =
        profile_bytes
          (Profile_chunk.merge_profiles ~max_samples:64
             ~lengths:Workloads.lengths [ q ])
      in
      check_bool "profile canonically identical" true
        (canon p = canon c.Profile_chunk.profile);
      check_bool "content key is stable" true
        (Profile_chunk.id b = Profile_chunk.id (Bytes.copy b))

let test_chunk_permutation_identity () =
  (* real chunks, both phases mixed in: any delivery order accumulates
     to the same bytes and the same plan *)
  let chunks =
    List.init 4 (fun i ->
        collect_profile ~phase:(i mod 2) ~input:i ~events:30_000 ())
  in
  let ingest order =
    let a = Profile_chunk.create_accum ~max_samples:64 ~lengths:Workloads.lengths () in
    List.iter
      (fun i ->
        match
          Profile_chunk.ingest_profile a ~id:(string_of_int i)
            (List.nth chunks i)
        with
        | Profile_chunk.Added _ -> ()
        | Profile_chunk.Duplicate _ -> Alcotest.fail "unexpected duplicate")
      order;
    Profile_chunk.profile a
  in
  let p1 = ingest [ 0; 1; 2; 3 ]
  and p2 = ingest [ 3; 1; 0; 2 ]
  and p3 = ingest [ 2; 3; 1; 0 ] in
  check_bool "bytes order-independent" true
    (profile_bytes p1 = profile_bytes p2 && profile_bytes p2 = profile_bytes p3);
  check_bool "one-shot merge agrees" true
    (profile_bytes p1
    = profile_bytes
        (Profile_chunk.merge_profiles ~max_samples:64 ~lengths:Workloads.lengths
           chunks));
  let plan_of p = (Analyze.run p).Analyze.decisions in
  check_string "plans identical" (Rescore.digest (plan_of p1))
    (Rescore.digest (plan_of p2))

let qcheck_accum_permutation =
  (* synthetic chunks across a shared pc set, wider order coverage than
     the collected-profile case can afford *)
  QCheck.Test.make ~name:"accum: chunk permutations, same bytes" ~count:60
    QCheck.(int_bound 0xFFFF)
    (fun seed ->
      let lengths = Workloads.lengths in
      let synth k =
        let p = Profile.create_empty ~lengths () in
        let rng = Rng.create ((seed * 31) + k) in
        List.iter
          (fun pc ->
            for _ = 1 to 20 + Rng.int rng 30 do
              Profile.record_event p ~pc ~taken:(Rng.bool rng)
                ~correct:(Rng.bernoulli rng 0.7) ~instrs:6
            done;
            for s = 1 to 10 + Rng.int rng 20 do
              Profile.add_sample p ~pc ~raw8:(Rng.int rng 256)
                ~raw56:(Rng.int rng 1_000_000)
                ~hashes:
                  (Array.init (Array.length lengths) (fun _ -> Rng.int rng 256))
                ~taken:(Rng.bool rng) ~correct:(s mod 4 <> 0)
            done)
          [ 0x4010; 0x4020; 0x4030 ];
        p
      in
      let chunks = List.init 5 synth in
      let ingest order =
        let a = Profile_chunk.create_accum ~max_samples:24 ~lengths () in
        List.iter
          (fun i ->
            ignore
              (Profile_chunk.ingest_profile a ~id:(string_of_int i)
                 (List.nth chunks i)))
          order;
        profile_bytes (Profile_chunk.profile a)
      in
      let rng = Rng.create (seed + 7) in
      let perm = Rng.permutation rng 5 in
      ingest [ 0; 1; 2; 3; 4 ] = ingest (Array.to_list perm))

let test_duplicate_is_counted_noop () =
  let a =
    Profile_chunk.create_accum ~max_samples:64 ~lengths:Workloads.lengths ()
  in
  let p = collect_profile ~input:0 ~events:20_000 () in
  let b = Profile_chunk.encode ~app:"serve-test" ~seq:0 p in
  (match Profile_chunk.ingest a b with
  | Ok (Profile_chunk.Added id) ->
      check_string "id is the content key" (Profile_chunk.id b) id
  | _ -> Alcotest.fail "first delivery must add");
  let before = profile_bytes (Profile_chunk.profile a) in
  for _ = 1 to 3 do
    match Profile_chunk.ingest a b with
    | Ok (Profile_chunk.Duplicate _) -> ()
    | _ -> Alcotest.fail "re-delivery must be a duplicate"
  done;
  check_int "distinct chunks" 1 (Profile_chunk.chunks a);
  check_int "duplicates counted" 3 (Profile_chunk.duplicates a);
  check_bool "accumulator unchanged" true
    (before = profile_bytes (Profile_chunk.profile a))

let test_corrupt_chunk_rejected () =
  let a =
    Profile_chunk.create_accum ~max_samples:64 ~lengths:Workloads.lengths ()
  in
  let p = collect_profile ~input:0 ~events:20_000 () in
  let good = Profile_chunk.encode ~app:"serve-test" ~seq:0 p in
  (match Profile_chunk.ingest a good with
  | Ok (Profile_chunk.Added _) -> ()
  | _ -> Alcotest.fail "good chunk must ingest");
  let before = profile_bytes (Profile_chunk.profile a) in
  let rng = Rng.create 0xC0FFEE in
  let rejected = ref 0 and added = ref 0 in
  for _ = 1 to 400 do
    let bad =
      match Rng.int rng 4 with
      | 0 -> Bytes.sub good 0 (Rng.int rng (Bytes.length good))
      | 1 ->
          let b = Bytes.copy good in
          let i = Rng.int rng (Bytes.length b) in
          Bytes.set b i
            (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Rng.int rng 8)));
          b
      | 2 ->
          let b = Bytes.copy good in
          Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) + 1));
          b
      | _ ->
          let i = Rng.int rng (Bytes.length good) in
          Bytes.cat (Bytes.sub good 0 i)
            (Bytes.sub good (i + 1) (Bytes.length good - i - 1))
    in
    match Profile_chunk.ingest a bad with
    | Error _ -> incr rejected
    | Ok (Profile_chunk.Duplicate _) -> () (* benign-flip survivors *)
    | Ok (Profile_chunk.Added _) -> incr added
    | exception e ->
        Alcotest.failf "ingest raised %s on corrupt chunk"
          (Printexc.to_string e)
  done;
  (* bit flips landing in raw sample payload bytes decode fine (they
     change content, not structure) — only structural damage rejects *)
  check_bool "most corruptions rejected" true (!rejected > 250);
  (* a bit-flip survivor that still decodes is legitimately added;
     otherwise every rejection left the accumulator byte-untouched *)
  if !added = 0 then
    check_bool "rejected deliveries leave the accumulator untouched" true
      (before = profile_bytes (Profile_chunk.profile a))

(* Staged vs closure collection: Serve's chunks come from
   Runner.lbr_profile over a per-chunk arena; the closure path is the
   oracle.  Compared as chunk bytes and through the canonical merge —
   raw Profile_io images are insertion-order sensitive. *)
let qcheck_lbr_profile_matches_closure =
  QCheck.Test.make ~name:"lbr_profile = closure Profile.collect" ~count:40
    QCheck.(
      quad (int_bound 1) (int_bound 4)
        (oneofl [ 0; 1; 7; 9; 5000 ])
        (pair (int_range 1 64) (oneofl [ 8; 64 ])))
    (fun (phase, input, events, (max_samples, kb)) ->
      let model () =
        App_model.create ~phase ~cfg:tiny_cfg ~config:tiny_config ~input ()
      in
      let closure =
        Profile.collect ~max_samples ~lengths:Workloads.lengths ~events
          ~make_source:(fun () -> App_model.source (model ()))
          ~make_predictor:(Whisper_sim.Runner.lbr_predictor kb)
          ()
      in
      let staged =
        Whisper_sim.Runner.lbr_profile ~max_samples ~kb ~events
          (Arena.build ~events (model ()))
      in
      let chunk p = Profile_chunk.encode ~app:"serve-test" ~seq:0 p in
      let canon p =
        profile_bytes
          (Profile_chunk.merge_profiles ~max_samples ~lengths:Workloads.lengths
             [ p ])
      in
      Bytes.equal (chunk closure) (chunk staged)
      && Bytes.equal (canon closure) (canon staged))

(* ------------------------------------------------------------------ *)
(* Rescore codec                                                      *)
(* ------------------------------------------------------------------ *)

let qcheck_rescore_roundtrip =
  QCheck.Test.make ~name:"rescore: plan codec roundtrip" ~count:300
    QCheck.(small_list (pair (int_bound 0xFFFFF) (int_bound 0xFFFF)))
    (fun entries ->
      let plan =
        List.map
          (fun (pc, v) ->
            ( pc,
              {
                History_select.len_idx = v mod 16;
                formula_id = v * 13;
                bias = Brhint.bias_of_code (v mod 4);
                sample_mispred = v land 0xFF;
                baseline_mispred = (v lsr 4) land 0xFF;
                samples = 1 + (v land 63);
              } ))
          entries
      in
      match Rescore.decode (Rescore.encode plan) with
      | Ok plan' ->
          plan = plan' && Rescore.digest plan = Rescore.digest plan'
      | Error _ -> false)

let test_decide_rollout () =
  check_bool "first plan always rolls out" true
    (Whisper_sim.Serve.decide_rollout ~incumbent:None ~candidate:0.0 = `Rollout);
  check_bool "tie keeps the candidate" true
    (Whisper_sim.Serve.decide_rollout ~incumbent:(Some 0.5) ~candidate:0.5
    = `Rollout);
  check_bool "strict loss rolls back" true
    (Whisper_sim.Serve.decide_rollout ~incumbent:(Some 0.5) ~candidate:0.499
    = `Rollback)

(* ------------------------------------------------------------------ *)
(* The serve scenario                                                 *)
(* ------------------------------------------------------------------ *)

let serve_cfg ?(faults = 0.0) ?(generations = 8) ~state_dir () =
  {
    (Whisper_sim.Serve.default ~state_dir) with
    Whisper_sim.Serve.generations;
    chunk_events = 60_000;
    drift_flip = Some (generations / 2);
    faults;
  }

let test_serve_ledger_roundtrip () =
  let cfg = serve_cfg ~state_dir:(Test_dirs.fresh "serve_ledger") () in
  let o = Whisper_sim.Serve.run cfg in
  check_bool "not interrupted" false o.Whisper_sim.Serve.interrupted;
  check_int "one line per step" o.Whisper_sim.Serve.total
    (List.length o.Whisper_sim.Serve.ledger);
  check_int "all completed" o.Whisper_sim.Serve.total
    o.Whisper_sim.Serve.completed;
  (* the ledger is its own codec: parse and re-render is the identity *)
  List.iter
    (fun line ->
      match Whisper_sim.Serve.parse_step line with
      | None -> Alcotest.failf "unparseable ledger line: %s" line
      | Some s -> check_string "render/parse identity" line
            (Whisper_sim.Serve.render_step s))
    o.Whisper_sim.Serve.ledger;
  (* every accepted chunk was probed with a re-delivery and counted *)
  check_int "redelivery probes are counted no-ops"
    o.Whisper_sim.Serve.chunks_ingested o.Whisper_sim.Serve.duplicates

let test_serve_resume_identity () =
  let mk state_dir = serve_cfg ~state_dir () in
  let clean =
    Whisper_sim.Serve.run (mk (Test_dirs.fresh "serve_clean"))
  in
  let dir = Test_dirs.fresh "serve_kill" in
  let k1 =
    Whisper_sim.Serve.run { (mk dir) with Whisper_sim.Serve.max_steps = Some 2 }
  in
  check_bool "first segment interrupted" true k1.Whisper_sim.Serve.interrupted;
  let k2 =
    Whisper_sim.Serve.run
      { (mk dir) with Whisper_sim.Serve.resume = true; max_steps = Some 3 }
  in
  check_bool "second segment interrupted" true k2.Whisper_sim.Serve.interrupted;
  check_int "second segment resumed the journal" 2
    k2.Whisper_sim.Serve.resumed;
  let fin =
    Whisper_sim.Serve.run { (mk dir) with Whisper_sim.Serve.resume = true }
  in
  check_bool "final segment ran to completion" false
    fin.Whisper_sim.Serve.interrupted;
  check_int "five steps replayed from the journal" 5
    fin.Whisper_sim.Serve.resumed;
  check_bool "ledger byte-identical to the uninterrupted run" true
    (clean.Whisper_sim.Serve.ledger = fin.Whisper_sim.Serve.ledger);
  check_bool "summary identical too" true
    (clean.Whisper_sim.Serve.summary = fin.Whisper_sim.Serve.summary)

let test_serve_resume_identity_faulted () =
  let mk state_dir = serve_cfg ~faults:0.4 ~state_dir () in
  let clean = Whisper_sim.Serve.run (mk (Test_dirs.fresh "serve_fclean")) in
  check_bool "chaos rate actually quarantined something" true
    (clean.Whisper_sim.Serve.chunks_quarantined
     + clean.Whisper_sim.Serve.analysis_quarantined
    > 0);
  let dir = Test_dirs.fresh "serve_fkill" in
  ignore
    (Whisper_sim.Serve.run
       { (mk dir) with Whisper_sim.Serve.max_steps = Some 3 });
  let fin =
    Whisper_sim.Serve.run { (mk dir) with Whisper_sim.Serve.resume = true }
  in
  check_bool "faulted ledger byte-identical across kill/resume" true
    (clean.Whisper_sim.Serve.ledger = fin.Whisper_sim.Serve.ledger)

let test_serve_drift_recovery () =
  let cfg =
    serve_cfg ~generations:10
      ~state_dir:(Test_dirs.fresh "serve_drift")
      ()
  in
  let o = Whisper_sim.Serve.run cfg in
  (match Whisper_sim.Serve.check_recovery cfg o with
  | Ok () -> ()
  | Error reason -> Alcotest.failf "recovery assertion failed: %s" reason);
  check_bool "the flip was detected as drift" true
    (o.Whisper_sim.Serve.drift_detected > 0);
  check_bool "drift triggered re-analysis" true
    (o.Whisper_sim.Serve.analyses > 1);
  check_bool "re-analysis rolled a new generation out" true
    (o.Whisper_sim.Serve.rollouts > 1)

let test_serve_stationary_no_flip () =
  let cfg =
    {
      (serve_cfg ~generations:4 ~state_dir:(Test_dirs.fresh "serve_flat") ())
      with
      Whisper_sim.Serve.drift_flip = None;
    }
  in
  let o = Whisper_sim.Serve.run cfg in
  check_bool "stationary run completes" false o.Whisper_sim.Serve.interrupted;
  check_bool "check_recovery refuses a flipless scenario" true
    (match Whisper_sim.Serve.check_recovery cfg o with
    | Error _ -> true
    | Ok () -> false)

(* Pinned on the closure-collector implementation: every ledger line
   carries its chunk's content key, so any collector change that alters
   one chunk byte (or the plans built from it) changes this digest. *)
let test_serve_golden_ledger () =
  let cfg =
    {
      (Whisper_sim.Serve.default ~state_dir:(Test_dirs.fresh "serve_golden"))
      with
      Whisper_sim.Serve.generations = 2;
      chunk_events = 40_000;
      drift_flip = Some 1;
    }
  in
  let o = Whisper_sim.Serve.run cfg in
  let text = String.concat "\n" (o.Whisper_sim.Serve.ledger @ o.summary) in
  check_string
    (Printf.sprintf "ledger + summary digest of:\n%s\n" text)
    "04cc121b9246c3f721d9c9522435d7ef"
    (Digest.to_hex (Digest.string text))

let test_serve_manifest_change_invalidates_journal () =
  let mk ?(redeliver = true) state_dir =
    {
      (Whisper_sim.Serve.default ~state_dir) with
      Whisper_sim.Serve.generations = 2;
      chunk_events = 40_000;
      drift_flip = Some 1;
      redeliver;
    }
  in
  let dir = Test_dirs.fresh "serve_rekey" in
  ignore
    (Whisper_sim.Serve.run
       { (mk dir) with Whisper_sim.Serve.max_steps = Some 2 });
  (* same state dir, different scenario: the journal must not be trusted *)
  let o =
    Whisper_sim.Serve.run
      { (mk ~redeliver:false dir) with Whisper_sim.Serve.resume = true }
  in
  check_bool "journal not recovered" false
    o.Whisper_sim.Serve.journal_recovered;
  check_int "nothing resumed across manifests" 0 o.Whisper_sim.Serve.resumed;
  let clean =
    Whisper_sim.Serve.run
      (mk ~redeliver:false (Test_dirs.fresh "serve_rekey_clean"))
  in
  check_bool "ledger identical to a clean run of the new scenario" true
    (clean.Whisper_sim.Serve.ledger = o.Whisper_sim.Serve.ledger)

(* Every durable output of a finished run: ledger, summary, journal
   bytes, the chunk and plan stores (relative path and content digest),
   and the Telemetry counter section. *)
let serve_outputs cfg =
  Telemetry.reset ();
  let o = Whisper_sim.Serve.run cfg in
  let dir = cfg.Whisper_sim.Serve.state_dir in
  let rec files rel =
    let path = Filename.concat dir rel in
    if Sys.is_directory path then
      List.concat_map
        (fun e -> files (Filename.concat rel e))
        (List.sort compare (Array.to_list (Sys.readdir path)))
    else [ (rel, Digest.to_hex (Digest.file path)) ]
  in
  let store name =
    if Sys.file_exists (Filename.concat dir name) then files name else []
  in
  ( o,
    ( o.Whisper_sim.Serve.ledger,
      o.Whisper_sim.Serve.summary,
      Durable.read (Filename.concat dir "journal.bin"),
      store "chunks" @ store "plans",
      Telemetry.counters (Telemetry.snapshot ()) ) )

let two_app_cfg ~faults ~jobs ~state_dir =
  {
    (serve_cfg ~faults ~generations:5 ~state_dir ()) with
    Whisper_sim.Serve.apps = [ "finagle-http"; "cassandra" ];
    chunk_events = 40_000;
    window = 2;
    jobs;
  }

let test_serve_jobs_invariant () =
  List.iter
    (fun faults ->
      let run jobs =
        serve_outputs
          (two_app_cfg ~faults ~jobs
             ~state_dir:(Test_dirs.fresh (Printf.sprintf "serve_j%d" jobs)))
      in
      let o1, ref1 = run 1 in
      if faults > 0.0 then
        check_bool "chaos rate quarantined a chunk" true
          (o1.Whisper_sim.Serve.chunks_quarantined > 0);
      let ledger, summary, journal, stores, counters = ref1 in
      List.iter
        (fun jobs ->
          let _, (l, s, j, st, c) = run jobs in
          let what x =
            Printf.sprintf "faults %.1f, jobs %d: %s" faults jobs x
          in
          check_bool (what "ledger") true (l = ledger);
          check_bool (what "summary") true (s = summary);
          check_bool (what "journal bytes") true (j = journal && j <> None);
          check_bool (what "chunk and plan stores") true (st = stores);
          check_bool (what "telemetry counters") true (c = counters))
        [ 2; 3 ])
    [ 0.0; 0.4 ]

(* The [chunk=] id of each journaled step whose chunk was accepted. *)
let journaled_chunks cfg =
  let field line name =
    let prefix = name ^ "=" in
    List.find_map
      (fun tok ->
        if String.starts_with ~prefix tok then
          Some
            (String.sub tok (String.length prefix)
               (String.length tok - String.length prefix))
        else None)
      (String.split_on_char ' ' line)
  in
  let dir = cfg.Whisper_sim.Serve.state_dir in
  match
    Journal.open_existing
      ~path:(Filename.concat dir "journal.bin")
      ~manifest_id:(Manifest.id (Whisper_sim.Serve.plan cfg))
  with
  | Error e -> Alcotest.failf "journal: %s" (Whisper_error.to_string e)
  | Ok (j, r) ->
      Journal.close j;
      List.filter_map
        (fun (e : Journal.entry) ->
          match (field e.detail "status", field e.detail "chunk") with
          | Some "ok", Some id -> Some (id ^ ".bin")
          | _ -> None)
        r.Journal.entries

let stored_chunks cfg ~app =
  let d =
    Filename.concat
      (Filename.concat cfg.Whisper_sim.Serve.state_dir "chunks")
      app
  in
  if Sys.file_exists d then List.sort compare (Array.to_list (Sys.readdir d))
  else []

let test_serve_interrupted_pipeline () =
  let mk ?max_steps ~jobs state_dir =
    { (serve_cfg ~state_dir ()) with Whisper_sim.Serve.jobs; max_steps }
  in
  let clean =
    Whisper_sim.Serve.run (mk ~jobs:1 (Test_dirs.fresh "serve_pclean"))
  in
  let dir = Test_dirs.fresh "serve_pkill" in
  let k = Whisper_sim.Serve.run (mk ~max_steps:3 ~jobs:2 dir) in
  check_bool "interrupted" true k.Whisper_sim.Serve.interrupted;
  let cfg = mk ~jobs:2 dir in
  let journaled = journaled_chunks cfg in
  check_int "three steps journaled, all accepted" 3 (List.length journaled);
  check_bool "chunks/ holds exactly the journaled steps' chunks" true
    (List.sort compare journaled = stored_chunks cfg ~app:"finagle-http");
  let fin =
    Whisper_sim.Serve.run
      { (mk ~jobs:1 dir) with Whisper_sim.Serve.resume = true }
  in
  check_int "resumed the journaled steps" 3 fin.Whisper_sim.Serve.resumed;
  check_bool "ledger identical to the clean run" true
    (clean.Whisper_sim.Serve.ledger = fin.Whisper_sim.Serve.ledger);
  check_bool "summary identical to the clean run" true
    (clean.Whisper_sim.Serve.summary = fin.Whisper_sim.Serve.summary)

(* The window has moved past generation 0 when the run stops, so that
   chunk is no longer cached anywhere; with its file gone, resume must
   regenerate it. *)
let test_serve_evicted_window_resume () =
  let mk ?max_steps ?(resume = false) ~jobs state_dir =
    {
      (serve_cfg ~generations:6 ~state_dir ()) with
      Whisper_sim.Serve.window = 2;
      jobs;
      max_steps;
      resume;
    }
  in
  let clean_dir = Test_dirs.fresh "serve_eclean" in
  let _, clean = serve_outputs (mk ~jobs:1 clean_dir) in
  let dir = Test_dirs.fresh "serve_evict" in
  ignore (Whisper_sim.Serve.run (mk ~max_steps:4 ~jobs:2 dir));
  let gen0 = List.hd (journaled_chunks (mk ~jobs:2 dir)) in
  Sys.remove
    (Filename.concat
       (Filename.concat (Filename.concat dir "chunks") "finagle-http")
       gen0);
  let o, (l, s, j, _, _) = serve_outputs (mk ~resume:true ~jobs:2 dir) in
  let ledger, summary, journal, _, _ = clean in
  check_int "four steps resumed" 4 o.Whisper_sim.Serve.resumed;
  check_bool "ledger identical to the clean run" true (l = ledger);
  check_bool "summary identical to the clean run" true (s = summary);
  check_bool "journal bytes identical to the clean run" true (j = journal)

(* A journaled rollout whose plan file no longer matches its digest
   re-executes; the chunk it had already applied must not turn into a
   duplicate of itself (visible as redup=1 without redelivery). *)
let test_serve_bad_plan_resume () =
  let mk ?max_steps ?(resume = false) state_dir =
    {
      (serve_cfg ~state_dir ()) with
      Whisper_sim.Serve.redeliver = false;
      max_steps;
      resume;
    }
  in
  let clean = Whisper_sim.Serve.run (mk (Test_dirs.fresh "serve_bclean")) in
  let dir = Test_dirs.fresh "serve_bplan" in
  ignore (Whisper_sim.Serve.run (mk ~max_steps:1 dir));
  let plan =
    Filename.concat
      (Filename.concat (Filename.concat dir "plans") "finagle-http")
      "g0000.bin"
  in
  check_bool "generation 0 rolled a plan out" true (Sys.file_exists plan);
  Durable.write_atomic plan (Bytes.of_string "not a plan");
  let fin = Whisper_sim.Serve.run (mk ~resume:true dir) in
  check_int "the bad step re-executed" 0 fin.Whisper_sim.Serve.resumed;
  check_bool "ledger identical to the clean run" true
    (clean.Whisper_sim.Serve.ledger = fin.Whisper_sim.Serve.ledger)

let test_serve_rejects_bad_config () =
  List.iter
    (fun (bad, expect) ->
      let state_dir = Test_dirs.fresh "serve_invalid" in
      let cfg = bad (Whisper_sim.Serve.default ~state_dir) in
      (match Whisper_sim.Serve.run cfg with
      | _ -> Alcotest.failf "accepted an invalid config (%s)" expect
      | exception Invalid_argument msg ->
          check_string "message names the field" ("Serve.run: " ^ expect) msg);
      check_bool (expect ^ ": state dir untouched") false
        (Sys.file_exists state_dir))
    [
      ( (fun c -> { c with Whisper_sim.Serve.chunk_events = -5 }),
        "chunk_events must be >= 1 (got -5)" );
      ( (fun c -> { c with Whisper_sim.Serve.chunk_events = 0 }),
        "chunk_events must be >= 1 (got 0)" );
      ( (fun c -> { c with Whisper_sim.Serve.window = 0 }),
        "window must be >= 1 (got 0)" );
      ( (fun c -> { c with Whisper_sim.Serve.max_samples = 0 }),
        "max_samples must be >= 1 (got 0)" );
      ( (fun c -> { c with Whisper_sim.Serve.jobs = 0 }),
        "jobs must be >= 1 (got 0)" );
      ( (fun c -> { c with Whisper_sim.Serve.jobs = -2 }),
        "jobs must be >= 1 (got -2)" );
    ]

let () =
  Alcotest.run "whisper_serve"
    [
      ( "mergeset",
        [
          QCheck_alcotest.to_alcotest qcheck_mergeset_orders;
          Alcotest.test_case "basics" `Quick test_mergeset_basics;
        ] );
      ( "chunks",
        [
          Alcotest.test_case "roundtrip" `Quick test_chunk_roundtrip;
          Alcotest.test_case "permutation identity" `Slow
            test_chunk_permutation_identity;
          QCheck_alcotest.to_alcotest qcheck_accum_permutation;
          Alcotest.test_case "duplicate is a counted no-op" `Quick
            test_duplicate_is_counted_noop;
          Alcotest.test_case "corrupt chunks are typed rejections" `Quick
            test_corrupt_chunk_rejected;
          QCheck_alcotest.to_alcotest qcheck_lbr_profile_matches_closure;
        ] );
      ( "rescore",
        [
          QCheck_alcotest.to_alcotest qcheck_rescore_roundtrip;
          Alcotest.test_case "rollout rule" `Quick test_decide_rollout;
        ] );
      ( "serve",
        [
          Alcotest.test_case "ledger roundtrip + idempotent redelivery" `Slow
            test_serve_ledger_roundtrip;
          Alcotest.test_case "kill/resume ledger identity" `Slow
            test_serve_resume_identity;
          Alcotest.test_case "faulted kill/resume ledger identity" `Slow
            test_serve_resume_identity_faulted;
          Alcotest.test_case "drift detection recovers coverage" `Slow
            test_serve_drift_recovery;
          Alcotest.test_case "stationary scenario" `Slow
            test_serve_stationary_no_flip;
          Alcotest.test_case "golden ledger digest" `Quick
            test_serve_golden_ledger;
          Alcotest.test_case "manifest change invalidates journal" `Quick
            test_serve_manifest_change_invalidates_journal;
          Alcotest.test_case "invalid config rejected up front" `Quick
            test_serve_rejects_bad_config;
          Alcotest.test_case "jobs-invariant" `Slow
            test_serve_jobs_invariant;
          Alcotest.test_case "interrupted pipeline leaves no orphan chunks"
            `Slow test_serve_interrupted_pipeline;
          Alcotest.test_case "evicted-window resume" `Slow
            test_serve_evicted_window_resume;
          Alcotest.test_case "corrupt plan file re-executes cleanly" `Slow
            test_serve_bad_plan_resume;
        ] );
    ]
