(* serve-drift: the scripted Serve.run scenario (two apps, drift flip at
   mid-run, fresh state dir, no faults), and a sequential replay of its
   steps through the layers it calls, for the traced run. *)

open Whisper_util
open Whisper_trace
open Whisper_core
open Whisper_sim

let app_names = [ "finagle-http"; "cassandra" ]
let generations = 8
let flip = generations / 2

let config ~state_dir ~jobs =
  {
    (Serve.default ~state_dir) with
    apps = app_names;
    generations;
    drift_flip = Some flip;
    jobs;
    faults = 0.0;
    resume = false;
  }

(* What a scenario produces: the canonical ledger and summary. *)
type output = { ledger : string list; summary : string list }

(* State dirs live in the checkout, one per process and use. *)
let state_dir tag =
  let root = "_perfbench" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  Filename.concat root (Printf.sprintf "serve-%d-%s" (Unix.getpid ()) tag)

let fresh_dir dir =
  Common.rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

(* ------------------------------------------------------------------ *)
(* Reading ledgers                                                     *)
(* ------------------------------------------------------------------ *)

let field line name =
  let prefix = name ^ "=" in
  let n = String.length prefix in
  List.find_map
    (fun tok ->
      if String.starts_with ~prefix tok then
        Some (String.sub tok n (String.length tok - n))
      else None)
    (String.split_on_char ' ' line)

(* Mean over apps of the final deployed coverage, in %. *)
let final_coverage_pct summary =
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"app " line then
        Option.bind (field line "final_cov") float_of_string_opt
      else None)
    summary
  |> Common.mean |> ( *. ) 100.0

(* Mean over apps of the generations from the flip to the first
   post-flip rollout. *)
let rollout_lag_steps ledger =
  let lag app =
    List.find_map
      (fun line ->
        match
          ( field line "app",
            Option.bind (field line "gen") int_of_string_opt,
            field line "action" )
        with
        | Some a, Some g, Some "rollout" when a = app && g >= flip ->
            Some (float_of_int (g - flip))
        | _ -> None)
      ledger
  in
  Common.mean (List.filter_map lag app_names)

(* ------------------------------------------------------------------ *)
(* Traced replay of Serve.run's fresh, fault-free step sequence        *)
(* ------------------------------------------------------------------ *)

type app_state = {
  name : string;
  wcfg : Workloads.config;
  cfg_static : Cfg.t;
  accum : Profile_chunk.accum;
  profiles : (string, Profile.t) Hashtbl.t;
  mutable win : (int * string) list;  (** newest first *)
  mutable dep : (int * Rescore.plan * string) option;
      (** deployed generation, plan, digest *)
  mutable ref_cov : float;
}

type step = {
  gen : int;
  app : string;
  chunk : string;
  cov : float option;
  drift : bool;
  action : string;
  postcov : float option;
  dep_gen : int option;
  digest : string option;
  hints : int;
}

let opt_cov = function None -> "none" | Some c -> Printf.sprintf "%.6f" c
let opt_gen = function None -> "none" | Some g -> Printf.sprintf "%04d" g

(* Serve's ledger line for an ingested (and redelivered) chunk. *)
let render s =
  Printf.sprintf
    "gen=%04d app=%s chunk=%s status=ok redup=1 cov=%s drift=%d action=%s \
     deployed=%s plan=%s hints=%d postcov=%s"
    s.gen s.app s.chunk (opt_cov s.cov)
    (if s.drift then 1 else 0)
    s.action (opt_gen s.dep_gen)
    (Option.value ~default:"none" s.digest)
    s.hints (opt_cov s.postcov)

let summarize steps =
  let per_app app =
    let ss = List.filter (fun s -> s.app = app) steps in
    let count f = List.length (List.filter f ss) in
    let last f =
      List.fold_left
        (fun acc s -> match f s with Some _ as v -> v | None -> acc)
        None ss
    in
    let hints =
      List.fold_left
        (fun acc s -> if s.dep_gen <> None then s.hints else acc)
        0 ss
    in
    Printf.sprintf
      "app %s: ingested=%d quarantined=0 redelivered=%d rescores=%d drift=%d \
       analyses=%d analysis_quarantined=0 rollouts=%d rollbacks=%d \
       deployed=%s hints=%d final_cov=%s"
      app (List.length ss) (List.length ss)
      (count (fun s -> s.cov <> None))
      (count (fun s -> s.drift))
      (count (fun s -> s.action = "rollout" || s.action = "rollback"))
      (count (fun s -> s.action = "rollout"))
      (count (fun s -> s.action = "rollback"))
      (opt_gen (last (fun s -> s.dep_gen)))
      hints
      (opt_cov (last (fun s -> s.postcov)))
  in
  List.map per_app app_names
  @ [
      Printf.sprintf "total: steps=%d apps=%d generations=%d"
        (List.length steps) (List.length app_names) generations;
    ]

let write_file path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_bytes oc data;
  close_out oc;
  Sys.rename tmp path

let traced sp ~state_dir =
  let w ?work name f = Spans.with_span sp ?work name f in
  let cfg = config ~state_dir ~jobs:1 in
  let analysis_config = Config.default in
  let rnd = Randomized.create analysis_config in
  let lengths = Workloads.lengths in
  let max_samples = cfg.max_samples in
  let journal =
    w "journal.append" (fun () ->
        let manifest = Serve.plan cfg in
        Manifest.save manifest ~path:(Filename.concat state_dir "manifest.bin");
        Journal.create
          ~path:(Filename.concat state_dir "journal.bin")
          ~manifest_id:(Manifest.id manifest))
  in
  let states =
    List.map
      (fun name ->
        let wcfg = Option.get (Workloads.by_name name) in
        let cfg_static =
          w "workloads.build_cfg" (fun () -> Workloads.build_cfg wcfg)
        in
        Unix.mkdir (Filename.concat state_dir name) 0o755;
        {
          name;
          wcfg;
          cfg_static;
          accum = Profile_chunk.create_accum ~max_samples ~lengths ();
          profiles = Hashtbl.create 16;
          win = [];
          dep = None;
          ref_cov = 0.0;
        })
      app_names
  in
  let store st file data =
    let dir = Filename.concat state_dir st.name in
    w "serve.store" (fun () -> write_file (Filename.concat dir file) data)
  in
  let score profile plan =
    w "rescore.score" (fun () ->
        (Rescore.score ~config:analysis_config ~rnd ~profile plan)
          .Rescore.coverage)
  in
  let step gen st =
    let phase = if gen >= flip then 1 else 0 in
    let profile =
      w "profile.collect" ~work:cfg.chunk_events (fun () ->
          Profile.collect ~max_samples ~lengths ~events:cfg.chunk_events
            ~make_source:(fun () ->
              App_model.source
                (App_model.create ~phase ~cfg:st.cfg_static ~config:st.wcfg
                   ~input:(gen + 2) ()))
            ~make_predictor:(Runner.lbr_predictor cfg.kb) ())
    in
    let bytes, id, chunk =
      w "profile_chunk.codec" (fun () ->
          let b = Profile_chunk.encode ~app:st.name ~seq:gen profile in
          match Profile_chunk.decode b with
          | Ok c -> (b, Profile_chunk.id b, c.Profile_chunk.profile)
          | Error e ->
              Common.mismatch "serve-drift: chunk decode: %s"
                (Whisper_error.to_string e))
    in
    let before = Profile_chunk.samples st.accum in
    w "profile_chunk.ingest" (fun () ->
        (* the delivery, then the redelivery the scenario offers *)
        (match Profile_chunk.ingest_profile st.accum ~id chunk with
        | Profile_chunk.Added _ -> ()
        | Profile_chunk.Duplicate _ ->
            Common.mismatch "serve-drift: fresh chunk seen as a duplicate");
        match Profile_chunk.ingest_profile st.accum ~id chunk with
        | Profile_chunk.Duplicate _ -> ()
        | Profile_chunk.Added _ ->
            Common.mismatch "serve-drift: redelivered chunk merged twice");
    Spans.count sp "profile_chunk.samples"
      (float_of_int (Profile_chunk.samples st.accum - before));
    store st (id ^ ".bin") bytes;
    Hashtbl.replace st.profiles id chunk;
    st.win <- List.filteri (fun i _ -> i < cfg.window) ((gen, id) :: st.win);
    let wprof =
      w "profile_chunk.merge" (fun () ->
          Profile_chunk.merge_profiles ~max_samples ~lengths
            (List.rev_map (fun (_, id) -> Hashtbl.find st.profiles id) st.win))
    in
    let cov = Option.map (fun (_, plan, _) -> score wprof plan) st.dep in
    let drift =
      match cov with Some c -> c < cfg.decay_frac *. st.ref_cov | None -> false
    in
    let action, postcov =
      if st.dep <> None && not drift then ("none", cov)
      else
        let a =
          w "analyze.reanalysis" (fun () ->
              Analyze.run ~config:analysis_config wprof)
        in
        let cand = a.Analyze.decisions in
        let new_cov = score wprof cand in
        let incumbent = if st.dep = None then None else cov in
        match Serve.decide_rollout ~incumbent ~candidate:new_cov with
        | `Rollout ->
            store st (Printf.sprintf "g%04d.wrsc" gen) (Rescore.encode cand);
            st.dep <- Some (gen, cand, Rescore.digest cand);
            st.ref_cov <- new_cov;
            ("rollout", Some new_cov)
        | `Rollback -> ("rollback", cov)
    in
    let s =
      {
        gen;
        app = st.name;
        chunk = id;
        cov;
        drift;
        action;
        postcov;
        dep_gen = Option.map (fun (g, _, _) -> g) st.dep;
        digest = Option.map (fun (_, _, d) -> d) st.dep;
        hints = (match st.dep with Some (_, p, _) -> List.length p | None -> 0);
      }
    in
    w "journal.append" (fun () ->
        Journal.append journal
          {
            Journal.key = Printf.sprintf "g%04d/%s" gen st.name;
            status = Journal.Done;
            detail = render s;
          });
    s
  in
  let steps =
    List.concat_map
      (fun gen -> List.map (step gen) states)
      (List.init generations Fun.id)
  in
  Journal.close journal;
  { ledger = List.map render steps; summary = summarize steps }

(* ------------------------------------------------------------------ *)
(* Checks, timed and traced runs                                       *)
(* ------------------------------------------------------------------ *)

let run state_dir = Serve.run (config ~state_dir ~jobs:Common.jobs)
let output (o : Serve.outcome) = { ledger = o.ledger; summary = o.summary }

(* Quarantined chunks and analyses are failed operations; a scenario
   that skipped steps or did not recover from the drift is wrong. *)
let failures (o : Serve.outcome) =
  if o.interrupted || o.completed <> o.total || o.resumed <> 0 then
    Common.mismatch "serve-drift: ran %d of %d steps fresh (%d resumed)"
      o.completed o.total o.resumed;
  (match Serve.check_recovery (config ~state_dir:"" ~jobs:Common.jobs) o with
  | Ok () -> ()
  | Error e -> Common.mismatch "serve-drift: no drift recovery: %s" e);
  o.chunks_quarantined + o.analysis_quarantined

let setup dir () =
  Common.warm_process ~machine:false;
  fresh_dir dir

(* serve-drift has no input knob: the seed is unused. *)
let timed ~seed:_ ~seconds =
  let dir = state_dir "timed" in
  Fun.protect ~finally:(fun () -> Common.rm_rf dir) @@ fun () ->
  let it =
    Common.iterate ~seconds ~min_setups:51 ~setup:(setup dir) ~run
      ~after:Fun.id
  in
  let outcomes = List.map fst it.runs in
  let failed = List.fold_left (fun acc o -> acc + failures o) 0 outcomes in
  let outputs = List.map output outcomes in
  Common.check_iterations "serve-drift" (List.map Common.digest outputs);
  {
    Common.digest = Common.digest (List.hd outputs);
    attempted =
      List.fold_left (fun acc (o : Serve.outcome) -> acc + o.total) 0 outcomes;
    failed;
    values =
      [
        ("setup_s", Pctl.median it.setups);
        ("peak_rss_mb", it.peak_rss_mb);
        ( "work_per_s",
          Common.throughput
            (fun ((o : Serve.outcome), _) -> float_of_int o.completed)
            it.runs );
        ("plan_coverage_pct", final_coverage_pct (List.hd outputs).summary);
      ];
    spans = [||];
  }

(* One Serve.run, then the traced replay, which must reproduce its
   ledger and summary byte for byte. *)
let traced_run ~seed:_ =
  let dir = state_dir "timed" and traced_dir = state_dir "traced" in
  Fun.protect ~finally:(fun () -> List.iter Common.rm_rf [ dir; traced_dir ])
  @@ fun () ->
  let o, wall = Common.time (fun () -> run (setup dir ())) in
  let failed = failures o in
  let sp = Spans.create () in
  let t =
    Spans.with_span sp "serve-drift" (fun () ->
        traced sp ~state_dir:(fresh_dir traced_dir))
  in
  if t.ledger <> o.ledger then
    Common.mismatch "serve-drift: traced ledger differs from Serve.run's";
  if t.summary <> o.summary then
    Common.mismatch "serve-drift: traced summary differs from Serve.run's";
  let spans = Spans.spans sp in
  let ms name = Common.median_call ~scale:1e3 spans name in
  let count n = float_of_int n in
  {
    Common.digest = Common.digest (output o);
    attempted = 2 * o.total;
    failed;
    values =
      Common.trace_values sp ~untraced:wall ~root:"serve-drift"
      @ [
          ( "profile.collect_ns_per_event",
            Common.median_call ~per_work:true spans "profile.collect" );
          ("profile_chunk.codec_ms", ms "profile_chunk.codec");
          ( "profile_chunk.ingest_ns_per_sample",
            Common.total spans "profile_chunk.ingest"
            *. 1e9
            /. Spans.counted sp "profile_chunk.samples" );
          ("profile_chunk.merge_ms", ms "profile_chunk.merge");
          ("rescore.score_ms", ms "rescore.score");
          ( "analyze.reanalysis_s",
            Common.median_call spans "analyze.reanalysis" );
          ("journal.append_ms", ms "journal.append");
          ("serve.store_ms", ms "serve.store");
          ("serve.rescores", count o.rescores);
          ("serve.drift_detected", count o.drift_detected);
          ("serve.analyses", count o.analyses);
          ("serve.rollouts", count o.rollouts);
          ("serve.rollbacks", count o.rollbacks);
          ( "serve.rollouts_per_analysis",
            count o.rollouts /. count (max 1 o.analyses) );
          ("serve_rollout_lag_steps", rollout_lag_steps o.ledger);
        ];
    spans;
  }
