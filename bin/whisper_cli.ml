(* whisper — command line front-end to the Whisper reproduction.

   Subcommands:
     list        catalogue of synthetic applications
     simulate    run one application under one technique
     profile     collect + summarize an in-production profile
     analyze     run the offline branch analysis, show hints
     trace       PT-encode a trace to a file / verify round trip
     experiment  regenerate a paper table/figure (or all of them)
     sweep       crash-safe sharded fleet sweep (journaled, resumable)
     worker      internal sweep worker process *)

open Cmdliner
open Whisper_trace

let find_app name =
  match Workloads.by_name name with
  | Some c -> c
  | None ->
      Printf.eprintf "unknown application %S; try `whisper list`\n" name;
      exit 1

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Printf.printf "%-18s %-10s %10s %10s %10s\n" "name" "family" "functions"
      "branches" "code-KB";
    Array.iter
      (fun (c : Workloads.config) ->
        let cfg = Workloads.build_cfg c in
        Printf.printf "%-18s %-10s %10d %10d %10d\n" c.name
          (match c.family with
          | Workloads.Datacenter -> "datacenter"
          | Workloads.Spec -> "spec")
          c.functions (Cfg.n_branches cfg)
          (cfg.Cfg.footprint / 1024))
      Workloads.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the synthetic applications")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)

let app_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "app"; "a" ] ~docv:"NAME" ~doc:"Application name (see `list`)")

let events_arg default =
  Arg.(
    value & opt int default
    & info [ "events"; "n" ] ~docv:"N"
        ~env:(Cmd.Env.info "WHISPER_EVENTS")
        ~doc:"Branch events to simulate")

let jobs_arg_doc doc =
  Arg.(
    value
    & opt int (Whisper_util.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~env:(Cmd.Env.info "WHISPER_JOBS") ~doc)

let jobs_arg =
  jobs_arg_doc
    "Worker domains for independent simulations (default: the recommended \
     domain count)"

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Disable the persistent on-disk result cache")

let cache_dir_arg =
  Arg.(
    value
    & opt string Whisper_sim.Result_cache.default_dir
    & info [ "cache-dir" ] ~docv:"DIR"
        ~env:(Cmd.Env.info "WHISPER_CACHE_DIR")
        ~doc:"Directory of the persistent result cache")

let faults_arg =
  Arg.(
    value & opt float 0.0
    & info [ "faults" ] ~docv:"P"
        ~env:(Cmd.Env.info "WHISPER_FAULTS")
        ~doc:
          "Chaos mode: inject a deterministic fault with probability $(docv) \
           per work item / cache entry.  Failing items are retried and, if \
           they keep failing, reported as DEGRADED rows instead of aborting \
           the run")

let fault_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "fault-seed" ] ~docv:"SEED"
        ~env:(Cmd.Env.info "WHISPER_FAULT_SEED")
        ~doc:
          "Seed of the fault injector; the same seed reproduces the same \
           faults regardless of $(b,--jobs)")

let retries_arg =
  Arg.(
    value & opt int 2
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Extra attempts granted to a failing or timed-out work item \
           (exponential backoff between attempts)")

let task_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "task-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Per-attempt wall budget of one work item; a timed-out attempt is \
           retried, then quarantined")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~env:(Cmd.Env.info "WHISPER_METRICS_OUT")
        ~doc:
          "Write aggregated telemetry (counters, histograms, span rollups) \
           as versioned JSON (schema in EXPERIMENTS.md)")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~env:(Cmd.Env.info "WHISPER_TRACE_OUT")
        ~doc:
          "Write timing spans as Chrome trace_events JSON (load in \
           about://tracing or ui.perfetto.dev)")

(* One snapshot feeds every exporter so the summary, metrics.json and the
   Chrome trace all describe the same instant. *)
let emit_telemetry ?(summary = false) ~metrics_out ~trace_out () =
  let module T = Whisper_util.Telemetry in
  if summary || metrics_out <> None || trace_out <> None then begin
    let snap = T.snapshot () in
    if summary then
      List.iter
        (fun l -> Printf.eprintf "telemetry: %s\n" l)
        (T.summary_lines snap);
    Option.iter
      (fun path ->
        Whisper_util.Durable.write_atomic path
          (Bytes.of_string (T.to_json_string snap));
        Printf.eprintf "telemetry: metrics written to %s\n" path)
      metrics_out;
    Option.iter
      (fun path ->
        Whisper_util.Durable.write_atomic path
          (Bytes.of_string (T.to_chrome snap));
        Printf.eprintf "telemetry: trace written to %s\n" path)
      trace_out
  end

let make_ctx ~events ~baseline_kb ~jobs ~no_cache ~cache_dir
    ?(faults = 0.0) ?(fault_seed = 42) ?(retries = 2) ?task_timeout () =
  let cache_dir = if no_cache then None else Some cache_dir in
  (* an injected hang must outlast the timeout, or it would never trip it *)
  let hang_s = Option.map (fun t -> 1.5 *. t) task_timeout in
  Whisper_sim.Runner.create_ctx ~events ~baseline_kb ~jobs ?cache_dir
    ~faults ~fault_seed ~retries ?task_timeout ?hang_s ()

let input_arg =
  Arg.(
    value & opt int 1
    & info [ "input"; "i" ] ~docv:"K" ~doc:"Workload input variant")

let kb_arg =
  Arg.(
    value & opt int 64
    & info [ "baseline-kb" ] ~docv:"KB" ~doc:"TAGE-SC-L storage budget")

let technique_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "baseline" | "tage-scl" -> Ok Whisper_sim.Runner.Baseline
    | "ideal" -> Ok Whisper_sim.Runner.Ideal
    | "mtage" | "mtage-sc" -> Ok Whisper_sim.Runner.Mtage_sc
    | "rombf4" | "4b-rombf" -> Ok (Whisper_sim.Runner.Rombf 4)
    | "rombf8" | "8b-rombf" -> Ok (Whisper_sim.Runner.Rombf 8)
    | "branchnet8k" ->
        Ok (Whisper_sim.Runner.Branchnet (Whisper_branchnet.Branchnet.Budget 8192))
    | "branchnet32k" ->
        Ok
          (Whisper_sim.Runner.Branchnet (Whisper_branchnet.Branchnet.Budget 32768))
    | "branchnet" ->
        Ok (Whisper_sim.Runner.Branchnet Whisper_branchnet.Branchnet.Unlimited)
    | "whisper" -> Ok (Whisper_sim.Runner.Whisper Whisper_core.Config.default)
    | s -> Error (`Msg (Printf.sprintf "unknown technique %S" s))
  in
  let print fmt t = Format.pp_print_string fmt (Whisper_sim.Runner.technique_name t) in
  Arg.(
    value
    & opt (conv (parse, print)) Whisper_sim.Runner.Baseline
    & info [ "technique"; "t" ] ~docv:"TECH"
        ~doc:
          "One of: baseline, ideal, mtage, rombf4, rombf8, branchnet8k, \
           branchnet32k, branchnet, whisper")

let simulate_cmd =
  let run app technique events input kb jobs no_cache cache_dir
      metrics_out trace_out =
    let app = find_app app in
    let ctx =
      make_ctx ~events ~baseline_kb:kb ~jobs ~no_cache ~cache_dir ()
    in
    let r = Whisper_sim.Runner.run ~test_input:input ctx app technique in
    emit_telemetry ~metrics_out ~trace_out ();
    let open Whisper_pipeline.Machine in
    Printf.printf "app            %s (input %d)\n" app.Workloads.name input;
    Printf.printf "technique      %s\n" (Whisper_sim.Runner.technique_name technique);
    Printf.printf "events         %d branches, %d instructions\n" r.branches r.instrs;
    Printf.printf "cycles         %.0f  (IPC %.3f)\n" r.cycles (ipc r);
    Printf.printf "mispredicts    %d  (branch-MPKI %.2f)\n" r.mispredicts (mpki r);
    Printf.printf "stalls         mispredict %.0f, frontend %.0f, btb %.0f cycles\n"
      r.misp_stall r.fe_stall r.btb_stall;
    Printf.printf "L1i misses     %d (%d exposed past FDIP)\n" r.l1i_misses
      r.exposed_misses;
    match Whisper_sim.Runner.cache_dir ctx with
    | None -> ()
    | Some dir ->
        let s = Whisper_sim.Runner.stats ctx in
        Printf.printf "cache          %s (%s)\n" dir
          (if s.Whisper_sim.Runner.cache_hits > 0 then "hit" else "miss, stored")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate one application under one technique")
    Term.(
      const run $ app_arg $ technique_arg $ events_arg 1_200_000 $ input_arg
      $ kb_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg
      $ metrics_out_arg $ trace_out_arg)

let profile_cmd =
  let save_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the profile to a file")
  in
  let run app events kb save =
    let app = find_app app in
    let ctx = Whisper_sim.Runner.create_ctx ~events ~baseline_kb:kb () in
    let p = Whisper_sim.Runner.profile ctx app in
    Option.iter
      (fun path ->
        Profile_io.save p ~path;
        Printf.printf "profile written to %s\n" path)
      save;
    Printf.printf "app              %s\n" app.Workloads.name;
    Printf.printf "events           %d (%d instructions)\n"
      (Profile.total_branches p) (Profile.total_instrs p);
    Printf.printf "baseline MPKI    %.2f\n" (Profile.mpki p);
    Printf.printf "static branches  %d\n" (Profile.n_static_branches p);
    let cands = Profile.candidates p in
    Printf.printf "candidates       %d\n" (Array.length cands);
    Printf.printf "top mispredicting branches:\n";
    Array.iteri
      (fun i pc ->
        if i < 10 then
          match Profile.stat p ~pc with
          | Some s ->
              Printf.printf "  pc=0x%x execs=%d mispred=%d taken=%.0f%%\n" pc
                s.Profile.execs s.Profile.mispred
                (100.0 *. float_of_int s.Profile.taken_cnt
                /. float_of_int (max 1 s.Profile.execs))
          | None -> ())
      cands
  in
  Cmd.v (Cmd.info "profile" ~doc:"Collect and summarize a profile")
    Term.(const run $ app_arg $ events_arg 1_200_000 $ kb_arg $ save_arg)

let analyze_cmd =
  let load_arg =
    Arg.(
      value & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"Analyze a saved profile instead of collecting one")
  in
  let save_plan_arg =
    Arg.(
      value & opt (some string) None
      & info [ "save-plan" ] ~docv:"FILE"
          ~doc:"Write the hint-injection plan (the 'updated binary')")
  in
  let run app events kb load save_plan jobs =
    let app = find_app app in
    let ctx = Whisper_sim.Runner.create_ctx ~events ~baseline_kb:kb () in
    (* one persistent pool for the whole command: spawned here, reused by
       every Analyze.run chunk-claiming fan-out (jobs - 1 workers; the
       calling domain is the remaining claimer) *)
    let pool =
      if jobs > 1 then Some (Whisper_util.Pool.shared ~jobs:(jobs - 1))
      else None
    in
    let analysis =
      match load with
      | Some path -> (
          match Profile_io.load ~path with
          | Ok p -> Whisper_core.Analyze.run ~jobs ?pool p
          | Error e ->
              Printf.eprintf "error: %s\n"
                (Whisper_util.Whisper_error.to_string e);
              exit 1)
      | None -> Whisper_sim.Runner.whisper_analysis ~jobs ?pool ctx app
    in
    Option.iter
      (fun path ->
        let cfg = Whisper_sim.Runner.cfg_of ctx app in
        let plan =
          Whisper_core.Inject.plan Whisper_core.Config.default cfg
            ~source:
              (App_model.source (App_model.create ~cfg ~config:app ~input:0 ()))
            ~hints:(Whisper_core.Analyze.to_inject_hints analysis cfg)
        in
        Whisper_core.Plan_io.save plan ~path;
        Printf.printf "injection plan written to %s\n" path)
      save_plan;
    Printf.printf "app             %s\n" app.Workloads.name;
    Printf.printf "candidates      %d\n" analysis.Whisper_core.Analyze.considered;
    Printf.printf "hints emitted   %d\n" (Whisper_core.Analyze.hint_count analysis);
    Printf.printf "training time   %.2fs\n"
      analysis.Whisper_core.Analyze.training_seconds;
    Printf.printf "first hints:\n";
    List.iteri
      (fun i (pc, (c : Whisper_core.History_select.choice)) ->
        if i < 10 then begin
          let lengths = Workloads.lengths in
          Printf.printf
            "  pc=0x%x %s len=%d formula=%#x profile: %d -> %d mispredicts\n" pc
            (match c.bias with
            | Whisper_core.Brhint.Formula -> "formula"
            | Whisper_core.Brhint.Always_taken -> "always "
            | Whisper_core.Brhint.Never_taken -> "never  "
            | Whisper_core.Brhint.Dynamic -> "dynamic")
            lengths.(c.len_idx) c.formula_id c.baseline_mispred c.sample_mispred
        end)
      analysis.Whisper_core.Analyze.decisions
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Run Whisper's offline branch analysis")
    Term.(
      const run $ app_arg $ events_arg 1_200_000 $ kb_arg $ load_arg
      $ save_plan_arg $ jobs_arg)

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.pt"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file")
  in
  let run app events input out =
    let app = find_app app in
    let cfg = Workloads.build_cfg app in
    let m = App_model.create ~cfg ~config:app ~input () in
    let events_arr = Branch.take (App_model.source m) events in
    let encoded = Pt_codec.encode ~cfg events_arr in
    let oc = open_out_bin out in
    output_bytes oc encoded;
    close_out oc;
    (* verify the round trip, as a real collector's self-check would *)
    (match Pt_codec.decode ~cfg encoded with
    | Ok decoded -> assert (decoded = events_arr)
    | Error e ->
        Printf.eprintf "round-trip failed: %s\n"
          (Whisper_util.Whisper_error.to_string e);
        exit 1);
    Printf.printf "wrote %d events to %s (%d bytes, %.2f bytes/branch)\n" events
      out (Bytes.length encoded)
      (float_of_int (Bytes.length encoded) /. float_of_int events);
    Printf.printf "round-trip verified\n"
  in
  Cmd.v (Cmd.info "trace" ~doc:"Record a PT-encoded branch trace")
    Term.(const run $ app_arg $ events_arg 100_000 $ input_arg $ out_arg)

let classify_cmd =
  let run app events kb input =
    let app = find_app app in
    let cfg = Workloads.build_cfg app in
    let sizes = Whisper_bpu.Sizes.for_budget ~kb in
    let entries =
      sizes.Whisper_bpu.Sizes.tage.Whisper_bpu.Tage.n_tables
      * (1 lsl sizes.Whisper_bpu.Sizes.tage.Whisper_bpu.Tage.log_entries)
    in
    let classifier = Whisper_core.Classify.create ~capacity_entries:entries () in
    let p = Whisper_bpu.Tage_scl.predictor sizes in
    let src = App_model.source (App_model.create ~cfg ~config:app ~input ()) in
    for _ = 1 to events do
      let e = src () in
      let pred = p.Whisper_bpu.Predictor.predict ~pc:e.Branch.pc in
      p.train ~pc:e.Branch.pc ~taken:e.Branch.taken;
      ignore
        (Whisper_core.Classify.note classifier ~pc:e.Branch.pc
           ~taken:e.Branch.taken
           ~mispredicted:(pred <> e.Branch.taken))
    done;
    let c = Whisper_core.Classify.counts classifier in
    Printf.printf "app           %s (input %d, %dKB baseline)
"
      app.Workloads.name input kb;
    Printf.printf "mispredicts   %d
" (Whisper_core.Classify.total c);
    Format.printf "breakdown     %a@." Whisper_core.Classify.pp_counts c
  in
  Cmd.v
    (Cmd.info "classify"
       ~doc:"Classify one application's mispredictions (compulsory/capacity/conflict/conditional)")
    Term.(const run $ app_arg $ events_arg 1_200_000 $ kb_arg $ input_arg)

let experiment_cmd =
  let id_arg =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id (table1..fig23) or 'all'")
  in
  let csv_arg =
    Arg.(
      value & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write results as CSV files")
  in
  let run id events kb csv_dir jobs no_cache cache_dir faults fault_seed
      retries task_timeout metrics_out trace_out =
    let ctx =
      make_ctx ~events ~baseline_kb:kb ~jobs ~no_cache ~cache_dir
        ~faults ~fault_seed ~retries ?task_timeout ()
    in
    let chaos = faults > 0.0 || task_timeout <> None in
    let ids =
      if id = "all" then Whisper_sim.Experiments.all_ids else [ id ]
    in
    List.iter
      (fun id ->
        match Whisper_sim.Experiments.by_id id with
        | None ->
            Printf.eprintf "unknown experiment %S\n" id;
            exit 1
        | Some f ->
            let before = Whisper_sim.Runner.stats ctx in
            let fbefore = Whisper_sim.Runner.fault_summary ctx in
            let t0 = Unix.gettimeofday () in
            let report =
              Whisper_util.Telemetry.span ("experiment/" ^ id) (fun () ->
                  f ctx)
            in
            let wall_s = Unix.gettimeofday () -. t0 in
            let after = Whisper_sim.Runner.stats ctx in
            let report =
              Whisper_sim.Report.with_timing
                {
                  Whisper_sim.Report.wall_s;
                  sims = after.sims - before.sims;
                  sim_seconds = after.sim_seconds -. before.sim_seconds;
                  cache_hits = after.cache_hits - before.cache_hits;
                  cache_misses = after.cache_misses - before.cache_misses;
                }
                report
            in
            let report =
              if not chaos then report
              else
                let fa = Whisper_sim.Runner.fault_summary ctx in
                let open Whisper_sim.Report in
                with_faults
                  {
                    injected = fa.injected - fbefore.injected;
                    observed = fa.observed - fbefore.observed;
                    retries = fa.retries - fbefore.retries;
                    quarantined = fa.quarantined - fbefore.quarantined;
                    cache_write_failures =
                      fa.cache_write_failures - fbefore.cache_write_failures;
                    cache_corrupt_dropped =
                      fa.cache_corrupt_dropped - fbefore.cache_corrupt_dropped;
                  }
                  report
            in
            Whisper_sim.Report.print report;
            Printf.printf "\n%!";
            Option.iter
              (fun dir ->
                Whisper_util.Durable.write_atomic
                  (Filename.concat dir (id ^ ".csv"))
                  (Bytes.of_string (Whisper_sim.Report.to_csv report)))
              csv_dir)
      ids;
    (* End-of-run accounting (sims, cache traffic, faults, degradations)
       is reported through the telemetry summary: one block, one format,
       instead of ad-hoc per-condition warnings. *)
    emit_telemetry ~summary:true ~metrics_out ~trace_out ()
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a paper table or figure")
    Term.(
      const run $ id_arg $ events_arg 1_200_000 $ kb_arg $ csv_arg $ jobs_arg
      $ no_cache_arg $ cache_dir_arg $ faults_arg $ fault_seed_arg
      $ retries_arg $ task_timeout_arg $ metrics_out_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let fleet_arg =
    Arg.(
      value & opt int 24
      & info [ "fleet" ] ~docv:"N"
          ~doc:"Number of parameter-sampled fleet applications to sweep")
  in
  let fleet_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "fleet-seed" ] ~docv:"SEED"
          ~doc:"Sampling seed of the fleet (same seed = same applications)")
  in
  let catalog_arg =
    Arg.(
      value & flag
      & info [ "catalog" ]
          ~doc:
            "Sweep the 12 catalogue data-center applications instead of a \
             sampled fleet")
  in
  let techniques_arg =
    Arg.(
      value
      & opt (list string) Whisper_sim.Sweep.default_techniques
      & info [ "techniques" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated techniques: tage-scl, ideal, mtage-sc, \
             4b-rombf, 8b-rombf, whisper")
  in
  let state_dir_arg =
    Arg.(
      value & opt string "_whisper_sweep"
      & info [ "state-dir" ] ~docv:"DIR"
          ~env:(Cmd.Env.info "WHISPER_SWEEP_DIR")
          ~doc:
            "Sweep state root: manifest, completion journal and the shared \
             result cache live here — and $(b,--resume) replays them")
  in
  let in_process_arg =
    Arg.(
      value & flag
      & info [ "in-process" ]
          ~doc:
            "Run work items on domains inside this process instead of \
             supervised worker processes")
  in
  let worker_exe_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker-exe" ] ~docv:"PATH"
          ~env:(Cmd.Env.info "WHISPER_WORKER_EXE")
          ~doc:
            "Executable spawned as `$(docv) worker' for each shard (default: \
             this binary)")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the state directory's journal: verified completions \
             are skipped, everything else re-runs.  The final report is \
             byte-identical to an uninterrupted sweep")
  in
  let heartbeat_arg =
    Arg.(
      value & opt float 0.25
      & info [ "heartbeat" ] ~docv:"SECONDS"
          ~doc:"Worker heartbeat period")
  in
  let hang_timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "hang-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Silence from a busy worker before it is declared hung and \
             SIGKILLed")
  in
  let max_restarts_arg =
    Arg.(
      value & opt int 4
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:"Respawns granted to each worker slot before giving up")
  in
  let max_attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Tries per item for failures that leave the worker alive")
  in
  let max_completions_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-completions" ] ~docv:"K"
          ~doc:
            "Testing hook: stop (as if killed) after $(docv) journaled \
             completions, skipping the report")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the fleet report as CSV")
  in
  let run fleet fleet_seed catalog techniques events kb state_dir jobs
      in_process worker_exe faults fault_seed heartbeat hang_timeout
      max_restarts max_attempts resume max_completions csv metrics_out
      trace_out =
    let apps =
      if catalog then
        Array.to_list Workloads.datacenter
        |> List.map (fun (c : Workloads.config) ->
               Whisper_sim.Sweep.Catalog c.name)
      else Whisper_sim.Sweep.fleet ~seed:fleet_seed ~n:fleet
    in
    (match
       List.find_opt
         (fun t -> Whisper_sim.Sweep.parse_technique t = None)
         techniques
     with
    | Some t ->
        Printf.eprintf "unknown sweep technique %S\n" t;
        exit 1
    | None -> ());
    let exe = Option.value worker_exe ~default:Sys.executable_name in
    let cfg =
      {
        (Whisper_sim.Sweep.default ~state_dir) with
        apps;
        techniques;
        events;
        kb;
        jobs;
        mode = (if in_process then `In_process else `Process);
        worker_argv = [| exe; "worker" |];
        faults;
        fault_seed;
        heartbeat_s = heartbeat;
        hang_timeout_s = hang_timeout;
        max_worker_restarts = max_restarts;
        max_attempts;
        resume;
        max_completions;
      }
    in
    let o = Whisper_sim.Sweep.run cfg in
    Printf.eprintf
      "sweep: manifest %s — %d items, %d completed, %d resumed, %d \
       quarantined\n"
      o.Whisper_sim.Sweep.manifest_id o.total o.completed o.resumed
      o.quarantined;
    if o.worker_crashes + o.worker_hangs + o.worker_restarts > 0 then
      Printf.eprintf
        "sweep: workers — %d crashed, %d hung (SIGKILLed), %d restarted\n"
        o.worker_crashes o.worker_hangs o.worker_restarts;
    if o.fellback then
      Printf.eprintf
        "sweep: worker processes unavailable; degraded to in-process \
         execution\n";
    if o.journal_recovered then
      Printf.eprintf "sweep: journal recovered (%d corrupt bytes dropped)\n"
        o.journal_dropped_bytes;
    (match o.report with
    | None -> Printf.eprintf "sweep: interrupted before completion\n"
    | Some report ->
        Whisper_sim.Report.print report;
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Whisper_sim.Report.to_csv report);
            close_out oc;
            Printf.eprintf "sweep: csv written to %s\n" path)
          csv);
    emit_telemetry ~summary:true ~metrics_out ~trace_out ()
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a crash-safe sharded sweep over a fleet of applications \
          (journaled, resumable with --resume)")
    Term.(
      const run $ fleet_arg $ fleet_seed_arg $ catalog_arg $ techniques_arg
      $ events_arg 60_000 $ kb_arg $ state_dir_arg $ jobs_arg $ in_process_arg
      $ worker_exe_arg $ faults_arg $ fault_seed_arg $ heartbeat_arg
      $ hang_timeout_arg $ max_restarts_arg $ max_attempts_arg $ resume_arg
      $ max_completions_arg $ csv_arg $ metrics_out_arg $ trace_out_arg)

let serve_cmd =
  let apps_arg =
    Arg.(
      value
      & opt (list string) [ "finagle-http" ]
      & info [ "apps" ] ~docv:"NAMES"
          ~doc:"Comma-separated catalogue applications the service profiles")
  in
  let generations_arg =
    Arg.(
      value & opt int 12
      & info [ "generations" ] ~docv:"N"
          ~doc:"Scripted delivery intervals (one trace chunk per app each)")
  in
  let chunk_events_arg =
    Arg.(
      value & opt int 120_000
      & info [ "chunk-events" ] ~docv:"N"
          ~doc:"Branch events collected per trace chunk")
  in
  let window_arg =
    Arg.(
      value & opt int 4
      & info [ "window" ] ~docv:"N"
          ~doc:"Sliding re-scoring window, in accepted chunks")
  in
  let max_samples_arg =
    Arg.(
      value & opt int 512
      & info [ "max-samples" ] ~docv:"N"
          ~doc:"Per-branch sample cap of collected chunks and window merges")
  in
  let jobs_arg =
    jobs_arg_doc
      "Worker domains for the re-analysis fan-out and the chunk-collection \
       lookahead: up to $(docv) chunks are collected ahead of the step that \
       ingests them (default: the recommended domain count; 1 collects \
       inline)"
  in
  let drift_flip_arg =
    Arg.(
      value & opt int (-1)
      & info [ "drift-flip" ] ~docv:"GEN"
          ~doc:
            "Generation at which the workload's session mix flips to a new \
             phase (default: half the generations)")
  in
  let no_drift_arg =
    Arg.(
      value & flag
      & info [ "no-drift" ] ~doc:"Run a stationary workload (no phase flip)")
  in
  let decay_frac_arg =
    Arg.(
      value & opt float 0.5
      & info [ "decay-frac" ] ~docv:"F"
          ~doc:
            "Re-analysis triggers when window coverage falls below $(docv) x \
             the deployed plan's rollout coverage")
  in
  let state_dir_arg =
    Arg.(
      value & opt string "_whisper_serve"
      & info [ "state-dir" ] ~docv:"DIR"
          ~env:(Cmd.Env.info "WHISPER_SERVE_DIR")
          ~doc:
            "Service state root: manifest, completion journal, chunk and \
             plan stores — $(b,--resume) replays them")
  in
  let no_redeliver_arg =
    Arg.(
      value & flag
      & info [ "no-redeliver" ]
          ~doc:
            "Skip the per-generation duplicate re-delivery of each accepted \
             chunk (the idempotency probe)")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the state directory's journal: applied steps are \
             replayed without re-execution; the final ledger is \
             byte-identical to an uninterrupted run")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"K"
          ~doc:
            "Testing hook: stop (as if killed) after $(docv) journaled steps \
             this run, skipping the ledger")
  in
  let assert_recovery_arg =
    Arg.(
      value & flag
      & info [ "assert-recovery" ]
          ~doc:
            "Exit non-zero unless the phase flip produced a drift detection, \
             a post-flip rollout and a final coverage above the post-flip \
             trough (the CI soak gate)")
  in
  let run apps generations chunk_events window kb max_samples drift_flip
      no_drift decay_frac state_dir jobs faults fault_seed no_redeliver resume
      max_steps assert_recovery metrics_out trace_out =
    List.iter (fun a -> ignore (find_app a)) apps;
    let drift_flip =
      if no_drift then None
      else if drift_flip >= 0 then Some drift_flip
      else Some (generations / 2)
    in
    let cfg =
      {
        (Whisper_sim.Serve.default ~state_dir) with
        apps;
        generations;
        chunk_events;
        window;
        kb;
        max_samples;
        drift_flip;
        decay_frac;
        jobs;
        faults;
        fault_seed;
        redeliver = not no_redeliver;
        resume;
        max_steps;
      }
    in
    (match Whisper_sim.Serve.validate cfg with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "serve: invalid configuration: %s\n" msg;
        exit 1);
    let o = Whisper_sim.Serve.run cfg in
    Printf.eprintf
      "serve: manifest %s — %d steps, %d completed, %d resumed\n"
      o.Whisper_sim.Serve.manifest_id o.total o.completed o.resumed;
    if o.Whisper_sim.Serve.journal_recovered then
      Printf.eprintf "serve: journal recovered (%d corrupt bytes dropped)\n"
        o.Whisper_sim.Serve.journal_dropped_bytes;
    if o.Whisper_sim.Serve.chunks_quarantined + o.Whisper_sim.Serve.analysis_quarantined > 0
    then
      Printf.eprintf "serve: degraded — %d chunks, %d analyses quarantined\n"
        o.Whisper_sim.Serve.chunks_quarantined
        o.Whisper_sim.Serve.analysis_quarantined;
    if o.Whisper_sim.Serve.interrupted then
      Printf.eprintf "serve: interrupted before completion\n"
    else begin
      List.iter print_endline o.Whisper_sim.Serve.ledger;
      print_newline ();
      List.iter print_endline o.Whisper_sim.Serve.summary
    end;
    emit_telemetry ~summary:true ~metrics_out ~trace_out ();
    if assert_recovery then
      match Whisper_sim.Serve.check_recovery cfg o with
      | Ok () -> Printf.eprintf "serve: drift recovery asserted ok\n"
      | Error reason ->
          Printf.eprintf "serve: drift recovery assertion FAILED: %s\n" reason;
          exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Continuous-profiling service mode: incremental chunk ingestion, \
          drift detection and versioned plan rollout (journaled, resumable \
          with --resume)")
    Term.(
      const run $ apps_arg $ generations_arg $ chunk_events_arg $ window_arg
      $ kb_arg $ max_samples_arg $ drift_flip_arg $ no_drift_arg
      $ decay_frac_arg $ state_dir_arg $ jobs_arg $ faults_arg $ fault_seed_arg
      $ no_redeliver_arg $ resume_arg $ max_steps_arg $ assert_recovery_arg
      $ metrics_out_arg $ trace_out_arg)

let worker_cmd =
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Internal: sweep worker process (speaks the supervisor protocol on \
          stdin/stdout)")
    Term.(const (fun () -> Whisper_sim.Sweep.worker_main ()) $ const ())

let () =
  let info =
    Cmd.info "whisper" ~version:"1.0.0"
      ~doc:"Profile-guided branch misprediction elimination (MICRO'22 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            simulate_cmd;
            profile_cmd;
            analyze_cmd;
            classify_cmd;
            trace_cmd;
            experiment_cmd;
            sweep_cmd;
            serve_cmd;
            worker_cmd;
          ]))
