(* paper-sim: the Fig. 12/13 cross-input batch through Runner.run_batch,
   and its sequential layer-by-layer replay for the traced run. *)

open Whisper_trace
open Whisper_sim
open Whisper_core
module Machine = Whisper_pipeline.Machine
module Tage_scl = Whisper_bpu.Tage_scl
module Mtage = Whisper_bpu.Mtage
module Sizes = Whisper_bpu.Sizes
module Compiled = Whisper_bpu.Predictor.Compiled
module Rombf = Whisper_rombf.Rombf
module Branchnet = Whisper_branchnet.Branchnet

let app_names = [ "finagle-http"; "cassandra"; "clang" ]
let apps = List.map (fun n -> Option.get (Workloads.by_name n)) app_names
let events = 1_200_000
let kb = 64
let hb64 = { Config.default with hint_buffer_size = 64 }

let techniques =
  [
    ("tage-scl", Runner.Baseline);
    ("ideal", Runner.Ideal);
    ("mtage-sc", Runner.Mtage_sc);
    ("8b-rombf", Runner.Rombf 8);
    ("8KB-branchnet", Runner.Branchnet (Branchnet.Budget 8192));
    ("whisper", Runner.Whisper Config.default);
    ("whisper-hb64", Runner.Whisper hb64);
  ]

let whisper_configs = [ ("whisper", Config.default); ("whisper-hb64", hb64) ]

(* Timing-model events one batch replays. *)
let sim_events = List.length techniques * List.length apps * events

(* What one batch produces: every simulation's result and every Whisper
   plan's digest, keyed by (app, technique). *)
type output = {
  results : ((string * string) * Machine.result) list;
  plans : ((string * string) * string) list;
  coverage : float list;  (** default-config plan coverage per app, % *)
}

let coverage_pct ~config profile decisions =
  let rnd = Randomized.create config in
  100.0 *. (Rescore.score ~config ~rnd ~profile decisions).Rescore.coverage

(* ------------------------------------------------------------------ *)
(* Untraced: the path `whisper experiment` takes                       *)
(* ------------------------------------------------------------------ *)

let setup () =
  Common.warm_process ~machine:true;
  let ctx = Runner.create_ctx ~events ~baseline_kb:kb ~jobs:Common.jobs () in
  List.iter (fun app -> ignore (Runner.cfg_of ctx app)) apps;
  ctx

(* Declared app by app, as the experiment tables declare their
   batches. *)
let batch ~train ~test ctx =
  Runner.run_batch ctx
    (List.concat_map
       (fun app ->
         List.map
           (fun (_, t) ->
             Runner.sim ~train_inputs:[ train ] ~test_input:test app t)
           techniques)
       apps);
  ctx

(* Read back after the timed region: results are memo lookups; plans
   rerun the (default-exploration) analysis on the memoized profile. *)
let read_back ~train ~test ctx =
  let each f = List.concat_map f apps in
  let results =
    each (fun app ->
        List.map
          (fun (name, t) ->
            ( (app.Workloads.name, name),
              Runner.run ~train_inputs:[ train ] ~test_input:test ctx app t ))
          techniques)
  in
  let analyses =
    each (fun app ->
        List.map
          (fun (name, config) ->
            ( (app.Workloads.name, name),
              Runner.whisper_analysis ~config ~train_inputs:[ train ]
                ~jobs:Common.jobs ctx app ))
          whisper_configs)
  in
  let coverage =
    List.map
      (fun app ->
        let a = List.assoc (app.Workloads.name, "whisper") analyses in
        coverage_pct ~config:Config.default
          (Runner.profile ~inputs:[ train ] ctx app)
          a.Analyze.decisions)
      apps
  in
  let plans =
    List.map (fun (k, a) -> (k, Rescore.digest a.Analyze.decisions)) analyses
  in
  { results; plans; coverage }

(* ------------------------------------------------------------------ *)
(* Traced: the same work, one layer call at a time                     *)
(* ------------------------------------------------------------------ *)

(* Verdict bytes from a per-event exec, in event order: exactly the
   calls Machine makes for an [Indexed] strategy. *)
let verdicts_of f =
  let v = Bytes.create events in
  for i = 0 to events - 1 do
    Bytes.unsafe_set v i (if f i then '\001' else '\000')
  done;
  v

let kernel (c : Compiled.t) arena =
  let v = Bytes.create events in
  c.Compiled.fill ~arena ~n:events ~verdicts:v;
  v

(* The timing model fed precomputed verdicts. *)
let replayed v =
  Machine.Compiled (fun ~arena:_ ~n ~verdicts -> Bytes.blit v 0 verdicts 0 n)

let tage_scl () = Tage_scl.compiled (Sizes.for_budget ~kb)
let baseline () = Tage_scl.predictor (Sizes.for_budget ~kb)

let traced_app sp ~train ~test app =
  let w ?work name f = Spans.with_span sp ?work name f in
  let count name n = Spans.count sp name (float_of_int n) in
  let cfg = w "workloads.build_cfg" (fun () -> Workloads.build_cfg app) in
  let arena input =
    w "arena.build" ~work:events (fun () ->
        Arena.build ~events (App_model.create ~cfg ~config:app ~input ()))
  in
  let a_train = arena train and a_test = arena test in
  (* the runner's staged profile: LBR verdicts from the compiled
     baseline, replayed through a cursor by both profiling passes *)
  let profile =
    let lbr =
      w "tage_scl.kernel" ~work:events (fun () -> kernel (tage_scl ()) a_train)
    in
    w "profile.tabulate" ~work:events (fun () ->
        let make_predictor () =
          let i = ref 0 in
          fun ~pc:_ ~taken:_ ->
            let v = Bytes.get lbr !i <> '\000' in
            incr i;
            v
        in
        Profile.collect_arena ~lengths:Workloads.lengths ~events
          ~arena:a_train ~make_predictor ())
  in
  let timing exec =
    w "machine.timing" ~work:events (fun () ->
        Machine.run_arena_exec ~events ~arena:a_test ~exec ())
  in
  let indexed name exec_at =
    w name ~work:events (fun () ->
        let exec_at = exec_at () in
        verdicts_of (fun i ->
            exec_at ~pc:(Arena.pc a_test i) ~taken:(Arena.taken a_test i)))
  in
  let plans = ref [] and coverage = ref 0.0 in
  let whisper name config =
    let a = w "analyze.run" (fun () -> Analyze.run ~config profile) in
    count "analyze.considered" a.Analyze.considered;
    count "analyze.hints" (Analyze.hint_count a);
    plans :=
      ((app.Workloads.name, name), Rescore.digest a.Analyze.decisions)
      :: !plans;
    if name = "whisper" then
      coverage := coverage_pct ~config profile a.Analyze.decisions;
    let plan =
      w "inject.plan" (fun () ->
          Inject.plan config cfg ~source:(Arena.source a_train)
            ~hints:(Analyze.to_inject_hints a cfg))
    in
    count "inject.dropped" plan.Inject.dropped;
    let rt =
      w "runtime.create" (fun () ->
          Runtime.create config ~baseline:(baseline ()) ~plan)
    in
    let v =
      w "runtime.exec" ~work:events (fun () ->
          verdicts_of (Runtime.exec_arena rt ~arena:a_test))
    in
    count "runtime.events" events;
    count "runtime.hinted" (Runtime.hinted_predictions rt);
    count "runtime.hinted_wrong" (Runtime.hinted_mispredictions rt);
    replayed v
  in
  let exec = function
    | _, Runner.Baseline ->
        replayed
          (w "tage_scl.kernel" ~work:events (fun () ->
               kernel (tage_scl ()) a_test))
    | _, Runner.Ideal -> Machine.Oracle
    | _, Runner.Mtage_sc ->
        replayed
          (w "mtage.kernel" ~work:events (fun () ->
               kernel (Mtage.compiled ()) a_test))
    | _, Runner.Rombf n ->
        let spec = w "rombf.train" (fun () -> Rombf.train ~n profile) in
        replayed
          (indexed "rombf.exec" (fun () ->
               Rombf.Runtime.exec_at
                 (Rombf.Runtime.create spec ~baseline:(baseline ()))))
    | _, Runner.Branchnet budget ->
        let spec =
          w "branchnet.train" (fun () -> Branchnet.train ~budget profile)
        in
        replayed
          (indexed "branchnet.exec" (fun () ->
               Branchnet.Runtime.exec_at
                 (Branchnet.Runtime.create spec ~baseline:(baseline ()))))
    | name, Runner.Whisper config -> whisper name config
  in
  let results =
    List.map
      (fun ((name, _) as t) -> ((app.Workloads.name, name), timing (exec t)))
      techniques
  in
  (results, List.rev !plans, !coverage)

let traced sp ~train ~test =
  let per_app = List.map (traced_app sp ~train ~test) apps in
  {
    results = List.concat_map (fun (r, _, _) -> r) per_app;
    plans = List.concat_map (fun (_, p, _) -> p) per_app;
    coverage = List.map (fun (_, _, c) -> c) per_app;
  }

(* ------------------------------------------------------------------ *)
(* Checks and metrics                                                  *)
(* ------------------------------------------------------------------ *)

(* Degraded simulations count as failed operations; a result that did
   not replay every event, or an ideal predictor that mispredicted, is
   wrong output. *)
let failures o =
  List.fold_left
    (fun failed ((app, tech), (r : Machine.result)) ->
      if Machine.degraded r then failed + 1
      else if r.branches <> events then
        Common.mismatch "paper-sim: %s/%s replayed %d of %d events" app tech
          r.branches events
      else if tech = "ideal" && r.mispredicts <> 0 then
        Common.mismatch "paper-sim: %s/ideal mispredicted %d times" app
          r.mispredicts
      else failed)
    0 o.results

(* The simulated Figs. 12/13 results and the Fig. 1 cycle decomposition,
   summed over apps. *)
let simulated o =
  let result app tech = List.assoc (app, tech) o.results in
  let over_apps f = Common.mean (List.map f app_names) in
  let reduction app =
    Whisper_util.Stats.reduction_pct
      ~baseline:(float_of_int (result app "tage-scl").Machine.mispredicts)
      ~improved:(float_of_int (result app "whisper").Machine.mispredicts)
  in
  let speedup app =
    Machine.speedup_pct ~baseline:(result app "tage-scl")
      ~improved:(result app "whisper")
  in
  let stalls (key, tech) =
    let sum f =
      List.fold_left (fun acc app -> acc +. f (result app tech)) 0.0 app_names
    in
    let name field = Printf.sprintf "machine.%s.%s" key field in
    [
      (name "misp_stall_cycles", sum (fun r -> r.Machine.misp_stall));
      (name "fe_stall_cycles", sum (fun r -> r.Machine.fe_stall));
      (name "btb_stall_cycles", sum (fun r -> r.Machine.btb_stall));
      ( name "exposed_misses",
        sum (fun r -> float_of_int r.Machine.exposed_misses) );
    ]
  in
  ("whisper_misp_reduction_pct", over_apps reduction)
  :: ("whisper_ipc_speedup_pct", over_apps speedup)
  :: List.concat_map stalls
       [ ("tage_scl", "tage-scl"); ("whisper", "whisper"); ("ideal", "ideal") ]

let timed ~seed ~seconds =
  let train, test = Common.inputs_of_seed seed in
  let it =
    Common.iterate ~seconds ~min_setups:21 ~setup ~run:(batch ~train ~test)
      ~after:(read_back ~train ~test)
  in
  let outputs = List.map fst it.runs in
  let failed = List.fold_left (fun acc o -> acc + failures o) 0 outputs in
  Common.check_iterations "paper-sim" (List.map Common.digest outputs);
  let o = List.hd outputs in
  {
    Common.digest = Common.digest o;
    attempted = List.length outputs * List.length o.results;
    failed;
    values =
      [
        ("setup_s", Pctl.median it.setups);
        ("peak_rss_mb", it.peak_rss_mb);
        ( "work_per_s",
          Common.throughput (fun _ -> float_of_int sim_events) it.runs );
        ("plan_coverage_pct", Common.mean o.coverage);
      ];
    spans = [||];
  }

(* One untraced batch, then the traced replay, which must reproduce
   every result and plan byte for byte. *)
let traced_run ~seed =
  let train, test = Common.inputs_of_seed seed in
  let o, untraced =
    let ctx = setup () in
    let ctx, dt = Common.time (fun () -> batch ~train ~test ctx) in
    (read_back ~train ~test ctx, dt)
  in
  let sp = Spans.create () in
  let t = Spans.with_span sp "paper-sim" (fun () -> traced sp ~train ~test) in
  let failed = failures o + failures t in
  List.iter2
    (fun (key, r) (key', r') ->
      if key <> key' || Common.digest r <> Common.digest r' then
        Common.mismatch "paper-sim: traced %s/%s differs from the timed run"
          (fst key) (snd key))
    o.results t.results;
  if o.plans <> t.plans then
    Common.mismatch "paper-sim: traced plan digests differ from the timed run";
  if Common.digest o <> Common.digest t then
    Common.mismatch "paper-sim: traced output differs from the timed run";
  let spans = Spans.spans sp in
  let c = Spans.counted sp in
  let per_event = Common.median_call ~per_work:true spans in
  let per_call = Common.median_call spans in
  {
    Common.digest = Common.digest o;
    attempted = List.length o.results + List.length t.results;
    failed;
    values =
      Common.trace_values sp ~untraced ~root:"paper-sim"
      @ simulated o
      @ [
          ("tage_scl.kernel_ns_per_event", per_event "tage_scl.kernel");
          ("mtage.kernel_ns_per_event", per_event "mtage.kernel");
          ("arena.build_ns_per_event", per_event "arena.build");
          ("profile.tabulate_ns_per_event", per_event "profile.tabulate");
          ("machine.timing_ns_per_event", per_event "machine.timing");
          ("runtime.create_s", per_call "runtime.create");
          ("runtime.exec_ns_per_event", per_event "runtime.exec");
          ( "runtime.hinted_pct",
            100.0 *. c "runtime.hinted" /. c "runtime.events" );
          ( "runtime.hint_correct_pct",
            100.0
            *. (c "runtime.hinted" -. c "runtime.hinted_wrong")
            /. c "runtime.hinted" );
          ("analyze.considered", c "analyze.considered");
          ("analyze.busy_s", Common.total spans "analyze.run");
          ("analyze.hints", c "analyze.hints");
          ("inject.plan_s", per_call "inject.plan");
          ("inject.dropped", c "inject.dropped");
          ("rombf.train_s", per_call "rombf.train");
          ("rombf.exec_ns_per_event", per_event "rombf.exec");
          ("branchnet.train_s", per_call "branchnet.train");
          ("branchnet.exec_ns_per_event", per_event "branchnet.exec");
        ];
    spans;
  }
