open Whisper_trace
open Whisper_bpu
module Runner = Whisper_sim.Runner
module Machine = Whisper_pipeline.Machine

let source ctx app ~input =
  App_model.source
    (App_model.create ~cfg:(Runner.cfg_of ctx app) ~config:app ~input ())

let profile ?(inputs = [ 0 ]) ?baseline_kb ctx app =
  let kb = Option.value baseline_kb ~default:(Runner.baseline_kb ctx) in
  let one input =
    Profile.collect ~lengths:Workloads.lengths ~events:(Runner.events ctx)
      ~make_source:(fun () -> source ctx app ~input)
      ~make_predictor:(Runner.lbr_predictor kb) ()
  in
  match inputs with
  | [ input ] -> one input
  | inputs -> Profile.merge (List.map one inputs)

let predict_train (p : Predictor.t) (e : Branch.event) =
  let pred = p.predict ~pc:e.pc in
  p.train ~pc:e.pc ~taken:e.taken;
  pred = e.taken

let exec ?profile:prof ctx app technique ~train_inputs ~kb =
  let prof () =
    match prof with
    | Some p -> p
    | None -> profile ~inputs:train_inputs ~baseline_kb:kb ctx app
  in
  let baseline = Tage_scl.predictor (Sizes.for_budget ~kb) in
  match (technique : Runner.technique) with
  | Baseline -> predict_train baseline
  | Ideal -> fun _ -> true
  | Mtage_sc -> predict_train (Mtage.predictor ())
  | Rombf n ->
      let module R = Whisper_rombf.Rombf in
      R.Runtime.exec (R.Runtime.create (R.train ~n (prof ())) ~baseline)
  | Branchnet budget ->
      let module B = Whisper_branchnet.Branchnet in
      B.Runtime.exec (B.Runtime.create (B.train ~budget (prof ())) ~baseline)
  | Whisper config ->
      let open Whisper_core in
      let cfg = Runner.cfg_of ctx app in
      let analysis = Analyze.run ~config (prof ()) in
      let plan =
        Inject.plan config cfg
          ~source:(source ctx app ~input:(List.hd train_inputs))
          ~hints:(Analyze.to_inject_hints analysis cfg)
      in
      Runtime.exec (Runtime.create config ~baseline ~plan)

let run ?(train_inputs = [ 0 ]) ?(test_input = 1) ?baseline_kb ?profile ctx
    app technique =
  let kb = Option.value baseline_kb ~default:(Runner.baseline_kb ctx) in
  Machine.run ~events:(Runner.events ctx)
    ~source:(source ctx app ~input:test_input)
    ~predict:(exec ?profile ctx app technique ~train_inputs ~kb)
    ()

let run_batch ~jobs ctx app techniques =
  let trains = function
    | Runner.Rombf _ | Branchnet _ | Whisper _ -> true
    | Baseline | Ideal | Mtage_sc -> false
  in
  let profile =
    if List.exists trains techniques then Some (profile ctx app) else None
  in
  Whisper_util.Pool.map ~jobs
    (fun t -> run ?profile ctx app t)
    (Array.of_list techniques)
  |> Array.to_list
  |> List.map (function Ok r -> r | Error e -> raise e)

module Algorithm1 = Algorithm1_ref
module History_select = History_select_ref
module Runtime = Runtime_ref
module Cache = Cache_ref
