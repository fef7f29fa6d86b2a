type t = {
  sizes : Sizes.t;
  tage : Tage.t;
  sc : Stat_corrector.t;
  loop : Loop_pred.t;
  mutable ctx_pc : int;
  mutable ctx_tage_pred : bool;
}

let create sizes =
  {
    sizes;
    tage = Tage.create sizes.Sizes.tage;
    sc = Stat_corrector.create ~log_entries:sizes.Sizes.sc_log;
    loop = Loop_pred.create ~log_entries:sizes.Sizes.loop_log;
    ctx_pc = 0;
    ctx_tage_pred = false;
  }

let storage_bits t = Sizes.total_bits t.sizes

let predict t ~pc =
  let tage_pred = Tage.predict t.tage ~pc in
  let sc_pred =
    Stat_corrector.refine_conf t.sc ~conf:(Tage.confidence t.tage) ~pc
      ~tage_pred
  in
  (* allocation-free on the replay path: no option, no boxed optional *)
  let loop_code = Loop_pred.predict_code t.loop ~pc in
  t.ctx_pc <- pc;
  t.ctx_tage_pred <- tage_pred;
  if loop_code >= 0 then loop_code = 1 else sc_pred

let train t ~pc ~taken =
  if pc <> t.ctx_pc then invalid_arg "Tage_scl.train: mismatch";
  Loop_pred.train t.loop ~pc ~taken
    ~tage_mispredicted:(t.ctx_tage_pred <> taken);
  Stat_corrector.train t.sc ~pc ~taken;
  Tage.train t.tage ~pc ~taken

let spectate t ~pc ~taken =
  Stat_corrector.spectate t.sc ~taken;
  Tage.spectate t.tage ~pc ~taken

let predictor sizes =
  let t = create sizes in
  {
    Predictor.name = Printf.sprintf "tage-scl-%dKB" sizes.Sizes.budget_kb;
    predict = (fun ~pc -> predict t ~pc);
    train = (fun ~pc ~taken -> train t ~pc ~taken);
    spectate = (fun ~pc ~taken -> spectate t ~pc ~taken);
    storage_bits = storage_bits t;
  }

let exec t ~pc ~taken =
  let pred = predict t ~pc in
  train t ~pc ~taken;
  pred = taken

let compiled sizes =
  {
    Predictor.Compiled.name =
      Printf.sprintf "tage-scl-%dKB" sizes.Sizes.budget_kb;
    storage_bits = Sizes.total_bits sizes;
    fill =
      (fun ~arena ~n ~verdicts ->
        let t = create sizes in
        for i = 0 to n - 1 do
          let pc = Whisper_trace.Arena.pc arena i in
          let taken = Whisper_trace.Arena.taken arena i in
          Bytes.unsafe_set verdicts i
            (if exec t ~pc ~taken then '\001' else '\000')
        done);
  }
