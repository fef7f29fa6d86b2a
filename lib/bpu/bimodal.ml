type table = { ctrs : Bytes.t; mask : int }

let create_table ~log_entries =
  if log_entries < 1 || log_entries > 26 then invalid_arg "Bimodal.create_table";
  let n = 1 lsl log_entries in
  { ctrs = Bytes.make n '\001' (* weakly not-taken *); mask = n - 1 }

let index t pc = (pc lsr 2) land t.mask

let predict_t t ~pc = Char.code (Bytes.unsafe_get t.ctrs (index t pc)) >= 2

let update_t t ~pc ~taken =
  let i = index t pc in
  let c = Char.code (Bytes.unsafe_get t.ctrs i) in
  let c = Counters.update c ~taken ~min:0 ~max:3 in
  Bytes.unsafe_set t.ctrs i (Char.unsafe_chr c)

let bits t = 2 * (t.mask + 1)

let make ~log_entries =
  let t = create_table ~log_entries in
  {
    Predictor.name = Printf.sprintf "bimodal-%dk" ((1 lsl log_entries) / 1024);
    predict = (fun ~pc -> predict_t t ~pc);
    train = (fun ~pc ~taken -> update_t t ~pc ~taken);
    spectate = (fun ~pc:_ ~taken:_ -> ());
    storage_bits = bits t;
  }
