open Whisper_util

type t = {
  tables : (int, int) Hashtbl.t array;  (* counter per substream key *)
  base : Bimodal.table;
  sc : Stat_corrector.t;
  hist : History.t;
  folded : History.Folded.t array;
  n : int;
  mutable ctx_pc : int;
  mutable ctx_provider : int;
  mutable ctx_keys : int array;
  mutable ctx_tage_pred : bool;
  mutable ctx_pred : bool;
}

(* SplitMix-style finalizer over (pc, folded-window) for collision-free-in-
   practice substream keys. *)
let mix pc fold =
  let z = (pc * 0x9E3779B1) lxor (fold * 0x85EBCA77) in
  let z = (z lxor (z lsr 31)) * 0xC2B2AE3D in
  (z lxor (z lsr 29)) land max_int

let create ~n_lengths ~max_len =
  let lengths = Geometric.series ~a:8 ~n:max_len ~m:n_lengths in
  {
    tables = Array.map (fun _ -> Hashtbl.create 4096) lengths;
    base = Bimodal.create_table ~log_entries:16;
    sc = Stat_corrector.create ~log_entries:15;
    hist = History.create ~depth:(2 * max_len);
    folded = Array.map (fun len -> History.Folded.create ~len ~chunk:62) lengths;
    n = n_lengths;
    ctx_pc = 0;
    ctx_provider = -1;
    ctx_keys = Array.make n_lengths 0;
    ctx_tage_pred = false;
    ctx_pred = false;
  }

let predict t ~pc =
  t.ctx_pc <- pc;
  for i = 0 to t.n - 1 do
    t.ctx_keys.(i) <- mix pc (History.Folded.value t.folded.(i))
  done;
  let provider = ref (-1) in
  let i = ref (t.n - 1) in
  while !provider < 0 && !i >= 0 do
    if Hashtbl.mem t.tables.(!i) t.ctx_keys.(!i) then provider := !i;
    decr i
  done;
  let pred, conf =
    if !provider >= 0 then begin
      let c = Hashtbl.find t.tables.(!provider) t.ctx_keys.(!provider) in
      let conf =
        match abs ((2 * c) - 7) with 7 | 5 -> `High | 3 -> `Med | _ -> `Low
      in
      (c >= 4, conf)
    end
    else (Bimodal.predict_t t.base ~pc, `Med)
  in
  t.ctx_provider <- !provider;
  t.ctx_tage_pred <- pred;
  let final = Stat_corrector.refine_conf t.sc ~conf ~pc ~tage_pred:pred in
  t.ctx_pred <- final;
  final

let train t ~pc ~taken =
  if pc <> t.ctx_pc then invalid_arg "Mtage.train: mismatch";
  Stat_corrector.train t.sc ~pc ~taken;
  (if t.ctx_provider >= 0 then begin
     let tbl = t.tables.(t.ctx_provider) in
     let key = t.ctx_keys.(t.ctx_provider) in
     let c = Hashtbl.find tbl key in
     Hashtbl.replace tbl key (Counters.update c ~taken ~min:0 ~max:7)
   end
   else Bimodal.update_t t.base ~pc ~taken);
  (* on a misprediction, memorize the substream at the next longer length *)
  if t.ctx_tage_pred <> taken && t.ctx_provider < t.n - 1 then begin
    let j = t.ctx_provider + 1 in
    Hashtbl.replace t.tables.(j) t.ctx_keys.(j) (if taken then 4 else 3)
  end;
  History.push_all t.hist t.folded taken

let spectate t ~taken =
  Stat_corrector.spectate t.sc ~taken;
  History.push_all t.hist t.folded taken

let predictor ?(n_lengths = 9) ?(max_len = 1024) () =
  let t = create ~n_lengths ~max_len in
  {
    Predictor.name = "mtage-sc-unlimited";
    predict = (fun ~pc -> predict t ~pc);
    train = (fun ~pc ~taken -> train t ~pc ~taken);
    spectate = (fun ~pc:_ ~taken -> spectate t ~taken);
    storage_bits = 0;
  }

let exec t ~pc ~taken =
  let pred = predict t ~pc in
  train t ~pc ~taken;
  pred = taken

let compiled ?(n_lengths = 9) ?(max_len = 1024) () =
  {
    Predictor.Compiled.name = "mtage-sc-unlimited";
    storage_bits = 0;
    fill =
      (fun ~arena ~n ~verdicts ->
        let t = create ~n_lengths ~max_len in
        for i = 0 to n - 1 do
          let pc = Whisper_trace.Arena.pc arena i in
          let taken = Whisper_trace.Arena.taken arena i in
          Bytes.unsafe_set verdicts i
            (if exec t ~pc ~taken then '\001' else '\000')
        done);
  }
