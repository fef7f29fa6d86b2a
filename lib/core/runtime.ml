open Whisper_util
open Whisper_trace

(* The plan is compiled once at [create] into flat arrays; the per-event
   path then touches no Hashtbl, no list, no option and allocates
   nothing:

   - [index]/[e_pc] are the plan's CSR view ({!Inject.Packed}): the
     brhints hosted by a block are a contiguous entry range, found by
     two array reads;
   - [bank] is the dense truth-table bank: every distinct formula in the
     plan becomes one [words_per_table]-word packed table, with the
     Always/Never biases folded in as constant all-ones/all-zeros
     tables, so a hinted prediction is a single
     {!Whisper_formula.Tree.eval_packed_at} bit test.  [e_off] maps an
     entry to its table's word offset, with [-1] reserved for the
     Dynamic bias (predict-dynamically hints fall through to the
     baseline path, which no table can express);
   - [folds] holds folded-history registers for only the lengths the
     plan's formulas actually reference ([e_fold] maps entries to
     register slots), so the per-event history step updates a handful of
     registers instead of all [Config.n_lengths];
   - the hint buffer stores the entry index as its payload, so a probe
     hit returns everything the prediction needs as one non-negative
     int. *)
type t = {
  base : Whisper_bpu.Predictor.t;
  max_host : int;
  index : int array;
  e_pc : int array;
  e_off : int array;
  e_fold : int array;
  bank : int array;
  buf : Hint_buffer.t;
  hist : History.t;
  folds : History.Folded.t array;
  mutable n_hinted : int;
  mutable n_hinted_wrong : int;
  mutable n_base : int;
}

let word_ones = (1 lsl 32) - 1

let create (cfg : Config.t) ~baseline ~plan =
  let lengths = Config.lengths cfg in
  let max_len = Array.fold_left max 1 lengths in
  let hash_bits = cfg.hash_bits in
  let words_per_table = ((1 lsl hash_bits) + 31) lsr 5 in
  let packed = Inject.Packed.of_plan plan in
  let n = Inject.Packed.n_entries packed in
  let encoded = Inject.Packed.hint packed in
  let hints = Array.map Brhint.decode encoded in
  (* folded registers for only the lengths formula hints reference; a
     plan with bias-only hints still gets one register so the shared
     e_fold = 0 slot of constant-table entries stays in range *)
  let len_used = Array.make (Array.length lengths) false in
  Array.iter
    (fun (h : Brhint.t) ->
      if h.bias = Brhint.Formula then len_used.(h.len_idx) <- true)
    hints;
  if n > 0 && not (Array.exists Fun.id len_used) then len_used.(0) <- true;
  let fold_slot = Array.make (Array.length lengths) 0 in
  let used = ref [] in
  Array.iteri
    (fun i u ->
      if u then begin
        fold_slot.(i) <- List.length !used;
        used := lengths.(i) :: !used
      end)
    len_used;
  let folds =
    Array.map
      (fun len -> History.Folded.create ~len ~chunk:hash_bits)
      (Array.of_list (List.rev !used))
  in
  (* truth-table bank: one table per distinct formula id, plus shared
     constant tables for the Always/Never biases *)
  let table_key (h : Brhint.t) =
    match h.bias with
    | Brhint.Formula -> h.formula_id
    | Brhint.Always_taken -> -1
    | Brhint.Never_taken -> -2
    | Brhint.Dynamic -> min_int
  in
  let offsets = Hashtbl.create 64 in
  let n_tables = ref 0 in
  Array.iter
    (fun h ->
      let key = table_key h in
      if key > min_int && not (Hashtbl.mem offsets key) then begin
        Hashtbl.add offsets key (!n_tables * words_per_table);
        incr n_tables
      end)
    hints;
  let bank = Array.make (max 1 (!n_tables * words_per_table)) 0 in
  Hashtbl.iter
    (fun key off ->
      match key with
      | -1 -> Array.fill bank off words_per_table word_ones
      | -2 -> ()
      | id ->
          Array.blit
            (Whisper_formula.Tree.packed_truth_table
               (Whisper_formula.Tree.of_id ~leaves:hash_bits id))
            0 bank off words_per_table)
    offsets;
  let e_off =
    Array.map
      (fun h ->
        let key = table_key h in
        if key = min_int then -1 else Hashtbl.find offsets key)
      hints
  in
  let e_fold =
    Array.map
      (fun (h : Brhint.t) ->
        if h.bias = Brhint.Formula then fold_slot.(h.len_idx) else 0)
      hints
  in
  {
    base = baseline;
    max_host = Inject.Packed.max_host packed;
    index = Inject.Packed.index packed;
    e_pc = Inject.Packed.branch_pc packed;
    e_off;
    e_fold;
    bank;
    buf = Hint_buffer.create ~size:cfg.hint_buffer_size;
    hist = History.create ~depth:(2 * max_len);
    folds;
    n_hinted = 0;
    n_hinted_wrong = 0;
    n_base = 0;
  }

let baseline_predict t ~pc ~taken =
  t.n_base <- t.n_base + 1;
  let pred = t.base.Whisper_bpu.Predictor.predict ~pc in
  t.base.train ~pc ~taken;
  pred = taken

let exec_at t ~block ~pc ~taken =
  (* 1. execute any brhints hosted in this block: a contiguous CSR entry
     range, each deposited into the hint buffer as its entry index *)
  if block <= t.max_host then begin
    let lo = Array.unsafe_get t.index block in
    let hi = Array.unsafe_get t.index (block + 1) in
    for e = lo to hi - 1 do
      Hint_buffer.insert t.buf ~branch_pc:(Array.unsafe_get t.e_pc e) e
    done
  end;
  (* 2. predict: a probe hit is the entry index; its precompiled table
     offset resolves the hint with one bit test (off = -1 marks the
     Dynamic bias, which falls through to the baseline like a miss) *)
  let e = Hint_buffer.probe t.buf ~branch_pc:pc in
  let correct =
    if e >= 0 then begin
      let off = Array.unsafe_get t.e_off e in
      if off >= 0 then begin
        t.n_hinted <- t.n_hinted + 1;
        t.base.spectate ~pc ~taken;
        let hash =
          History.Folded.value
            (Array.unsafe_get t.folds (Array.unsafe_get t.e_fold e))
        in
        let pred = Whisper_formula.Tree.eval_packed_at t.bank ~off hash in
        let ok = pred = taken in
        if not ok then t.n_hinted_wrong <- t.n_hinted_wrong + 1;
        ok
      end
      else baseline_predict t ~pc ~taken
    end
    else baseline_predict t ~pc ~taken
  in
  (* 3. advance the folded-history mirror — only the registers the plan
     reads, then the shared outcome ring *)
  let folds = t.folds in
  for j = 0 to Array.length folds - 1 do
    History.Folded.update (Array.unsafe_get folds j) ~history:t.hist
      ~newest:taken
  done;
  History.push t.hist taken;
  correct

let exec t (e : Branch.event) =
  exec_at t ~block:e.Branch.block ~pc:e.pc ~taken:e.taken

let exec_arena t ~arena i =
  exec_at t ~block:(Arena.block arena i) ~pc:(Arena.pc arena i)
    ~taken:(Arena.taken arena i)

let predictor_name t = "whisper+" ^ t.base.name
let hinted_predictions t = t.n_hinted
let hinted_mispredictions t = t.n_hinted_wrong
let baseline_predictions t = t.n_base
let buffer t = t.buf

let buffer_stats t =
  (Hint_buffer.insertions t.buf, Hint_buffer.hits t.buf, Hint_buffer.misses t.buf)
