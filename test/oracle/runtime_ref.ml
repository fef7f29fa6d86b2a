(* The seed interpretive runtime, the differential oracle for the
   compiled [Whisper_core.Runtime]: per-event [Inject.hints_at] Hashtbl
   lookups, a lazily filled byte truth-table cache, an [Lru]-backed hint
   buffer, and [History.push_all] over every configured length.  Slow,
   allocating, and obviously faithful to the paper's per-event
   protocol — which is exactly what an oracle is for. *)

open Whisper_util
open Whisper_trace
open Whisper_core

type t = {
  base : Whisper_bpu.Predictor.t;
  plan : Inject.t;
  lru : Brhint.t Lru.t;
  hist : History.t;
  folded : History.Folded.t array;
  truths : (int, Bytes.t) Hashtbl.t;
  hash_bits : int;
  mutable b_insert : int;
  mutable b_hit : int;
  mutable b_miss : int;
  mutable n_hinted : int;
  mutable n_hinted_wrong : int;
  mutable n_base : int;
}

let create (cfg : Config.t) ~baseline ~plan =
  let lengths = Config.lengths cfg in
  let max_len = Array.fold_left max 1 lengths in
  {
    base = baseline;
    plan;
    lru = Lru.create ~capacity:cfg.hint_buffer_size;
    hist = History.create ~depth:(2 * max_len);
    folded =
      Array.map
        (fun len -> History.Folded.create ~len ~chunk:cfg.hash_bits)
        lengths;
    truths = Hashtbl.create 256;
    hash_bits = cfg.hash_bits;
    b_insert = 0;
    b_hit = 0;
    b_miss = 0;
    n_hinted = 0;
    n_hinted_wrong = 0;
    n_base = 0;
  }

let truth t id =
  match Hashtbl.find_opt t.truths id with
  | Some b -> b
  | None ->
      let b =
        Whisper_formula.Tree.truth_table
          (Whisper_formula.Tree.of_id ~leaves:t.hash_bits id)
      in
      Hashtbl.add t.truths id b;
      b

let hint_prediction t (h : Brhint.t) =
  match h.bias with
  | Brhint.Always_taken -> Some true
  | Brhint.Never_taken -> Some false
  | Brhint.Dynamic -> None
  | Brhint.Formula ->
      let hash = History.Folded.value t.folded.(h.len_idx) in
      Some (Whisper_formula.Tree.eval_tt (truth t h.formula_id) hash)

let exec_at t ~block ~pc ~taken =
  (* 1. execute any brhints hosted in this block *)
  List.iter
    (fun (p : Inject.placement) ->
      t.b_insert <- t.b_insert + 1;
      ignore (Lru.add t.lru p.branch_pc p.hint))
    (Inject.hints_at t.plan ~block);
  (* 2. predict: hint buffer and dynamic predictor are probed in
     parallel; a hinted branch does not train or allocate in the
     baseline.  [Lru.peek], not [find]: probing is not a use (see
     Hint_buffer's semantics note). *)
  let hinted =
    match Lru.peek t.lru pc with
    | Some h ->
        t.b_hit <- t.b_hit + 1;
        hint_prediction t h
    | None ->
        t.b_miss <- t.b_miss + 1;
        None
  in
  let correct =
    match hinted with
    | Some pred ->
        t.n_hinted <- t.n_hinted + 1;
        t.base.spectate ~pc ~taken;
        let ok = pred = taken in
        if not ok then t.n_hinted_wrong <- t.n_hinted_wrong + 1;
        ok
    | None ->
        t.n_base <- t.n_base + 1;
        let pred = t.base.predict ~pc in
        t.base.train ~pc ~taken;
        pred = taken
  in
  (* 3. advance Whisper's folded-history mirror *)
  History.push_all t.hist t.folded taken;
  correct

let exec t (e : Branch.event) =
  exec_at t ~block:e.Branch.block ~pc:e.pc ~taken:e.taken

let predictor_name t = "whisper+" ^ t.base.name
let hinted_predictions t = t.n_hinted
let hinted_mispredictions t = t.n_hinted_wrong
let baseline_predictions t = t.n_base
let buffer_stats t = (t.b_insert, t.b_hit, t.b_miss)
