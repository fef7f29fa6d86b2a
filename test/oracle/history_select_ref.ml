(* The seed implementation of [Whisper_core.History_select.decide]:
   per-(length, part) re-scans of the branch's samples into dense count
   tables, scored by the naive Algorithm 1 engine. *)

open Whisper_trace
open Whisper_core
module Algorithm1 = Algorithm1_ref

(* Taken / not-taken count tables for one (branch, length).  [part]
   selects the even or odd half of the samples — the formula is chosen on
   the train half and scored on the held-out half, so hints that merely
   overfit the profile are rejected (cf. the paper's requirement that the
   formula beat the profiled predictor's accuracy). *)
let tables_at profile ~pc ~len_idx ~part =
  let taken = Array.make 256 0 in
  let not_taken = Array.make 256 0 in
  let i = ref 0 in
  Profile.iter_samples profile ~pc
    ~f:(fun ~raw8:_ ~raw56:_ ~hash ~taken:tk ~correct:_ ->
      let keep =
        match part with `Train -> !i land 1 = 0 | `Eval -> !i land 1 = 1
      in
      incr i;
      if keep then begin
        let k = hash len_idx in
        if tk then taken.(k) <- taken.(k) + 1
        else not_taken.(k) <- not_taken.(k) + 1
      end);
  Algorithm1.tables_of_counts ~taken ~not_taken

let search rnd profile ~pc ~len_idx ~candidates ~part =
  let tables = tables_at profile ~pc ~len_idx ~part in
  if Algorithm1.distinct_keys tables = 0 then None
  else
    Some
      (Algorithm1.find tables ~candidates ~truth_of:(Randomized.truth_of rnd))

(* Baseline mispredictions and direction counts over a sample part. *)
let part_stats profile ~pc ~part =
  let mispred = ref 0 and taken = ref 0 and n = ref 0 in
  let i = ref 0 in
  Profile.iter_samples profile ~pc
    ~f:(fun ~raw8:_ ~raw56:_ ~hash:_ ~taken:tk ~correct ->
      let keep =
        match part with `Train -> !i land 1 = 0 | `Eval -> !i land 1 = 1
      in
      incr i;
      if keep then begin
        incr n;
        if not correct then incr mispred;
        if tk then incr taken
      end);
  (!mispred, !taken, !n)

let decide ?min_gain (cfg : Config.t) rnd profile ~pc :
    History_select.choice option =
  let min_gain = Option.value min_gain ~default:cfg.min_sample_gain in
  let n_samples = Profile.n_samples profile ~pc in
  if n_samples < 8 then None
  else begin
    (* Select the whole (bias-or-formula, length) choice on the train
       half, then score only that single winner on the held-out half —
       any selection on the eval half would re-introduce optimism. *)
    let _, train_taken, train_n = part_stats profile ~pc ~part:`Train in
    let train_nt = train_n - train_taken in
    let best = ref (Brhint.Always_taken, 0, 0, train_nt) in
    if train_taken < train_nt then
      best := (Brhint.Never_taken, 0, 0, train_taken);
    for len_idx = 0 to cfg.n_lengths - 1 do
      match
        search rnd profile ~pc ~len_idx
          ~candidates:(Randomized.candidates rnd)
          ~part:`Train
      with
      | None -> ()
      | Some (f, train_m) ->
          let _, _, _, cur = !best in
          if train_m < cur then best := (Brhint.Formula, len_idx, f, train_m)
    done;
    let bias, len_idx, formula_id, _ = !best in
    let eval_baseline, eval_taken, eval_n =
      part_stats profile ~pc ~part:`Eval
    in
    let eval_m =
      match bias with
      | Brhint.Always_taken -> eval_n - eval_taken
      | Brhint.Never_taken -> eval_taken
      | Brhint.Dynamic -> eval_baseline
      | Brhint.Formula ->
          let eval_tables = tables_at profile ~pc ~len_idx ~part:`Eval in
          Algorithm1.mispredictions eval_tables
            ~truth:(Randomized.truth_of rnd formula_id)
    in
    (* marginal hints are the ones that regress on unseen inputs: require
       the win to be a meaningful fraction of the branch's mispredictions *)
    let required = max min_gain ((eval_baseline + 9) / 10) in
    if eval_baseline - eval_m >= required then
      Some
        {
          len_idx;
          formula_id;
          bias;
          sample_mispred = eval_m;
          baseline_mispred = eval_baseline;
          samples = n_samples;
        }
    else None
  end
