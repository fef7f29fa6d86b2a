open Whisper_trace

type choice = {
  len_idx : int;
  formula_id : int;
  bias : Brhint.bias;
  sample_mispred : int;
  baseline_mispred : int;
  samples : int;
}

(* ------------------------------------------------------------------ *)
(* Single-pass tabulation + packed search                             *)
(* ------------------------------------------------------------------ *)

(* [decide] reads each sample record exactly once: one scan of the raw
   profile buffer fills all [n_lengths] count tables for both halves at
   the same time.  Each (length, half, key) cell packs two counters into
   one native int:

     bits  0..30  taken        bits 31..61  not-taken

   Half 0 holds the even (train) samples, half 1 the odd (eval) ones.  A
   field holds up to 2^31 - 1, more samples than a half of any profile
   that fits in memory. *)
(* Stdlib's [Bytes.get_uint16_le] with the bounds check elided — the same
   compiler primitive the stdlib builds it from.  Native byte order; the
   caller guards for little-endian hosts. *)
external unsafe_get_uint16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

type scratch = {
  counts : int array;
      (* n_lengths x 2 x 256 packed counter cells, flattened: the cell of
         length [len], half [half] and key [k] lives at
         [(len lsl 9) lor (half lsl 8) lor k] *)
  mutable incs : int array;  (* per-sample counter increment, grown on demand *)
  alg : Algorithm1.scratch;
}

let scratch (cfg : Config.t) =
  {
    counts = Array.make (cfg.n_lengths lsl 9) 0;
    incs = Array.make 1024 0;
    alg = Algorithm1.scratch ();
  }

let reset_scratch s = Array.fill s.counts 0 (Array.length s.counts) 0
let scratch_clean s = Array.for_all (fun c -> c = 0) s.counts

let poison_scratch s =
  Array.fill s.counts 0 (Array.length s.counts) 0x0101_0101;
  Array.fill s.incs 0 (Array.length s.incs) min_int

(* One cached workspace per domain, reused across branches {e and} across
   [Analyze.run] calls (the persistent-pool scheduler keeps domains
   alive, so the cache actually survives).  [decide] restores the
   all-zero counter invariant before returning, which is what makes
   handing the same buffers to the next branch sound; a cached scratch
   is grown — never shrunk — when a config needs more history lengths. *)
let dls_scratch : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let domain_scratch (cfg : Config.t) =
  let cell = Domain.DLS.get dls_scratch in
  match !cell with
  | Some s when Array.length s.counts >= cfg.n_lengths lsl 9 -> s
  | _ ->
      let s = scratch cfg in
      cell := Some s;
      s

(* Fill [s.counts] plus per-half baseline stats from the raw sample
   records.  Counts must be all-zero on entry (the invariant [decide]
   restores before returning).

   The walk is length-major: one stats pass computes each sample's
   packed counter increment into [s.incs], then each history length
   streams the (L1-resident) record buffer against its own 4 KiB row of
   [counts].  A sample-major walk touches all [nl] rows — the whole 64
   KiB table — per sample, thrashing L1 on every record. *)
let tabulate (s : scratch) (v : Profile.raw_view) ~nl =
  let train_mispred = ref 0
  and train_taken = ref 0
  and train_n = ref 0
  and eval_mispred = ref 0
  and eval_taken = ref 0
  and eval_n = ref 0 in
  let n = v.Profile.n in
  if Array.length s.incs < n then
    s.incs <- Array.make (max n (2 * Array.length s.incs)) 0;
  let incs = s.incs in
  let counts = s.counts in
  let rb = v.Profile.record_bytes in
  let hash_off = v.Profile.hash_off and flags_off = v.Profile.flags_off in
  let buf = v.Profile.buf in
  for i = 0 to n - 1 do
    let flags = Char.code (Bytes.unsafe_get buf ((i * rb) + flags_off)) in
    let tk = flags land 1 in
    let train = i land 1 = 0 in
    if train then begin
      incr train_n;
      train_taken := !train_taken + tk;
      if flags land 2 = 0 then incr train_mispred
    end
    else begin
      incr eval_n;
      eval_taken := !eval_taken + tk;
      if flags land 2 = 0 then incr eval_mispred
    end;
    Array.unsafe_set incs i (1 lsl (31 - (31 * tk)))
  done;
  let l = ref 0 in
  if not Sys.big_endian then
    (* adjacent lengths' hash bytes are adjacent in the record: one
       16-bit load feeds two rows per sample *)
    while !l + 1 < nl do
      let row0 = !l lsl 9 and row1 = (!l + 1) lsl 9 in
      let pos = ref (hash_off + !l) in
      let i = ref 0 in
      (* two samples per iteration — the even (train) one into each row's
         half 0, the odd (eval) one into half 1: four independent row
         updates give the out-of-order core something to overlap *)
      while !i + 1 < n do
        let k2a = unsafe_get_uint16 buf !pos in
        let k2b = unsafe_get_uint16 buf (!pos + rb) in
        pos := !pos + rb + rb;
        let inca = Array.unsafe_get incs !i in
        let incb = Array.unsafe_get incs (!i + 1) in
        i := !i + 2;
        let idx0a = row0 lor (k2a land 0xFF) in
        Array.unsafe_set counts idx0a (Array.unsafe_get counts idx0a + inca);
        let idx1a = row1 lor (k2a lsr 8) in
        Array.unsafe_set counts idx1a (Array.unsafe_get counts idx1a + inca);
        let idx0b = row0 lor 0x100 lor (k2b land 0xFF) in
        Array.unsafe_set counts idx0b (Array.unsafe_get counts idx0b + incb);
        let idx1b = row1 lor 0x100 lor (k2b lsr 8) in
        Array.unsafe_set counts idx1b (Array.unsafe_get counts idx1b + incb)
      done;
      if !i < n then begin
        (* odd [n]: the last sample is a train sample *)
        let k2 = unsafe_get_uint16 buf !pos in
        let inc = Array.unsafe_get incs !i in
        let idx0 = row0 lor (k2 land 0xFF) in
        Array.unsafe_set counts idx0 (Array.unsafe_get counts idx0 + inc);
        let idx1 = row1 lor (k2 lsr 8) in
        Array.unsafe_set counts idx1 (Array.unsafe_get counts idx1 + inc)
      end;
      l := !l + 2
    done;
  while !l < nl do
    let row = !l lsl 9 in
    let pos = ref (hash_off + !l) in
    for i = 0 to n - 1 do
      let k = Char.code (Bytes.unsafe_get buf !pos) in
      pos := !pos + rb;
      let idx = row lor ((i land 1) lsl 8) lor k in
      Array.unsafe_set counts idx
        (Array.unsafe_get counts idx + Array.unsafe_get incs i)
    done;
    incr l
  done;
  ( (!train_mispred, !train_taken, !train_n),
    (!eval_mispred, !eval_taken, !eval_n) )

(* Restore the all-zero invariant by zeroing exactly the cells [tabulate]
   touched: at most as many writes as tabulation made, where filling the
   whole 64 KiB table costs more than the typical decide (profiles keep
   at most 512 samples per branch by default). *)
let untabulate (s : scratch) (v : Profile.raw_view) ~nl =
  let buf = v.Profile.buf and rb = v.Profile.record_bytes in
  for l = 0 to nl - 1 do
    let row = l lsl 9 in
    let pos = ref (v.Profile.hash_off + l) in
    for i = 0 to v.Profile.n - 1 do
      let k = Char.code (Bytes.unsafe_get buf !pos) in
      pos := !pos + rb;
      Array.unsafe_set s.counts (row lor ((i land 1) lsl 8) lor k) 0
    done
  done

(* Compact one half of one length's packed counters into Algorithm-1
   tables, or [None] when the length provably cannot beat [cutoff]. *)
let extract_below (s : scratch) ~len_idx ~half ~cutoff =
  Algorithm1.tables_of_cells_below s.alg ~cells:s.counts
    ~off:((len_idx lsl 9) lor (half lsl 8))
    ~cutoff

let m_decides = Whisper_util.Telemetry.counter "history_select.decides"

let m_floor_skipped =
  Whisper_util.Telemetry.counter "history_select.lengths_floor_skipped"

let h_samples = Whisper_util.Telemetry.histogram "history_select.samples"

let decide ?min_gain ?scratch:sc (cfg : Config.t) rnd profile ~pc =
  let min_gain = Option.value min_gain ~default:cfg.min_sample_gain in
  let nl = cfg.n_lengths in
  if nl > Profile.n_lengths profile then
    invalid_arg "History_select.decide: config wants more lengths than profile";
  match Profile.raw_view profile ~pc with
  | None -> None
  | Some v ->
      if v.Profile.n < 8 then None
      else begin
        let s =
          match sc with
          | Some s ->
              if Array.length s.counts < nl lsl 9 then
                invalid_arg "History_select.decide: scratch too small";
              s
          | None -> scratch cfg
        in
        let (_, train_taken, train_n), (eval_baseline, eval_taken, eval_n) =
          tabulate s v ~nl
        in
        let train_nt = train_n - train_taken in
        (* best = (bias, len_idx, candidate index, formula id, train m) *)
        let best = ref (Brhint.Always_taken, 0, 0, 0, train_nt) in
        if train_taken < train_nt then
          best := (Brhint.Never_taken, 0, 0, 0, train_taken);
        let candidates = Randomized.candidates rnd in
        let packed = Randomized.packed_candidates rnd in
        let floor_skipped = ref 0 in
        for len_idx = 0 to nl - 1 do
          let _, _, _, _, cur = !best in
          (* a length whose irreducible floor meets the running best
             cannot contribute the strict improvement the update below
             requires — extraction skips it exactly *)
          match extract_below s ~len_idx ~half:0 ~cutoff:cur with
          | None -> incr floor_skipped
          | Some tables -> (
              match
                Algorithm1.find_packed_below tables ~candidates ~packed
                  ~cutoff:cur
              with
              | Some (idx, f, train_m) ->
                  best := (Brhint.Formula, len_idx, idx, f, train_m)
              | None -> ())
        done;
        let bias, len_idx, best_idx, formula_id, _ = !best in
        let eval_m =
          match bias with
          | Brhint.Always_taken -> eval_n - eval_taken
          | Brhint.Never_taken -> eval_taken
          | Brhint.Dynamic -> eval_baseline
          | Brhint.Formula -> (
              match extract_below s ~len_idx ~half:1 ~cutoff:max_int with
              | Some eval_tables ->
                  Algorithm1.mispredictions_packed eval_tables
                    ~ptruth:packed.(best_idx)
              | None -> 0 (* no eval samples: matches scoring empty tables *))
        in
        untabulate s v ~nl;
        if Whisper_util.Telemetry.enabled () then begin
          Whisper_util.Telemetry.incr m_decides;
          Whisper_util.Telemetry.add m_floor_skipped !floor_skipped;
          Whisper_util.Telemetry.observe h_samples v.Profile.n
        end;
        let required = max min_gain ((eval_baseline + 9) / 10) in
        if eval_baseline - eval_m >= required then
          Some
            {
              len_idx;
              formula_id;
              bias;
              sample_mispred = eval_m;
              baseline_mispred = eval_baseline;
              samples = v.Profile.n;
            }
        else None
      end
