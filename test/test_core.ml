(* Tests for whisper_core: config, brhint encoding, Algorithm 1,
   randomized formula testing, history selection, hint buffer, injection,
   the run-time hybrid and the misprediction classifier. *)

open Whisper_trace
open Whisper_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_table3 () =
  let c = Config.default in
  check_int "a" 8 c.min_len;
  check_int "N" 1024 c.max_len;
  check_int "m" 16 c.n_lengths;
  check_int "hash bits" 8 c.hash_bits;
  check_int "hint buffer" 32 c.hint_buffer_size;
  Alcotest.(check (float 1e-9)) "explore" 0.001 c.explore_frac

let test_config_lengths () =
  let ls = Config.lengths Config.default in
  check_int "16 terms" 16 (Array.length ls);
  check_int "starts at 8" 8 ls.(0);
  check_int "ends at 1024" 1024 ls.(15)

let test_config_explore_count () =
  check_int "0.1% of 32768, floored at 32" 33
    (Config.explore_count Config.default);
  check_int "full space"
    32768
    (Config.explore_count { Config.default with explore_frac = 1.0 })

(* ------------------------------------------------------------------ *)
(* Brhint                                                             *)
(* ------------------------------------------------------------------ *)

let test_brhint_roundtrip_exhaustive_fields () =
  List.iter
    (fun bias ->
      let h =
        Brhint.make ~len_idx:13 ~formula_id:0x5A5A ~bias ~pc_offset:0xABC
      in
      Alcotest.(check bool) "roundtrip" true (Brhint.decode (Brhint.encode h) = h))
    [ Brhint.Formula; Brhint.Always_taken; Brhint.Never_taken; Brhint.Dynamic ]

let qcheck_brhint_roundtrip =
  QCheck.Test.make ~name:"brhint encode/decode roundtrip" ~count:500
    QCheck.(
      quad (int_bound 15) (int_bound 32767) (int_bound 3) (int_bound 4095))
    (fun (len_idx, formula_id, bias_c, pc_offset) ->
      let h =
        Brhint.make ~len_idx ~formula_id
          ~bias:(Brhint.bias_of_code bias_c)
          ~pc_offset
      in
      Brhint.decode (Brhint.encode h) = h)

let test_brhint_bits () =
  check_int "33 bits (4+15+2+12)" 33 Brhint.encoded_bits;
  let h =
    Brhint.make ~len_idx:15 ~formula_id:0x7FFF ~bias:Brhint.Dynamic
      ~pc_offset:0xFFF
  in
  check_bool "fits" true (Brhint.encode h < 1 lsl 33)

let test_brhint_invalid () =
  Alcotest.check_raises "len" (Invalid_argument "Brhint.make: len_idx")
    (fun () ->
      ignore
        (Brhint.make ~len_idx:16 ~formula_id:0 ~bias:Brhint.Formula ~pc_offset:0));
  Alcotest.check_raises "formula" (Invalid_argument "Brhint.make: formula_id")
    (fun () ->
      ignore
        (Brhint.make ~len_idx:0 ~formula_id:32768 ~bias:Brhint.Formula
           ~pc_offset:0))

let test_brhint_branch_pc () =
  let h = Brhint.make ~len_idx:0 ~formula_id:0 ~bias:Brhint.Formula ~pc_offset:10 in
  check_int "pc pointer" (0x1000 + 40) (Brhint.branch_pc h ~hint_addr:0x1000)

(* ------------------------------------------------------------------ *)
(* Algorithm 1                                                        *)
(* ------------------------------------------------------------------ *)

let mk_tables assocs =
  let taken = Array.make 256 0 and not_taken = Array.make 256 0 in
  List.iter
    (fun (k, t, nt) ->
      taken.(k) <- t;
      not_taken.(k) <- nt)
    assocs;
  Algorithm1.tables_of_counts ~taken ~not_taken

let test_algorithm1_counts () =
  let t = mk_tables [ (3, 5, 1); (200, 0, 7) ] in
  check_int "distinct" 2 (Algorithm1.distinct_keys t);
  let tk, ntk = Algorithm1.tables_total t in
  check_int "taken total" 5 tk;
  check_int "not-taken total" 8 ntk;
  check_int "always mispredicts NT samples" 8 (Algorithm1.always_mispredictions t);
  check_int "never mispredicts T samples" 5 (Algorithm1.never_mispredictions t)

let test_algorithm1_scoring () =
  (* key 0xFF is taken 10 times; key 0x00 not-taken 10 times.  The all-And
     conjunction separates them perfectly. *)
  let t = mk_tables [ (0xFF, 10, 0); (0x00, 0, 10) ] in
  let conj = Whisper_formula.Tree.all_ops Whisper_formula.Op.And ~leaves:8 in
  check_int "perfect formula" 0
    (Algorithm1.mispredictions_packed t
       ~ptruth:(Whisper_formula.Tree.packed_truth_table conj));
  (* the all-Or disjunction predicts taken for 0xFF (ok) and for any
     nonzero key; 0x00 evaluates false -> also correct here *)
  let disj = Whisper_formula.Tree.all_ops Whisper_formula.Op.Or ~leaves:8 in
  check_int "disjunction also works" 0
    (Algorithm1.mispredictions_packed t
       ~ptruth:(Whisper_formula.Tree.packed_truth_table disj))

let packed_of candidates =
  Array.map
    (fun id ->
      Whisper_formula.Tree.packed_truth_table
        (Whisper_formula.Tree.of_id ~leaves:8 id))
    candidates

let test_algorithm1_find_minimum () =
  (* taken iff bit0 & bit1 with bits 2..7 at zero.  Build a read-once tree
     that computes b0 && b1 on those keys:
       Or( And( And(b0,b1), Imp(b2,b3) ), And( And(b4,b5), And(b6,b7) ) )
     (Imp(0,0) is true, the right conjunct is false). *)
  let t = mk_tables [ (0b11, 20, 0); (0b01, 0, 20); (0b10, 0, 20); (0, 0, 20) ] in
  let conj =
    Whisper_formula.(
      Tree.make
        ~ops:[| Op.Or; Op.And; Op.And; Op.And; Op.Imp; Op.And; Op.And |]
        ~inverted:false)
  in
  let disj = Whisper_formula.Tree.all_ops Whisper_formula.Op.Or ~leaves:8 in
  let candidates =
    [| Whisper_formula.Tree.to_id disj; Whisper_formula.Tree.to_id conj |]
  in
  let _, f, m =
    Algorithm1.find_packed t ~candidates ~packed:(packed_of candidates)
  in
  check_int "conjunction wins" (Whisper_formula.Tree.to_id conj) f;
  check_int "zero mispredictions" 0 m

let test_algorithm1_empty_candidates () =
  let t = mk_tables [ (1, 1, 0) ] in
  Alcotest.check_raises "empty" (Invalid_argument "Algorithm1.find_packed")
    (fun () -> ignore (Algorithm1.find_packed t ~candidates:[||] ~packed:[||]))

(* brute-force reference implementation of Algorithm 1: the packed
   engine and the naive oracle must both reach the brute-force minimum *)
let qcheck_algorithm1_matches_bruteforce =
  QCheck.Test.make ~name:"Algorithm1.find matches brute force" ~count:50
    QCheck.(
      pair (list_of_size (Gen.int_range 1 20) (triple (int_bound 255) (int_bound 9) (int_bound 9)))
        (int_bound 1000))
    (fun (assocs, seed) ->
      let taken = Array.make 256 0 and not_taken = Array.make 256 0 in
      List.iter
        (fun (k, t, nt) ->
          taken.(k) <- taken.(k) + t;
          not_taken.(k) <- not_taken.(k) + nt)
        assocs;
      let tables = Algorithm1.tables_of_counts ~taken ~not_taken in
      let rng = Whisper_util.Rng.create seed in
      let candidates =
        Array.init 8 (fun _ -> Whisper_util.Rng.int rng 32768)
      in
      let truth_of id =
        Whisper_formula.Tree.truth_table (Whisper_formula.Tree.of_id ~leaves:8 id)
      in
      let _, _, m =
        Algorithm1.find_packed tables ~candidates ~packed:(packed_of candidates)
      in
      let _, m_naive =
        Whisper_oracle.Algorithm1.find
          (Whisper_oracle.Algorithm1.tables_of_counts ~taken ~not_taken)
          ~candidates ~truth_of
      in
      let brute =
        Array.fold_left
          (fun acc id ->
            let truth = truth_of id in
            let s = ref 0 in
            for k = 0 to 255 do
              if Whisper_formula.Tree.eval_tt truth k then s := !s + not_taken.(k)
              else s := !s + taken.(k)
            done;
            min acc !s)
          max_int candidates
      in
      m = brute && m_naive = brute)

(* ------------------------------------------------------------------ *)
(* Randomized                                                         *)
(* ------------------------------------------------------------------ *)

let test_randomized_candidate_count () =
  let r = Randomized.create Config.default in
  check_int "0.1% of the space" 33 (Array.length (Randomized.candidates r));
  check_int "space" 32768 (Randomized.space r)

let test_randomized_permutation_property () =
  let r =
    Randomized.create { Config.default with explore_frac = 1.0 }
  in
  let c = Randomized.candidates r in
  check_int "full space" 32768 (Array.length c);
  let seen = Array.make 32768 false in
  Array.iter (fun id -> seen.(id) <- true) c;
  check_bool "is a permutation" true (Array.for_all Fun.id seen)

let test_randomized_deterministic () =
  let a = Randomized.create Config.default in
  let b = Randomized.create Config.default in
  Alcotest.(check (array int))
    "same seed, same order" (Randomized.candidates a) (Randomized.candidates b);
  let c = Randomized.create { Config.default with seed = 1 } in
  check_bool "different seed differs" true
    (Randomized.candidates a <> Randomized.candidates c)

let test_randomized_classic_family () =
  let r = Randomized.create { Config.default with ops = `Classic } in
  check_int "classic space" 128 (Randomized.space r);
  Array.iter
    (fun id ->
      check_bool "decodes to classic tree" true
        (Whisper_formula.Tree.is_classic (Randomized.tree_of r id)))
    (Randomized.candidates r)

let test_randomized_truth_cache () =
  let r = Randomized.create Config.default in
  let id = (Randomized.candidates r).(0) in
  let a = Randomized.truth_of r id and b = Randomized.truth_of r id in
  check_bool "cached table is shared" true (a == b)

let test_randomized_shared_slices () =
  (* the candidate prefix and its packed truth tables are frozen at
     create: every call hands back the same physical arrays, so the
     domain-parallel search shares them instead of copying per worker *)
  let r = Randomized.create Config.default in
  check_bool "candidates array is shared" true
    (Randomized.candidates r == Randomized.candidates r);
  check_bool "packed tables are shared" true
    (Randomized.packed_candidates r == Randomized.packed_candidates r)

(* ------------------------------------------------------------------ *)
(* History_select                                                     *)
(* ------------------------------------------------------------------ *)

(* Build a synthetic profile where one branch follows a known formula of
   the hash at a known length index. *)
let synthetic_profile ~n ~gen =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  for i = 0 to n - 1 do
    let raw8, hashes, taken, correct = gen i in
    Profile.record_event p ~pc:0x4000 ~taken ~correct ~instrs:8;
    Profile.add_sample p ~pc:0x4000 ~raw8 ~hashes ~taken ~correct
  done;
  p

let test_decide_finds_planted_formula () =
  let rng = Whisper_util.Rng.create 7 in
  let planted = Whisper_formula.Tree.all_ops Whisper_formula.Op.And ~leaves:8 in
  let tt = Whisper_formula.Tree.truth_table planted in
  let len_idx = 5 in
  let p =
    synthetic_profile ~n:400 ~gen:(fun _ ->
        let hashes =
          Array.init 16 (fun _ -> Whisper_util.Rng.int rng 256)
        in
        let taken = Whisper_formula.Tree.eval_tt tt hashes.(len_idx) in
        (* baseline is right only half the time *)
        (hashes.(0) land 0xFF, hashes, taken, Whisper_util.Rng.bool rng))
  in
  (* ensure the planted conjunction is among the tested formulas *)
  let config = { Config.default with explore_frac = 1.0 } in
  let rnd = Randomized.create config in
  match History_select.decide config rnd p ~pc:0x4000 with
  | None -> Alcotest.fail "expected a hint"
  | Some choice ->
      check_bool "formula hint" true (choice.bias = Brhint.Formula);
      check_int "planted length" len_idx choice.len_idx;
      check_int "no mispredictions" 0 choice.sample_mispred

let test_decide_prefers_bias_for_constant () =
  let rng = Whisper_util.Rng.create 8 in
  let p =
    synthetic_profile ~n:200 ~gen:(fun _ ->
        let hashes = Array.init 16 (fun _ -> Whisper_util.Rng.int rng 256) in
        (0, hashes, true, Whisper_util.Rng.bool rng))
  in
  let rnd = Randomized.create Config.default in
  match History_select.decide Config.default rnd p ~pc:0x4000 with
  | None -> Alcotest.fail "expected a hint"
  | Some choice ->
      check_bool "always-taken bias" true (choice.bias = Brhint.Always_taken);
      check_int "perfect" 0 choice.sample_mispred

let test_decide_rejects_random_branch () =
  let rng = Whisper_util.Rng.create 9 in
  let p =
    synthetic_profile ~n:400 ~gen:(fun _ ->
        let hashes = Array.init 16 (fun _ -> Whisper_util.Rng.int rng 256) in
        (* outcome is a fair coin; baseline is right 60% of the time *)
        ( Whisper_util.Rng.int rng 256,
          hashes,
          Whisper_util.Rng.bool rng,
          Whisper_util.Rng.bernoulli rng 0.6 ))
  in
  let rnd = Randomized.create Config.default in
  check_bool "no hint for noise" true
    (History_select.decide Config.default rnd p ~pc:0x4000 = None)

let test_decide_no_samples () =
  let p = Profile.create_empty ~lengths:Workloads.lengths () in
  let rnd = Randomized.create Config.default in
  check_bool "no samples, no hint" true
    (History_select.decide Config.default rnd p ~pc:0x9999 = None)

let test_decide_wide_counts () =
  (* sample counts around and far above what a 16-bit counter field
     holds.  At length 5, 80% of the samples share one key, on which the
     first default candidate is true, and the rest share one on which it
     is false; the branch follows that candidate with 12% noise.  Length
     0 puts every sample into one key, whose taken count is what a
     narrow field would wrap: length 0 would then undercut length 5's
     score and win. *)
  let config = Config.default in
  let rnd = Randomized.create config in
  let planted =
    Whisper_formula.Tree.truth_table
      (Randomized.tree_of rnd (Randomized.candidates rnd).(0))
  in
  let key_where v =
    Option.get
      (List.find_opt
         (fun k -> Whisper_formula.Tree.eval_tt planted k = v)
         (List.init 256 Fun.id))
  in
  let heavy = key_where true and light = key_where false in
  let scratch = History_select.scratch config in
  List.iter
    (fun n ->
      let rng = Whisper_util.Rng.create n in
      let p =
        synthetic_profile ~n ~gen:(fun _ ->
            let hashes =
              Array.init 16 (fun l ->
                  match l with
                  | 0 -> 0x5A
                  | 5 ->
                      if Whisper_util.Rng.bernoulli rng 0.8 then heavy
                      else light
                  | _ -> Whisper_util.Rng.int rng 256)
            in
            let taken =
              Whisper_formula.Tree.eval_tt planted hashes.(5)
              <> Whisper_util.Rng.bernoulli rng 0.12
            in
            (hashes.(0), hashes, taken, Whisper_util.Rng.bernoulli rng 0.6))
      in
      let got = History_select.decide ~scratch config rnd p ~pc:0x4000 in
      let want = Whisper_oracle.History_select.decide config rnd p ~pc:0x4000 in
      check_bool (Printf.sprintf "%d samples: equals the oracle" n) true
        (got = want);
      check_bool (Printf.sprintf "%d samples: formula hint" n) true
        (match got with
        | Some c -> c.bias = Brhint.Formula && c.samples = n
        | None -> false);
      check_bool (Printf.sprintf "%d samples: scratch clean" n) true
        (History_select.scratch_clean scratch))
    [ 32_767; 32_768; 65_537; 200_001 ]

(* ------------------------------------------------------------------ *)
(* Hint buffer                                                        *)
(* ------------------------------------------------------------------ *)

let some_hint =
  Brhint.make ~len_idx:1 ~formula_id:42 ~bias:Brhint.Formula ~pc_offset:9

let test_hint_buffer_basics () =
  let b = Hint_buffer.create ~size:2 in
  check_int "size" 2 (Hint_buffer.size b);
  Hint_buffer.insert b ~branch_pc:100 7;
  check_int "hit payload" 7 (Hint_buffer.probe b ~branch_pc:100);
  check_int "miss sentinel" Hint_buffer.miss (Hint_buffer.probe b ~branch_pc:200);
  check_bool "miss is negative" true (Hint_buffer.miss < 0);
  check_int "hits" 1 (Hint_buffer.hits b);
  check_int "misses" 1 (Hint_buffer.misses b);
  check_int "insertions" 1 (Hint_buffer.insertions b);
  Alcotest.check_raises "negative payload rejected"
    (Invalid_argument "Intlru.insert: negative payload") (fun () ->
      Hint_buffer.insert b ~branch_pc:5 (-3))

let test_hint_buffer_hint_roundtrip () =
  let b = Hint_buffer.create ~size:4 in
  Hint_buffer.insert_hint b ~branch_pc:0x4010 some_hint;
  (match Hint_buffer.probe_hint b ~branch_pc:0x4010 with
  | Some h -> check_bool "decoded hint" true (h = some_hint)
  | None -> Alcotest.fail "expected a hit");
  check_bool "decode miss" true (Hint_buffer.probe_hint b ~branch_pc:1 = None)

let test_hint_buffer_eviction () =
  let b = Hint_buffer.create ~size:2 in
  Hint_buffer.insert b ~branch_pc:1 10;
  Hint_buffer.insert b ~branch_pc:2 20;
  Hint_buffer.insert b ~branch_pc:3 30;
  check_int "oldest evicted" Hint_buffer.miss (Hint_buffer.probe b ~branch_pc:1);
  check_int "newest present" 30 (Hint_buffer.probe b ~branch_pc:3);
  check_int "len" 2 (Hint_buffer.length b)

(* Eviction-order pinning: the buffer is ordered by hint execution.
   Re-inserting (re-executing the brhint) refreshes an entry's position
   and updates its payload... *)
let test_hint_buffer_reinsert_refreshes () =
  let b = Hint_buffer.create ~size:2 in
  Hint_buffer.insert b ~branch_pc:1 10;
  Hint_buffer.insert b ~branch_pc:2 20;
  Hint_buffer.insert b ~branch_pc:1 11;
  (* execution order is now [2; 1], so adding a third key evicts 2 *)
  Hint_buffer.insert b ~branch_pc:3 30;
  check_int "refreshed entry survives" 11 (Hint_buffer.probe b ~branch_pc:1);
  check_int "stale entry evicted" Hint_buffer.miss
    (Hint_buffer.probe b ~branch_pc:2)

(* ...while probing (predicting the covered branch) never does. *)
let test_hint_buffer_probe_does_not_refresh () =
  let b = Hint_buffer.create ~size:2 in
  Hint_buffer.insert b ~branch_pc:1 10;
  Hint_buffer.insert b ~branch_pc:2 20;
  check_int "probe sees 1" 10 (Hint_buffer.probe b ~branch_pc:1);
  Hint_buffer.insert b ~branch_pc:3 30;
  check_int "probe is not a use" Hint_buffer.miss
    (Hint_buffer.probe b ~branch_pc:1);
  check_int "unprobed newer entry survives" 20
    (Hint_buffer.probe b ~branch_pc:2)

(* ------------------------------------------------------------------ *)
(* Inject + Runtime, end to end on a tiny app                         *)
(* ------------------------------------------------------------------ *)

let tiny_app () : Workloads.config =
  {
    name = "tiny-core";
    seed = 77;
    family = Workloads.Datacenter;
    functions = 24;
    blocks_per_fn = (3, 6);
    instrs_per_block = (4, 8);
    session_types = 8;
    session_len = (2, 4);
    repeats = (1, 3);
    func_zipf = 0.6;
    session_zipf = 0.7;
    mix =
      {
        always = 0.4;
        never = 0.3;
        bias = 0.0;
        loop = 0.0;
        short_f = 0.0;
        ctx = 0.0;
        hashed = 0.3;
        parity = 0.0;
        random = 0.0;
      };
    noise = 0.0;
    hashed_len_weights = Array.make 16 1.0;
    bias_range = (0.97, 0.99);
    random_range = (0.4, 0.6);
    loop_range = (2, 8);
    parity_len = (8, 16);
  }

let profile_of app ~events =
  let cfg = Workloads.build_cfg app in
  let prof =
    Profile.collect ~min_mispred:2 ~lengths:Workloads.lengths ~events
      ~make_source:(fun () ->
        App_model.source (App_model.create ~cfg ~config:app ~input:0 ()))
      ~make_predictor:(fun () ->
        let p = Whisper_bpu.Bimodal.make ~log_entries:10 in
        fun ~pc ~taken ->
          let pred = p.Whisper_bpu.Predictor.predict ~pc in
          p.train ~pc ~taken;
          pred = taken)
      ()
  in
  (cfg, prof)

(* ------------------------------------------------------------------ *)
(* Optimized pipeline vs seed reference                               *)
(* ------------------------------------------------------------------ *)

let test_decide_matches_reference () =
  (* the packed single-pass decide must agree with the retained seed
     implementation on every candidate branch of a real profile *)
  let app = tiny_app () in
  let _, prof = profile_of app ~events:40_000 in
  let config = Config.default in
  let rnd = Randomized.create config in
  let scratch = History_select.scratch config in
  let pcs = Profile.candidates prof in
  check_bool "profile has candidate branches" true (Array.length pcs > 0);
  Array.iter
    (fun pc ->
      let opt = History_select.decide ~scratch config rnd prof ~pc in
      let ref_ = Whisper_oracle.History_select.decide config rnd prof ~pc in
      check_bool (Printf.sprintf "choice at pc 0x%x" pc) true (opt = ref_))
    pcs

let test_parallel_analysis_deterministic () =
  (* fanning the per-branch searches over the chunk-claiming scheduler
     must not change a single decision — serialized plans are
     byte-identical for any -j, and for an explicitly supplied pool *)
  let app = tiny_app () in
  let cfg, prof = profile_of app ~events:40_000 in
  let a1 = Analyze.run ~jobs:1 prof in
  let plan_bytes (a : Analyze.t) =
    let plan =
      Inject.plan Config.default cfg
        ~source:
          (App_model.source (App_model.create ~cfg ~config:app ~input:0 ()))
        ~hints:(Analyze.to_inject_hints a cfg)
    in
    Plan_io.to_bytes plan
  in
  let bytes1 = plan_bytes a1 in
  List.iter
    (fun jobs ->
      let aj = Analyze.run ~jobs prof in
      check_bool (Printf.sprintf "identical decisions for j1 and j%d" jobs)
        true
        (a1.Analyze.decisions = aj.Analyze.decisions);
      check_bool
        (Printf.sprintf "byte-identical serialized plan at j%d" jobs)
        true
        (Bytes.equal bytes1 (plan_bytes aj)))
    [ 2; 4 ];
  let pool = Whisper_util.Pool.create ~jobs:3 () in
  let ap = Analyze.run ~pool prof in
  check_bool "identical decisions on an explicit pool" true
    (a1.Analyze.decisions = ap.Analyze.decisions);
  Whisper_util.Pool.shutdown pool

let test_analysis_pool_reuse () =
  (* the point of the persistent scheduler: consecutive analyses reuse
     one pool (and each domain's scratch) without any cross-call state
     leaking into the decisions, and the pool stays serviceable *)
  let app = tiny_app () in
  let _, prof = profile_of app ~events:40_000 in
  let a1 = Analyze.run ~jobs:1 prof in
  let pool = Whisper_util.Pool.create ~jobs:2 () in
  for i = 1 to 3 do
    let a = Analyze.run ~jobs:3 ~pool prof in
    check_bool (Printf.sprintf "reused-pool run %d matches sequential" i)
      true
      (a1.Analyze.decisions = a.Analyze.decisions)
  done;
  let fut = Whisper_util.Pool.submit pool (fun () -> 9) in
  check_bool "pool still serviceable after analyses" true
    (Whisper_util.Pool.await fut = Ok 9);
  Whisper_util.Pool.shutdown pool

let test_scratch_reuse_sound () =
  (* domain-local scratch reuse is only sound because decide restores
     the all-zero counter invariant on every exit: a poisoned scratch,
     once reset, must be indistinguishable from a fresh allocation *)
  let app = tiny_app () in
  let _, prof = profile_of app ~events:40_000 in
  let config = Config.default in
  let rnd = Randomized.create config in
  let pcs = Profile.candidates prof in
  check_bool "profile has candidate branches" true (Array.length pcs > 0);
  let dirty = History_select.scratch config in
  History_select.poison_scratch dirty;
  check_bool "poison really dirties the counters" false
    (History_select.scratch_clean dirty);
  History_select.reset_scratch dirty;
  check_bool "reset restores the clean invariant" true
    (History_select.scratch_clean dirty);
  Array.iter
    (fun pc ->
      let fresh = History_select.scratch config in
      let a = History_select.decide ~scratch:dirty config rnd prof ~pc in
      let b = History_select.decide ~scratch:fresh config rnd prof ~pc in
      check_bool (Printf.sprintf "same choice at pc 0x%x" pc) true (a = b);
      check_bool "decide leaves the scratch clean" true
        (History_select.scratch_clean dirty))
    pcs

let test_inject_plan_validity () =
  let app = tiny_app () in
  let cfg, prof = profile_of app ~events:40_000 in
  let analysis = Analyze.run prof in
  check_bool "some hints" true (Analyze.hint_count analysis > 0);
  let plan =
    Inject.plan Config.default cfg
      ~source:(App_model.source (App_model.create ~cfg ~config:app ~input:0 ()))
      ~hints:(Analyze.to_inject_hints analysis cfg)
  in
  check_int "nothing dropped" 0 plan.Inject.dropped;
  List.iter
    (fun (p : Inject.placement) ->
      let host = cfg.Cfg.blocks.(p.host_block) in
      let branch = cfg.Cfg.blocks.(p.branch_block) in
      check_int "same function" host.Cfg.func branch.Cfg.func;
      check_bool "host not after branch" true (p.host_block <= p.branch_block);
      check_int "pc pointer resolves" branch.Cfg.branch_pc p.branch_pc;
      check_bool "probable" true (p.cond_prob >= 0.0 && p.cond_prob <= 1.0))
    plan.Inject.placements;
  (* hints_at covers every placement *)
  let total =
    Hashtbl.fold
      (fun _ l acc -> acc + List.length l)
      plan.Inject.by_host 0
  in
  check_int "by_host total" (List.length plan.Inject.placements) total

let test_runtime_improves_on_baseline () =
  let app = tiny_app () in
  let cfg, prof = profile_of app ~events:40_000 in
  let analysis = Analyze.run prof in
  let plan =
    Inject.plan Config.default cfg
      ~source:(App_model.source (App_model.create ~cfg ~config:app ~input:0 ()))
      ~hints:(Analyze.to_inject_hints analysis cfg)
  in
  let events = 40_000 in
  let run_baseline () =
    let p = Whisper_bpu.Bimodal.make ~log_entries:10 in
    let src = App_model.source (App_model.create ~cfg ~config:app ~input:0 ()) in
    let mis = ref 0 in
    for _ = 1 to events do
      let e = src () in
      let pred = p.Whisper_bpu.Predictor.predict ~pc:e.Branch.pc in
      p.train ~pc:e.Branch.pc ~taken:e.Branch.taken;
      if pred <> e.Branch.taken then incr mis
    done;
    !mis
  in
  let run_whisper () =
    let rt =
      Runtime.create Config.default
        ~baseline:(Whisper_bpu.Bimodal.make ~log_entries:10)
        ~plan
    in
    let src = App_model.source (App_model.create ~cfg ~config:app ~input:0 ()) in
    let mis = ref 0 in
    for _ = 1 to events do
      if not (Runtime.exec rt (src ())) then incr mis
    done;
    (!mis, Runtime.hinted_predictions rt)
  in
  let base_mis = run_baseline () in
  let w_mis, hinted = run_whisper () in
  check_bool "hints actually used" true (hinted > 0);
  check_bool "whisper beats weak baseline" true (w_mis < base_mis)

let test_runtime_hint_accuracy_on_deterministic () =
  (* with only deterministic behaviours and noise 0, hinted branches with
     formula hints should be nearly perfect *)
  let app = tiny_app () in
  let cfg, prof = profile_of app ~events:40_000 in
  let analysis = Analyze.run prof in
  let plan =
    Inject.plan Config.default cfg
      ~source:(App_model.source (App_model.create ~cfg ~config:app ~input:0 ()))
      ~hints:(Analyze.to_inject_hints analysis cfg)
  in
  let rt =
    Runtime.create Config.default
      ~baseline:(Whisper_bpu.Bimodal.make ~log_entries:10)
      ~plan
  in
  let src = App_model.source (App_model.create ~cfg ~config:app ~input:0 ()) in
  for _ = 1 to 40_000 do
    ignore (Runtime.exec rt (src ()))
  done;
  let hinted = Runtime.hinted_predictions rt in
  let wrong = Runtime.hinted_mispredictions rt in
  check_bool "hinted a lot" true (hinted > 1000);
  (* 0.1% exploration finds approximate formulas, not the exact planted
     ones; accuracy must still be far better than a coin flip *)
  check_bool "hint error under 30%" true
    (float_of_int wrong /. float_of_int hinted < 0.30)

(* ------------------------------------------------------------------ *)
(* Compiled runtime vs interpretive oracle                             *)
(* ------------------------------------------------------------------ *)

let whisper_plan_for ~config app ~profile_events =
  let cfg, prof = profile_of app ~events:profile_events in
  let analysis = Analyze.run ~config prof in
  let plan =
    Inject.plan config cfg
      ~source:(App_model.source (App_model.create ~cfg ~config:app ~input:0 ()))
      ~hints:(Analyze.to_inject_hints analysis cfg)
  in
  (cfg, plan)

(* The compiled runtime must agree with the retained interpretive oracle
   event-for-event (verdicts) and counter-for-counter (hinted / wrong /
   baseline / buffer statistics) — the compilation is a representation
   change, not a policy change.  Returns the hinted count so callers can
   assert the comparison actually exercised the hint path. *)
let check_compiled_matches_reference ?(events = 25_000) ~config app =
  let cfg, plan = whisper_plan_for ~config app ~profile_events:20_000 in
  let arena = Arena.build ~events (App_model.create ~cfg ~config:app ~input:1 ()) in
  let rt =
    Runtime.create config
      ~baseline:(Whisper_bpu.Bimodal.make ~log_entries:10)
      ~plan
  in
  let rf =
    Whisper_oracle.Runtime.create config
      ~baseline:(Whisper_bpu.Bimodal.make ~log_entries:10)
      ~plan
  in
  for i = 0 to events - 1 do
    let c = Runtime.exec_arena rt ~arena i in
    let r = Whisper_oracle.Runtime.exec rf (Arena.event arena i) in
    if c <> r then
      Alcotest.failf "%s: compiled diverges from oracle at event %d"
        app.Workloads.name i
  done;
  let name = app.Workloads.name in
  check_int (name ^ " hinted")
    (Whisper_oracle.Runtime.hinted_predictions rf)
    (Runtime.hinted_predictions rt);
  check_int (name ^ " hinted wrong")
    (Whisper_oracle.Runtime.hinted_mispredictions rf)
    (Runtime.hinted_mispredictions rt);
  check_int (name ^ " baseline")
    (Whisper_oracle.Runtime.baseline_predictions rf)
    (Runtime.baseline_predictions rt);
  check_bool (name ^ " buffer stats") true
    (Runtime.buffer_stats rt = Whisper_oracle.Runtime.buffer_stats rf);
  check_int (name ^ " events covered") events
    (Runtime.hinted_predictions rt + Runtime.baseline_predictions rt);
  Runtime.hinted_predictions rt

let test_compiled_matches_reference_catalog () =
  let hinted =
    Array.fold_left
      (fun acc app ->
        acc + check_compiled_matches_reference ~config:Config.default app)
      0 Workloads.datacenter
  in
  check_bool "catalog comparison exercised the hint path" true (hinted > 0)

let test_compiled_matches_reference_variants () =
  (* seeds and config corners: tiny buffers stress eviction-order
     agreement, `Classic restricts the formula family, and a reseeded
     app reshuffles the CFG and every planted behaviour *)
  let cases =
    [
      (tiny_app (), Config.default);
      (tiny_app (), { Config.default with hint_buffer_size = 2 });
      (tiny_app (), { Config.default with hint_buffer_size = 1 });
      ({ (tiny_app ()) with seed = 1234 }, Config.default);
      ({ (tiny_app ()) with seed = 90210 },
       { Config.default with ops = `Classic; hint_buffer_size = 8 });
    ]
  in
  let hinted =
    List.fold_left
      (fun acc (app, config) ->
        acc + check_compiled_matches_reference ~events:20_000 ~config app)
      0 cases
  in
  check_bool "variant comparison exercised the hint path" true (hinted > 0)

(* ------------------------------------------------------------------ *)
(* Analyze distributions                                              *)
(* ------------------------------------------------------------------ *)

let test_analyze_distributions () =
  let app = tiny_app () in
  let _, prof = profile_of app ~events:40_000 in
  let analysis = Analyze.run prof in
  let ops = Analyze.op_distribution analysis prof in
  let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 ops in
  check_bool "op distribution sums to 1" true (abs_float (total -. 1.0) < 1e-6);
  let lens = Analyze.length_distribution analysis prof in
  let lsum = Array.fold_left ( +. ) 0.0 lens in
  check_bool "length distribution sums to <= 1" true (lsum <= 1.0 +. 1e-6)

let test_analyze_training_time_positive () =
  let app = tiny_app () in
  let _, prof = profile_of app ~events:20_000 in
  let analysis = Analyze.run prof in
  check_bool "time measured" true (analysis.Analyze.training_seconds >= 0.0)

(* ------------------------------------------------------------------ *)
(* Classify                                                           *)
(* ------------------------------------------------------------------ *)

let test_classify_compulsory () =
  let c = Classify.create ~capacity_entries:64 () in
  (match Classify.note c ~pc:0x4000 ~taken:true ~mispredicted:true with
  | Some Classify.Compulsory -> ()
  | _ -> Alcotest.fail "first access must be compulsory");
  check_int "counted" 1 (Classify.counts c).Classify.compulsory

let test_classify_correct_predictions_unclassified () =
  let c = Classify.create ~capacity_entries:64 () in
  check_bool "no class when correct" true
    (Classify.note c ~pc:0x4000 ~taken:true ~mispredicted:false = None)

let test_classify_conditional () =
  let c = Classify.create ~capacity_entries:64 ~history_len:4 () in
  (* stabilize the history window at all-taken first, then a substream
     that stays resident yet keeps mispredicting is conditional-on-data *)
  for _ = 1 to 6 do
    ignore (Classify.note c ~pc:0x4000 ~taken:true ~mispredicted:false)
  done;
  ignore (Classify.note c ~pc:0x4000 ~taken:true ~mispredicted:true);
  (match Classify.note c ~pc:0x4000 ~taken:true ~mispredicted:true with
  | Some Classify.Conditional_on_data -> ()
  | Some _ | None -> Alcotest.fail "resident substream must be conditional")

let test_classify_capacity () =
  let c = Classify.create ~capacity_entries:8 ~assoc:2 ~history_len:4 () in
  (* stabilize history (all-taken window), register the first substream,
     flood the structure with 40 distinct ones, then revisit the first:
     it has been seen but left the LRU -> capacity *)
  for _ = 1 to 6 do
    ignore (Classify.note c ~pc:0x9000 ~taken:true ~mispredicted:false)
  done;
  ignore (Classify.note c ~pc:0 ~taken:true ~mispredicted:true);
  for pc = 1 to 40 do
    ignore (Classify.note c ~pc:(pc * 4) ~taken:true ~mispredicted:false)
  done;
  (match Classify.note c ~pc:0 ~taken:true ~mispredicted:true with
  | Some Classify.Capacity -> ()
  | Some cls ->
      Alcotest.failf "expected capacity, got %s"
        (match cls with
        | Classify.Compulsory -> "compulsory"
        | Classify.Conflict -> "conflict"
        | Classify.Conditional_on_data -> "conditional"
        | Classify.Capacity -> "capacity")
  | None -> Alcotest.fail "mispredicted");
  let counts = Classify.counts c in
  check_int "total classified" 2 (Classify.total counts)

let test_classify_fractions () =
  let c =
    { Classify.compulsory = 1; capacity = 2; conflict = 1; conditional = 0 }
  in
  Alcotest.(check (float 1e-9)) "capacity fraction" 0.5
    (Classify.fraction c Classify.Capacity);
  check_int "total" 4 (Classify.total c)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "whisper_core"
    [
      ( "config",
        Alcotest.
          [
            test_case "table3 defaults" `Quick test_config_table3;
            test_case "lengths" `Quick test_config_lengths;
            test_case "explore count" `Quick test_config_explore_count;
          ] );
      ( "brhint",
        Alcotest.
          [
            test_case "roundtrip all biases" `Quick
              test_brhint_roundtrip_exhaustive_fields;
            test_case "bit budget" `Quick test_brhint_bits;
            test_case "invalid fields" `Quick test_brhint_invalid;
            test_case "branch pc" `Quick test_brhint_branch_pc;
          ]
        @ qsuite [ qcheck_brhint_roundtrip ] );
      ( "algorithm1",
        Alcotest.
          [
            test_case "counts" `Quick test_algorithm1_counts;
            test_case "scoring" `Quick test_algorithm1_scoring;
            test_case "find minimum" `Quick test_algorithm1_find_minimum;
            test_case "empty candidates" `Quick test_algorithm1_empty_candidates;
          ]
        @ qsuite [ qcheck_algorithm1_matches_bruteforce ] );
      ( "randomized",
        Alcotest.
          [
            test_case "candidate count" `Quick test_randomized_candidate_count;
            test_case "full permutation" `Quick test_randomized_permutation_property;
            test_case "deterministic" `Quick test_randomized_deterministic;
            test_case "classic family" `Quick test_randomized_classic_family;
            test_case "truth cache" `Quick test_randomized_truth_cache;
            test_case "shared slices" `Quick test_randomized_shared_slices;
          ] );
      ( "history_select",
        Alcotest.
          [
            test_case "finds planted formula" `Quick test_decide_finds_planted_formula;
            test_case "bias for constants" `Quick test_decide_prefers_bias_for_constant;
            test_case "rejects noise" `Quick test_decide_rejects_random_branch;
            test_case "no samples" `Quick test_decide_no_samples;
            test_case "wide counts match oracle" `Quick test_decide_wide_counts;
            test_case "matches seed reference" `Quick
              test_decide_matches_reference;
            test_case "parallel analysis deterministic" `Quick
              test_parallel_analysis_deterministic;
            test_case "pool reuse across analyses" `Quick
              test_analysis_pool_reuse;
            test_case "scratch reuse sound" `Quick test_scratch_reuse_sound;
          ] );
      ( "hint_buffer",
        Alcotest.
          [
            test_case "basics" `Quick test_hint_buffer_basics;
            test_case "hint roundtrip" `Quick test_hint_buffer_hint_roundtrip;
            test_case "eviction" `Quick test_hint_buffer_eviction;
            test_case "reinsert refreshes" `Quick
              test_hint_buffer_reinsert_refreshes;
            test_case "probe no refresh" `Quick test_hint_buffer_probe_does_not_refresh;
          ] );
      ( "inject_runtime",
        Alcotest.
          [
            test_case "plan validity" `Quick test_inject_plan_validity;
            test_case "beats weak baseline" `Quick test_runtime_improves_on_baseline;
            test_case "hint accuracy" `Quick test_runtime_hint_accuracy_on_deterministic;
            test_case "compiled == oracle (catalog)" `Quick
              test_compiled_matches_reference_catalog;
            test_case "compiled == oracle (seeds+configs)" `Quick
              test_compiled_matches_reference_variants;
          ] );
      ( "analyze",
        Alcotest.
          [
            test_case "distributions" `Quick test_analyze_distributions;
            test_case "training time" `Quick test_analyze_training_time_positive;
          ] );
      ( "classify",
        Alcotest.
          [
            test_case "compulsory" `Quick test_classify_compulsory;
            test_case "correct unclassified" `Quick
              test_classify_correct_predictions_unclassified;
            test_case "conditional" `Quick test_classify_conditional;
            test_case "capacity" `Quick test_classify_capacity;
            test_case "fractions" `Quick test_classify_fractions;
          ] );
    ]
