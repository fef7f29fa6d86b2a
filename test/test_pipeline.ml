(* Tests for whisper_pipeline: the cache model and the trace-driven timing
   model (Scarab substitute). *)

open Whisper_trace
open Whisper_pipeline

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_after_fill () =
  let c = Cache.create ~bytes:1024 ~assoc:2 ~line_bytes:64 () in
  check_bool "cold miss" false (Cache.access c 0x1000);
  check_bool "hit" true (Cache.access c 0x1000);
  check_bool "same line" true (Cache.access c 0x103F);
  check_bool "next line misses" false (Cache.access c 0x1040);
  check_int "hits" 2 (Cache.hits c);
  check_int "misses" 2 (Cache.misses c)

let test_cache_lru_within_set () =
  (* 2-way set: fill two lines in the same set, touch the first, add a
     third: the second must be the victim *)
  let c = Cache.create ~bytes:1024 ~assoc:2 ~line_bytes:64 () in
  (* 8 sets; same set every 8 lines = 512 bytes *)
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x200);
  ignore (Cache.access c 0x0);
  ignore (Cache.access c 0x400);
  (* evicts 0x200 *)
  check_bool "first retained" true (Cache.probe c 0x0);
  check_bool "victim gone" false (Cache.probe c 0x200)

let test_cache_capacity () =
  let c = Cache.create ~bytes:512 ~assoc:2 ~line_bytes:64 () in
  check_int "entries" 8 (Cache.entries c);
  for i = 0 to 15 do
    ignore (Cache.access c (i * 64))
  done;
  (* only the last lines of each set survive *)
  check_bool "early line evicted" false (Cache.probe c 0)

let test_cache_invalid () =
  Alcotest.check_raises "both sizes"
    (Invalid_argument "Cache.create: give exactly one of ~bytes/~entries")
    (fun () ->
      ignore (Cache.create ~bytes:1024 ~entries:16 ~assoc:2 ~line_bytes:64 ()))

(* ------------------------------------------------------------------ *)
(* Machine                                                            *)
(* ------------------------------------------------------------------ *)

let tiny_app () : Workloads.config =
  {
    name = "tiny-pipe";
    seed = 99;
    family = Workloads.Datacenter;
    functions = 32;
    blocks_per_fn = (3, 6);
    instrs_per_block = (4, 8);
    session_types = 8;
    session_len = (2, 4);
    repeats = (1, 3);
    func_zipf = 0.6;
    session_zipf = 0.7;
    mix =
      {
        always = 0.5;
        never = 0.2;
        bias = 0.1;
        loop = 0.1;
        short_f = 0.1;
        ctx = 0.0;
        hashed = 0.0;
        parity = 0.0;
        random = 0.0;
      };
    noise = 0.0;
    hashed_len_weights = Array.make 16 1.0;
    bias_range = (0.9, 0.99);
    random_range = (0.4, 0.6);
    loop_range = (2, 6);
    parity_len = (8, 16);
  }

let run_with ~correct_fn ~events =
  let app = tiny_app () in
  let cfg = Workloads.build_cfg app in
  let src = App_model.source (App_model.create ~cfg ~config:app ~input:0 ()) in
  Machine.run ~events ~source:src ~predict:correct_fn ()

let test_machine_counts () =
  let events = 5000 in
  let r = run_with ~events ~correct_fn:(fun _ -> true) in
  check_int "branches" events r.Machine.branches;
  check_bool "instrs >= events" true (r.Machine.instrs >= events);
  check_int "no mispredicts" 0 r.Machine.mispredicts;
  check_bool "cycles positive" true (r.Machine.cycles > 0.0);
  check_bool "ipc sane" true (Machine.ipc r > 0.3 && Machine.ipc r < 7.0)

let test_machine_mispredict_penalty () =
  let events = 5000 in
  let perfect = run_with ~events ~correct_fn:(fun _ -> true) in
  let flaky =
    let i = ref 0 in
    run_with ~events ~correct_fn:(fun _ ->
        incr i;
        !i mod 10 <> 0)
  in
  check_int "10% mispredicts" (events / 10) flaky.Machine.mispredicts;
  check_bool "mispredicts cost cycles" true
    (flaky.Machine.cycles > perfect.Machine.cycles);
  check_bool "misp stall accounted" true
    (flaky.Machine.misp_stall
    >= float_of_int (events / 10 * Params.default.Params.resteer_penalty) -. 1.0)

let test_machine_mispredicts_expose_frontend () =
  (* resteers reset FDIP lead, so the flaky run must expose at least as
     many I-cache miss cycles as the perfect one *)
  let events = 20_000 in
  let perfect = run_with ~events ~correct_fn:(fun _ -> true) in
  let flaky =
    let i = ref 0 in
    run_with ~events ~correct_fn:(fun _ ->
        incr i;
        !i mod 8 <> 0)
  in
  check_bool "frontend stalls grow with mispredictions" true
    (flaky.Machine.fe_stall >= perfect.Machine.fe_stall)

let test_machine_speedup () =
  let events = 5000 in
  let perfect = run_with ~events ~correct_fn:(fun _ -> true) in
  let flaky =
    let i = ref 0 in
    run_with ~events ~correct_fn:(fun _ ->
        incr i;
        !i mod 10 <> 0)
  in
  let s = Machine.speedup_pct ~baseline:flaky ~improved:perfect in
  check_bool "positive speedup" true (s > 0.0);
  check_bool "mpki" true (Machine.mpki flaky > 0.0)

let test_machine_segments () =
  let events = 10_000 in
  let r =
    let i = ref 0 in
    run_with ~events ~correct_fn:(fun _ ->
        incr i;
        !i mod 5 <> 0)
  in
  check_int "10 segments" 10 (Array.length r.Machine.seg_mispredicts);
  check_int "segments sum to total" r.Machine.mispredicts
    (Array.fold_left ( + ) 0 r.Machine.seg_mispredicts);
  check_int "instr segments sum" r.Machine.instrs
    (Array.fold_left ( + ) 0 r.Machine.seg_instrs)

(* events = 0 and events < segments must spread evenly, with no
   front-loaded segments and no skew, identically on both replay paths *)
let test_machine_segment_edges () =
  let app = tiny_app () in
  let cfg = Workloads.build_cfg app in
  let run_n events =
    let src = App_model.source (App_model.create ~cfg ~config:app ~input:0 ()) in
    Machine.run ~events ~source:src ~predict:(fun _ -> true) ()
  in
  let r0 = run_n 0 in
  check_int "0 events: 10 segments" 10 (Array.length r0.Machine.seg_instrs);
  check_int "0 events: no instrs" 0 (Array.fold_left ( + ) 0 r0.Machine.seg_instrs);
  check_int "0 events: no mispredicts" 0
    (Array.fold_left ( + ) 0 r0.Machine.seg_mispredicts);
  let r3 = run_n 3 in
  check_int "3 events: 10 segments" 10 (Array.length r3.Machine.seg_instrs);
  check_int "3 events: instrs conserved" r3.Machine.instrs
    (Array.fold_left ( + ) 0 r3.Machine.seg_instrs);
  let nonzero =
    Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 r3.Machine.seg_instrs
  in
  check_int "3 events spread over 3 segments" 3 nonzero;
  (* events not divisible by segments: balanced, never front-loaded *)
  let r15 = run_n 15 in
  check_int "15 events: instrs conserved" r15.Machine.instrs
    (Array.fold_left ( + ) 0 r15.Machine.seg_instrs);
  let occupied =
    Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 r15.Machine.seg_instrs
  in
  check_int "15 events occupy all 10 segments" 10 occupied

(* the closure and arena paths share one accounting core; prove the
   results are structurally identical, including per-segment arrays, at
   an event count that exercises the uneven-partition case, for every
   arena strategy: a patterned verdict fill, [Oracle], and the compiled
   TAGE-SC-L kernel against its closure predictor *)
let test_machine_arena_equals_closure () =
  let app = tiny_app () in
  let cfg = Workloads.build_cfg app in
  List.iter
    (fun events ->
      let closure predict =
        let src =
          App_model.source (App_model.create ~cfg ~config:app ~input:0 ())
        in
        let i = ref (-1) in
        Machine.run ~events ~source:src
          ~predict:(fun e ->
            incr i;
            predict !i e)
          ()
      in
      let arena =
        Arena.build ~events (App_model.create ~cfg ~config:app ~input:0 ())
      in
      let packed exec = Machine.run_arena_exec ~events ~arena ~exec () in
      let check name c p =
        check_bool
          (Printf.sprintf "%s: closure == arena at %d events" name events)
          true (c = p)
      in
      check "patterned"
        (closure (fun i _ -> i mod 5 <> 0))
        (packed
           (Machine.Compiled
              (fun ~arena:_ ~n ~verdicts ->
                for i = 0 to n - 1 do
                  Bytes.set verdicts i (if i mod 5 <> 0 then '\001' else '\000')
                done)));
      check "oracle" (closure (fun _ _ -> true)) (packed Machine.Oracle);
      let p = Whisper_bpu.Tage_scl.predictor Whisper_bpu.Sizes.standard in
      check "tage-scl"
        (closure (fun _ e ->
             let pred = p.Whisper_bpu.Predictor.predict ~pc:e.Branch.pc in
             p.train ~pc:e.Branch.pc ~taken:e.Branch.taken;
             pred = e.Branch.taken))
        (packed
           (Machine.Compiled
              (Whisper_bpu.Tage_scl.compiled Whisper_bpu.Sizes.standard)
                .Whisper_bpu.Predictor.Compiled.fill)))
    [ 0; 7; 10_000; 10_003 ]

let test_params_table2 () =
  let p = Params.default in
  check_int "width" 6 p.Params.width;
  check_int "ftq" 24 p.ftq_entries;
  check_int "rob" 224 p.rob_entries;
  check_int "rs" 97 p.rs_entries;
  check_int "btb" 8192 p.btb_entries;
  check_int "l1i" (32 * 1024) p.l1i_bytes;
  check_int "l2" (1024 * 1024) p.l2_bytes;
  check_int "l3" (10 * 1024 * 1024) p.l3_bytes

let () =
  Alcotest.run "whisper_pipeline"
    [
      ( "cache",
        Alcotest.
          [
            test_case "hit after fill" `Quick test_cache_hit_after_fill;
            test_case "lru within set" `Quick test_cache_lru_within_set;
            test_case "capacity" `Quick test_cache_capacity;
            test_case "invalid" `Quick test_cache_invalid;
          ] );
      ( "machine",
        Alcotest.
          [
            test_case "counts" `Quick test_machine_counts;
            test_case "mispredict penalty" `Quick test_machine_mispredict_penalty;
            test_case "mispredicts expose frontend" `Quick
              test_machine_mispredicts_expose_frontend;
            test_case "speedup" `Quick test_machine_speedup;
            test_case "segments" `Quick test_machine_segments;
            test_case "segment edge cases" `Quick test_machine_segment_edges;
            test_case "arena equals closure" `Quick
              test_machine_arena_equals_closure;
            test_case "params table2" `Quick test_params_table2;
          ] );
    ]
