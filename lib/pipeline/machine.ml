open Whisper_trace

type result = {
  cycles : float;
  instrs : int;
  branches : int;
  mispredicts : int;
  misp_stall : float;
  fe_stall : float;
  btb_stall : float;
  l1i_misses : int;
  exposed_misses : int;
  seg_mispredicts : int array;
  seg_instrs : int array;
}

(* A quarantined (degraded) run is marked by NaN cycles with zeroed
   integer counters; derived metrics must poison to NaN rather than
   read the zeros as a perfect score. *)
let degraded r = Float.is_nan r.cycles

let ipc r =
  if degraded r then Float.nan
  else if r.cycles = 0.0 then 0.0
  else float_of_int r.instrs /. r.cycles

let mpki r =
  if degraded r then Float.nan
  else if r.instrs = 0 then 0.0
  else 1000.0 *. float_of_int r.mispredicts /. float_of_int r.instrs

let speedup_pct ~baseline ~improved =
  Whisper_util.Stats.speedup_pct ~baseline:baseline.cycles
    ~improved:improved.cycles

(* ------------------------------------------------------------------ *)
(* Fixed-point cycle accounting                                       *)
(* ------------------------------------------------------------------ *)

(* Cycle and stall totals accumulate in scaled integers (2^-20 cycle
   units) and convert to floats exactly once per run.  Two reasons:
   int refs are unboxed, so the hot loop stops allocating a fresh boxed
   float on every accumulator update; and integer addition is exact and
   order-independent, so closure / arena / compiled feeds agree to the
   bit by construction.

   Overflow headroom (DESIGN.md §15): every per-event contribution is
   bounded by (lines_per_block * mem_latency + instrs * cpi + resteer)
   * 2^20 fixed-point units — well under 2^40 for any realistic block —
   and the running total stays below 2^62 as long as total simulated
   cycles stay below 2^42 ≈ 4.4e12, three orders of magnitude beyond the
   largest sweep this repo runs. *)
let fx_bits = 20
let fx_one = 1 lsl fx_bits

let fx_of_float f = int_of_float (Float.round (f *. float_of_int fx_one))
let float_of_fx i = float_of_int i /. float_of_int fx_one

(* ------------------------------------------------------------------ *)
(* Pooled cache hierarchy                                             *)
(* ------------------------------------------------------------------ *)

type caches = { l1i : Cache.t; l2 : Cache.t; l3 : Cache.t; btb : Cache.t }

(* One cache hierarchy per (domain, geometry): run_impl resets and
   reuses it instead of reallocating four caches per run (the L3 alone
   is 160k entries).  Keyed per domain via DLS, so parallel Pool workers
   never share mutable cache state.  Note the pool assumes runs do not
   nest within a domain — no predictor callback re-enters Machine.run,
   which nothing in the tree does. *)
let cache_pool : (Params.t, caches) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let caches_for (params : Params.t) =
  let tbl = Domain.DLS.get cache_pool in
  match Hashtbl.find_opt tbl params with
  | Some c ->
      Cache.reset c.l1i;
      Cache.reset c.l2;
      Cache.reset c.l3;
      Cache.reset c.btb;
      c
  | None ->
      let c =
        {
          l1i =
            Cache.create ~bytes:params.Params.l1i_bytes
              ~assoc:params.l1i_assoc ~line_bytes:params.line_bytes ();
          l2 =
            Cache.create ~bytes:params.l2_bytes ~assoc:params.l2_assoc
              ~line_bytes:params.line_bytes ();
          l3 =
            Cache.create ~bytes:params.l3_bytes ~assoc:params.l3_assoc
              ~line_bytes:params.line_bytes ();
          btb =
            Cache.create ~entries:params.btb_entries ~assoc:params.btb_assoc
              ~line_bytes:4 ();
        }
      in
      Hashtbl.add tbl params c;
      c

(* Per-domain scratch for compiled-kernel verdict bitmaps: grown on
   demand, reused across runs, never shrunk. *)
let verdict_scratch : Bytes.t ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref Bytes.empty)

let verdicts_for n =
  let r = Domain.DLS.get verdict_scratch in
  if Bytes.length !r < n then r := Bytes.create n;
  !r

(* The closure path ([run]) and the packed-arena path ([run_arena_exec])
   feed the same accounting core, so their results are byte-identical by
   construction; only the per-event fetch differs. *)
type arena_exec =
  | Oracle
  | Compiled of (arena:Arena.t -> n:int -> verdicts:Bytes.t -> unit)

type feed =
  | From_source of Branch.source * (Branch.event -> bool)
  | From_arena of Arena.t * arena_exec

(* Telemetry is flushed once per run, never per event, so the replay hot
   loop stays allocation- and instrumentation-free (the <5% overhead
   contract is measured by bench's telemetry section). *)
let m_runs = Whisper_util.Telemetry.counter "machine.runs"
let m_events = Whisper_util.Telemetry.counter "machine.events"
let m_instrs = Whisper_util.Telemetry.counter "machine.instrs"
let m_mispredicts = Whisper_util.Telemetry.counter "machine.mispredicts"
let m_l1i_misses = Whisper_util.Telemetry.counter "machine.l1i_misses"
let h_events_per_run = Whisper_util.Telemetry.histogram "machine.events_per_run"

let run_impl ~(params : Params.t) ~segments ~events feed =
  let { l1i; l2; l3; btb } = caches_for params in
  let cycles = ref 0 in
  let misp_stall = ref 0 in
  let fe_stall = ref 0 in
  let btb_stall = ref 0 in
  let instrs = ref 0 in
  let mispredicts = ref 0 in
  let l1i_misses = ref 0 in
  let exposed = ref 0 in
  (* FDIP lead: how many cycles ahead of fetch the prefetcher runs.  The
     lead is bounded by the FTQ's depth and collapses on resteers. *)
  let lead = ref 0 in
  let lead_cap =
    fx_of_float
      (float_of_int params.ftq_entries *. params.ftq_cycles_per_entry)
  in
  let seg_mispredicts = Array.make segments 0 in
  let seg_instrs = Array.make segments 0 in
  (* Per-event constants, hoisted out of the hot loop. *)
  let line_bytes = params.line_bytes in
  let l2_lat = params.l2_latency * fx_one in
  let l3_lat = params.l3_latency * fx_one in
  let mem_lat = params.mem_latency * fx_one in
  let resteer_p = params.resteer_penalty * fx_one in
  let btb_p = params.btb_miss_penalty * fx_one in
  let cpi =
    fx_of_float ((1.0 /. float_of_int params.width) +. params.backend_cpi)
  in
  let account ~seg ~pc ~instrs:n_instrs ~taken ~correct =
    instrs := !instrs + n_instrs;
    seg_instrs.(seg) <- seg_instrs.(seg) + n_instrs;
    (* instruction fetch for the block's lines *)
    let first_line = pc - ((n_instrs - 1) * Cfg.instr_bytes) in
    let line = ref (first_line - (first_line mod line_bytes)) in
    while !line <= pc do
      if not (Cache.access l1i !line) then begin
        incr l1i_misses;
        let latency =
          if Cache.access l2 !line then l2_lat
          else if Cache.access l3 !line then l3_lat
          else mem_lat
        in
        (* FDIP hides the part of the miss covered by its lead *)
        let exposed_cycles = latency - !lead in
        if exposed_cycles > 0 then begin
          incr exposed;
          fe_stall := !fe_stall + exposed_cycles;
          cycles := !cycles + exposed_cycles
        end
      end;
      line := !line + line_bytes
    done;
    (* execute the block: fetch-width-limited frontend plus the averaged
       backend latency (Params.backend_cpi) *)
    let base = n_instrs * cpi in
    cycles := !cycles + base;
    let grown = !lead + base in
    lead := if grown > lead_cap then lead_cap else grown;
    (* branch resolution *)
    if not correct then begin
      incr mispredicts;
      seg_mispredicts.(seg) <- seg_mispredicts.(seg) + 1;
      cycles := !cycles + resteer_p;
      misp_stall := !misp_stall + resteer_p;
      lead := 0
    end
    else if taken && not (Cache.access btb pc) then begin
      (* taken branch with unknown target: decode-resteer bubble *)
      cycles := !cycles + btb_p;
      btb_stall := !btb_stall + btb_p;
      let dented = !lead - btb_p in
      lead := if dented < 0 then 0 else dented
    end
  in
  (* Balanced segment partition: segment [seg] covers event indices
     [seg*events/segments, (seg+1)*events/segments), so segment sizes
     differ by at most one and small runs (events < segments, events = 0)
     spread evenly instead of front-loading with trailing empty segments.
     The feed dispatch happens once per run, not per event: each arm owns
     its own monomorphic event loop over the shared accounting core. *)
  let seg_bounds seg = (seg * events / segments, ((seg + 1) * events / segments) - 1) in
  (match feed with
  | From_source (source, predict) ->
      for seg = 0 to segments - 1 do
        let lo, hi = seg_bounds seg in
        for _ev = lo to hi do
          let e = source () in
          account ~seg ~pc:e.Branch.pc ~instrs:e.Branch.instrs
            ~taken:e.Branch.taken ~correct:(predict e)
        done
      done
  | From_arena (a, Oracle) ->
      for seg = 0 to segments - 1 do
        let lo, hi = seg_bounds seg in
        for ev = lo to hi do
          account ~seg ~pc:(Arena.pc a ev) ~instrs:(Arena.instrs a ev)
            ~taken:(Arena.taken a ev) ~correct:true
        done
      done
  | From_arena (a, Compiled fill) ->
      let verdicts = verdicts_for events in
      fill ~arena:a ~n:events ~verdicts;
      for seg = 0 to segments - 1 do
        let lo, hi = seg_bounds seg in
        for ev = lo to hi do
          account ~seg ~pc:(Arena.pc a ev) ~instrs:(Arena.instrs a ev)
            ~taken:(Arena.taken a ev)
            ~correct:(Bytes.unsafe_get verdicts ev <> '\000')
        done
      done);
  if Whisper_util.Telemetry.enabled () then begin
    Whisper_util.Telemetry.incr m_runs;
    Whisper_util.Telemetry.add m_events events;
    Whisper_util.Telemetry.add m_instrs !instrs;
    Whisper_util.Telemetry.add m_mispredicts !mispredicts;
    Whisper_util.Telemetry.add m_l1i_misses !l1i_misses;
    Whisper_util.Telemetry.observe h_events_per_run events
  end;
  {
    cycles = float_of_fx !cycles;
    instrs = !instrs;
    branches = events;
    mispredicts = !mispredicts;
    misp_stall = float_of_fx !misp_stall;
    fe_stall = float_of_fx !fe_stall;
    btb_stall = float_of_fx !btb_stall;
    l1i_misses = !l1i_misses;
    exposed_misses = !exposed;
    seg_mispredicts;
    seg_instrs;
  }

let run ?(params = Params.default) ?(segments = 10) ~events ~source ~predict ()
    =
  Whisper_util.Telemetry.span "machine.run" (fun () ->
      run_impl ~params ~segments ~events (From_source (source, predict)))

let run_arena_exec ?(params = Params.default) ?(segments = 10) ~events ~arena
    ~exec () =
  if events > Arena.length arena then
    invalid_arg "Machine.run_arena_exec: events exceeds arena length";
  Whisper_util.Telemetry.span "machine.run_arena_exec" (fun () ->
      run_impl ~params ~segments ~events (From_arena (arena, exec)))
