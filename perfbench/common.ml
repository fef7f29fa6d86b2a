(* Shared plumbing for the three workloads: clocks, memory, digests,
   set-up, the timed-iteration loop, correctness failures and the
   per-layer report. *)

module Machine = Whisper_pipeline.Machine
module Pool = Whisper_util.Pool

let jobs = 2
let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The workload process's own memory high-water mark (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* Host CPU time stolen by the hypervisor so far (the steal column of
   /proc/stat), in seconds: printed beside each iteration so a slow run
   can be told apart from a slow host. *)
let steal_s () =
  let line = In_channel.with_open_bin "/proc/stat" In_channel.input_line in
  match String.split_on_char ' ' (Option.value ~default:"" line) with
  | "cpu" :: fields -> (
      match List.filter (( <> ) "") fields with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal /. 100.0
      | _ -> 0.0)
  | _ -> 0.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The seed picks the (train, test) input variants for the workloads
   that take inputs: seed 0 is the paper's train-on-0 / test-on-1. *)
let inputs_of_seed seed =
  let k = ((seed mod 5) + 5) mod 5 in
  (k, k + 1)

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

(* Every iteration of one seed must produce the same output. *)
let check_iterations name digests =
  match digests with
  | d :: rest when List.exists (( <> ) d) rest ->
      mismatch "%s: iterations of one seed produced different outputs" name
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Set-up and timed iterations                                         *)
(* ------------------------------------------------------------------ *)

(* Lazy process-wide set-up the timed region must not pay: the shared
   pool's worker domains and, for workloads that simulate, every
   domain's Machine scratch (its cache hierarchy), touched by a small
   replay on all domains at once. *)
let warmed = ref false

let warm_process ~machine =
  let pool = Pool.shared ~jobs in
  if machine && not !warmed then begin
    warmed := true;
    let open Whisper_trace in
    let app = Option.get (Workloads.by_name "finagle-http") in
    let cfg = Workloads.build_cfg app in
    let events = 2_000 in
    let arena =
      Arena.build ~events (App_model.create ~cfg ~config:app ~input:0 ())
    in
    (* the barrier holds each copy until all are running, so the
       [jobs + 1] copies land on [jobs + 1] distinct domains *)
    let arrived = Atomic.make 0 in
    Pool.fanout pool ~width:(jobs + 1) (fun () ->
        Atomic.incr arrived;
        while Atomic.get arrived < jobs + 1 do
          Domain.cpu_relax ()
        done;
        ignore (Machine.run_arena_exec ~events ~arena ~exec:Machine.Oracle ()))
  end

type 'a iterations = {
  setups : float array;  (** seconds per set-up *)
  runs : ('a * float) list;  (** [after]'s result and run seconds *)
  peak_rss_mb : float;  (** high-water mark after the first iteration *)
}

(* Timed iterations: set up, run (timed), then [after] (untimed, so
   reading results back and releasing the iteration's state stay out of
   the measurement), until about [seconds] of timed work have elapsed —
   the loop stops at the iteration boundary nearest to [seconds], after
   at least one iteration — with at least [min_setups] set-ups measured.
   Set-ups beyond the timed iterations are run only to be timed, a few
   after each iteration and the rest at the end: a set-up takes
   milliseconds, and host speed drifts over seconds, so set-ups timed
   back to back would all sample one moment of it.  Each batch of them
   follows an untimed set-up, since the first set-up after a compaction
   also regrows the heap, by an amount that varies from run to run.
   Every iteration starts from a compacted heap.  The memory high-water
   mark is read after the first iteration, so it does not depend on how
   many iterations fit in [seconds]. *)
let iterate ~seconds ~min_setups ~setup ~run ~after =
  let setups = ref [] and runs = ref [] and spent = ref 0.0 in
  let rss = ref 0.0 in
  (* nothing of an iteration but [after]'s result outlives this call *)
  let one () =
    let s, ds = time setup in
    setups := ds :: !setups;
    let cpu0 = Sys.time () and steal0 = steal_s () in
    let r, dr = time (fun () -> run s) in
    let cpu = Sys.time () -. cpu0 and steal = steal_s () -. steal0 in
    Printf.eprintf "iteration %d: set-up %.4f s, run %.4f s"
      (List.length !runs + 1) ds dr;
    Printf.eprintf " (process cpu %.2f s, host steal %.2f s)\n%!" cpu steal;
    (after r, dr)
  in
  let extra_setups n =
    if n > 0 then begin
      Gc.compact ();
      ignore (setup ());
      for _ = 1 to n do
        setups := snd (time setup) :: !setups
      done
    end
  in
  let last = ref 0.0 in
  while !runs = [] || !spent +. (0.5 *. !last) < seconds do
    let out, dr = one () in
    if !runs = [] then rss := peak_rss_mb ();
    runs := (out, dr) :: !runs;
    spent := !spent +. dr;
    last := dr;
    extra_setups ((min_setups - 1) / 4);
    Gc.compact ()
  done;
  extra_setups (min_setups - List.length !setups);
  {
    setups = Array.of_list (List.rev !setups);
    runs = List.rev !runs;
    peak_rss_mb = !rss;
  }

(* Work per second over the whole run: the iterations' work summed over
   their timed seconds summed.  On a shared host an iteration runs
   either at full speed or slowed by neighbours; the median of the
   iterations jumps between the two as their mix shifts, while this
   ratio moves in proportion to it. *)
let throughput work runs =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 runs in
  sum work /. sum snd

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  digest : string;  (** digest of the workload's outputs *)
  attempted : int;
  failed : int;
  values : (string * float) list;  (** metric name, value *)
  spans : Spans.span array;  (** the traced run's spans, if any *)
}

(* Per-call figures of one span name: seconds per call (times [scale]),
   or nanoseconds per unit of work when [per_work]. *)
let per_call ?(scale = 1.0) ?(per_work = false) spans name =
  Spans.named spans name
  |> List.filter_map (fun s ->
         let d = Spans.duration s in
         if not per_work then Some (d *. scale)
         else if s.Spans.work > 0 then
           Some (d *. 1e9 /. float_of_int s.Spans.work)
         else None)
  |> Array.of_list

(* Median per call; 0 for a layer the run never called. *)
let median_call ?scale ?per_work spans name =
  match per_call ?scale ?per_work spans name with
  | [||] -> 0.0
  | xs -> Pctl.median xs

let total spans name =
  List.fold_left
    (fun acc s -> acc +. Spans.duration s)
    0.0 (Spans.named spans name)

(* Cost of one recorder span, measured on a throwaway recorder. *)
let span_cost_ns () =
  let sp = Spans.create () in
  let n = 100_000 in
  let (), dt =
    time (fun () ->
        for _ = 1 to n do
          Spans.with_span sp "probe" ignore
        done)
  in
  dt *. 1e9 /. float_of_int n

(* Values every traced run reports: both walls, attribution, the
   recorder's own cost and its share of the traced wall, and how well
   the untraced run used its domains. *)
let trace_values sp ~untraced ~root =
  let spans = Spans.spans sp in
  let traced = Spans.duration (List.hd (Spans.named spans root)) in
  let cost_ns = span_cost_ns () in
  let n = float_of_int (Array.length spans) in
  [
    ("trace.untraced_wall_s", untraced);
    ("trace.traced_wall_s", traced);
    ("trace.unattributed_pct", Spans.unattributed_pct ~wall:traced spans);
    ("trace.span_cost_ns", cost_ns);
    ("trace.overhead_pct", 100.0 *. n *. cost_ns *. 1e-9 /. traced);
    ( "pool.parallel_efficiency",
      Spans.leaf_seconds spans /. (float_of_int jobs *. untraced) );
  ]

(* One line per span name: calls, median, the highest percentile with
   ten calls beyond it, and self time summed over calls. *)
let print_layers spans =
  let self = Spans.self_times spans in
  let names =
    Array.to_list spans
    |> List.map (fun s -> s.Spans.name)
    |> List.sort_uniq compare
  in
  Printf.printf "%-26s %6s %12s %16s %10s\n" "span" "calls" "median_ms"
    "tail_ms" "self_s";
  List.iter
    (fun name ->
      let s = Pctl.summarize (per_call ~scale:1e3 spans name) in
      let self_s = ref 0.0 in
      Array.iteri
        (fun i sp ->
          if sp.Spans.name = name then self_s := !self_s +. self.(i))
        spans;
      let tail =
        match s.Pctl.tail with
        | Some (p, v) -> Printf.sprintf "p%d=%.3f" p v
        | None -> "-"
      in
      Printf.printf "%-26s %6d %12.3f %16s %10.3f\n" name s.Pctl.calls
        s.Pctl.median tail !self_s)
    names
