(* The repository benchmark: one workload per process.

     main.exe --workload paper-sim|serve-drift --seed N
              --seconds S --trace 0|1

   --trace 0 times the workload untraced for S seconds (whole
   iterations, at least one) and prints the end-to-end metrics.
   --trace 1 runs it once untraced and once traced, layer by layer,
   checks that both produced byte-identical outputs, and prints the
   per-layer metrics.  The last line of stdout is the JSON result; a
   failed correctness check exits 1 without printing one. *)

(* Metric names and units, declared once: in BENCHMARK.json, read from
   the working directory (the repository root). *)
let declared section =
  let open Whisper_util.Sjson in
  let bad () = failwith ("BENCHMARK.json: malformed " ^ section) in
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match Result.map (member section) (parse text) with
  | Ok (Some (Arr ms)) ->
      List.map
        (fun m ->
          match (member "name" m, member "unit" m) with
          | Some (Str name), Some (Str unit_) -> (name, unit_)
          | _ -> bad ())
        ms
  | _ -> bad ()

(* Every declared metric in declaration order; a layer the workload
   never reaches reads 0.  A value under an undeclared name is a bug. *)
let metrics decl values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name decl) then
        invalid_arg ("undeclared metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      Metric.make name ~unit_
        (Option.value ~default:0.0 (List.assoc_opt name values)))
    decl

let workloads =
  [
    ("paper-sim", (Paper_sim.timed, Paper_sim.traced_run));
    ("serve-drift", (Serve_drift.timed, Serve_drift.traced_run));
  ]

let usage =
  "main.exe --workload paper-sim|serve-drift --seed N \
   --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 45 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " the workload to run");
      ("--seed", Arg.Set_int seed, " input seed (0: train on 0, test on 1)");
      ("--seconds", Arg.Set_int seconds, " seconds of timed work");
      ("--trace", Arg.Set_int trace, " 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let timed, traced =
    match List.assoc_opt !workload workloads with
    | Some run when !trace = 0 || !trace = 1 -> run
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let seed = !seed and trace = !trace = 1 in
  match
    if trace then traced ~seed
    else timed ~seed ~seconds:(float_of_int !seconds)
  with
  | exception Common.Mismatch msg ->
      Printf.eprintf "correctness check failed: %s\n%!" msg;
      exit 1
  | r ->
      let section = if trace then "per_layer" else "end_to_end" in
      let ms = metrics (declared section) r.values in
      Printf.printf "workload %s seed %d: results digest %s\n" !workload seed
        r.digest;
      Printf.printf "operations: %d attempted, %d failed (%.2f%%)\n"
        r.attempted r.failed
        (100.0 *. float_of_int r.failed /. float_of_int (max 1 r.attempted));
      if trace then Common.print_layers r.spans;
      List.iter
        (fun (m : Metric.t) ->
          Printf.printf "%-38s %20.6f %s\n" m.name m.value m.unit_)
        ms;
      print_endline
        (Metric.result_line ~correct:(r.failed = 0) ~attempted:r.attempted
           ~failed:r.failed ms)
