(* Unit tests for the benchmark's own helpers: order statistics, metric
   names and the span recorder's self-time arithmetic. *)

let feq = Alcotest.float 1e-9
let opt = Alcotest.(option int)

let test_median () =
  Alcotest.check feq "odd" 3.0 (Pctl.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check feq "even" 2.5 (Pctl.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.check feq "single" 7.0 (Pctl.median [| 7.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Pctl.median: empty sample")
    (fun () -> ignore (Pctl.median [||]))

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "p50" 50.0 (Pctl.percentile xs 50.0);
  Alcotest.check feq "p90" 90.0 (Pctl.percentile xs 90.0);
  Alcotest.check feq "p100" 100.0 (Pctl.percentile xs 100.0);
  Alcotest.check feq "p0 is the minimum" 1.0 (Pctl.percentile xs 0.0);
  Alcotest.check feq "nearest rank rounds up" 2.0
    (Pctl.percentile [| 1.0; 2.0; 3.0 |] 50.0)

(* Calls ranked strictly above the nearest-rank [p]th percentile. *)
let beyond n p =
  let xs = Array.init n float_of_int in
  let v = Pctl.percentile xs (float_of_int p) in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 xs

let test_tail_rank () =
  Alcotest.check opt "ten calls have no tail" None (Pctl.tail_rank 10);
  Alcotest.check opt "100 calls: p90" (Some 90) (Pctl.tail_rank 100);
  Alcotest.check opt "1000 calls: p99" (Some 99) (Pctl.tail_rank 1000);
  Alcotest.check opt "21 calls" (Some 52) (Pctl.tail_rank 21);
  (* the chosen rank keeps ten calls beyond it, the next one does not *)
  for n = 11 to 500 do
    match Pctl.tail_rank n with
    | None -> Alcotest.failf "no tail for %d calls" n
    | Some p ->
        if beyond n p < 10 then Alcotest.failf "n=%d: p%d keeps < 10" n p;
        if p < 99 && beyond n (p + 1) >= 10 then
          Alcotest.failf "n=%d: p%d is not the highest" n p
  done

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [
      "setup_s";
      "tage_scl.kernel_ns_per_event";
      "analyze.frac_0.001_s";
      "p-1";
      "9lives";
    ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metric.valid_name n))
    [
      "";
      "_lead";
      ".lead";
      "has space";
      "slash/no";
      "quote\"";
      String.make 65 'a';
    ];
  Alcotest.check_raises "make rejects a bad name"
    (Invalid_argument "Metric.make: bad metric name \"a b\"") (fun () ->
      ignore (Metric.make "a b" ~unit_:"s" 1.0));
  Alcotest.check_raises "make rejects nan"
    (Invalid_argument "Metric.make: x is not finite") (fun () ->
      ignore (Metric.make "x" ~unit_:"s" Float.nan))

let test_result_line () =
  let line =
    Metric.result_line ~correct:true ~attempted:3 ~failed:0
      [
        Metric.make "latency_ms" ~unit_:"ms" 0.1;
        Metric.make "n" ~unit_:"count" 2.0;
      ]
  in
  Alcotest.(check string)
    "line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"latency_ms\": {\"value\": 0.10000000000000001, \"unit\": \"ms\"}, \
     \"n\": {\"value\": 2, \"unit\": \"count\"}}}"
    line

(* Spans with hand-set times: root [0,10] holds a [1,4] (itself holding
   a1 [1,2]) and b [5,9]. *)
let span id parent name t0 t1 = { Spans.id; parent; name; t0; t1; work = 0 }

let tree =
  [|
    span 0 (-1) "root" 0.0 10.0;
    span 1 0 "a" 1.0 4.0;
    span 2 1 "a1" 1.0 2.0;
    span 3 0 "b" 5.0 9.0;
  |]

let test_self_times () =
  Alcotest.(check (array (float 1e-9)))
    "self" [| 3.0; 2.0; 1.0; 4.0 |] (Spans.self_times tree);
  Alcotest.(check (list string))
    "leaves" [ "a1"; "b" ]
    (List.map (fun s -> s.Spans.name) (Spans.leaves tree));
  Alcotest.check feq "leaf seconds" 5.0 (Spans.leaf_seconds tree);
  Alcotest.check feq "unattributed" 50.0
    (Spans.unattributed_pct ~wall:10.0 tree)

let test_recorder () =
  let sp = Spans.create () in
  let v =
    Spans.with_span sp "outer" (fun () ->
        Spans.with_span sp "inner" ~work:5 (fun () -> 41) + 1)
  in
  Alcotest.(check int) "value" 42 v;
  (try Spans.with_span sp "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let spans = Spans.spans sp in
  Alcotest.(check (list string))
    "creation order" [ "outer"; "inner"; "raises" ]
    (Array.to_list (Array.map (fun s -> s.Spans.name) spans));
  Alcotest.(check int) "parent" spans.(0).Spans.id spans.(1).Spans.parent;
  Alcotest.(check int) "work" 5 spans.(1).Spans.work;
  Alcotest.(check int) "closed by a raise" (-1) spans.(2).Spans.parent;
  let self = Spans.self_times spans in
  Alcotest.(check bool)
    "self time within duration" true
    (self.(0) >= 0.0 && self.(0) <= Spans.duration spans.(0));
  Spans.count sp "c" 1.0;
  Spans.count sp "c" 2.0;
  Alcotest.check feq "counts add up" 3.0 (Spans.counted sp "c");
  Alcotest.check feq "uncounted reads 0" 0.0 (Spans.counted sp "d")

let () =
  Alcotest.run "perfbench"
    [
      ( "pctl",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail rank" `Quick test_tail_rank;
        ] );
      ( "metric",
        [
          Alcotest.test_case "names" `Quick test_metric_names;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
    ]
