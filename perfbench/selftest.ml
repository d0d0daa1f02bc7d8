(* Self-tests of the benchmark: the percentile helper, the self-time
   rollup on a synthetic span tree, and a tiny-size smoke run of every
   workload that checks each named metric is emitted and finite. *)

open Perfbench

let check_float msg expected got = Alcotest.(check (float 1e-9)) msg expected got

let test_percentiles () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  check_float "median" 5.0 (Stats.median xs);
  check_float "p90" 9.0 (Stats.percentile xs 0.9);
  check_float "p100" 10.0 (Stats.percentile xs 1.0);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median [||]));
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.0))) "n=1000" (Some 0.99) (tail 1000);
  Alcotest.(check (option (float 0.0))) "n=100" (Some 0.9) (tail 100);
  Alcotest.(check (option (float 0.0))) "n=99" (Some 0.75) (tail 99);
  Alcotest.(check (option (float 0.0))) "n=5" None (tail 5);
  let s = Stats.summarize (Array.init 200 float_of_int) in
  Alcotest.(check int) "sample count" 200 s.n;
  Alcotest.(check int) "beyond p90" 20 (Stats.beyond s.n 0.9);
  check_float "summary p90" 179.0 s.p90

(* bench.run [0,10] > engine.worker [1,4] > field_run [2,3]
                    > triage.service.tick [3,6]   (overlaps the worker) *)
let synthetic_events =
  let open Telemetry.Event in
  [
    Span_begin { id = 1; parent = None; name = "bench.run"; t = 0.0; attrs = [] };
    Span_begin { id = 2; parent = Some 1; name = "engine.worker"; t = 1.0; attrs = [] };
    Span_begin { id = 3; parent = Some 2; name = "field_run"; t = 2.0; attrs = [] };
    Span_end { id = 3; name = "field_run"; t = 3.0; attrs = [] };
    Span_begin { id = 4; parent = Some 1; name = "triage.service.tick"; t = 3.0; attrs = [] };
    Span_end { id = 2; name = "engine.worker"; t = 4.0; attrs = [] };
    Span_end { id = 4; name = "triage.service.tick"; t = 6.0; attrs = [] };
    Span_end { id = 1; name = "bench.run"; t = 10.0; attrs = [] };
  ]

let test_self_time () =
  let jsonl = String.concat "\n" (List.map Telemetry.Event.to_json synthetic_events) in
  let events =
    match Telemetry.Trace.of_jsonl jsonl with Ok e -> e | Error e -> Alcotest.fail e
  in
  let forest = Telemetry.Trace.tree events in
  let root = List.hd forest in
  check_float "root self = 10 - union [1,6]" 5.0 (Selftime.self_time root);
  check_float "union of overlapping intervals" 5.0
    (Selftime.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 6.0); (8.0, 12.0) ] -. 2.0);
  let tbl, total = Selftime.rollup forest in
  (* the overlapping worker and tick both count: worker-seconds *)
  check_float "total self time" 11.0 total;
  check_float "bench" 5.0 (Selftime.seconds tbl "bench");
  check_float "concolic" 2.0 (Selftime.seconds tbl "concolic");
  check_float "instrument" 1.0 (Selftime.seconds tbl "instrument");
  check_float "triage" 3.0 (Selftime.seconds tbl "triage");
  (* a field run under a benchmark interp span is interpretation *)
  Alcotest.(check string) "interp subtree" "interp"
    (Selftime.layer_of ~parent:(Some "interp") "field_run")

let smoke name () =
  let w = Option.get (Harness.find name) in
  List.iter
    (fun trace ->
      let r = w.measure ~size:Common.Tiny ~seed:3 ~seconds:0.2 ~trace in
      List.iter print_endline r.errors;
      Alcotest.(check bool) "outputs correct" true r.correct;
      Alcotest.(check int) "no failed operation" 0 r.failed;
      Alcotest.(check bool) "attempted" true (r.attempted >= 1);
      let expected = if trace then Harness.per_layer else Harness.end_to_end in
      Alcotest.(check (list string))
        "every named metric, in order" (List.map fst expected)
        (List.map (fun (m : Common.metric) -> m.name) r.metrics);
      List.iter
        (fun (m : Common.metric) ->
          Alcotest.(check bool) (m.name ^ " is finite") true (Float.is_finite m.value))
        r.metrics;
      Alcotest.(check bool) "result line parses as one object" true
        (let j = Harness.to_json r in
         String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}'))
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentiles and sample counts" `Quick test_percentiles ]);
      ("selftime", [ Alcotest.test_case "synthetic span tree" `Quick test_self_time ]);
      ( "smoke",
        List.map
          (fun w -> Alcotest.test_case w `Slow (smoke w))
          [ "field"; "replay"; "fleet"; "explore" ] );
    ]
