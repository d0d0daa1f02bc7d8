(* Tests for the telemetry layer: span nesting, counter monotonicity, the
   disabled-handle/null-sink no-op guarantees, JSONL round trips, the trace
   validator's negative cases, the unified counter view, and the
   end-to-end acceptance trace of the demo pipeline (analyze -> plan ->
   field_run -> reproduce with the four §3.1 replay-case counters). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let memory_handle () =
  let sink, events = Telemetry.Sink.memory () in
  (Telemetry.create ~sink (), events)

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_nesting () =
  let tel, events = memory_handle () in
  let r =
    Telemetry.Span.with_ tel ~name:"outer" (fun _ ->
        Telemetry.Span.with_ tel ~name:"inner" (fun _ -> ())
        ; Telemetry.Span.with_ tel ~name:"inner2" (fun _ -> 41 + 1))
  in
  check_int "body result" 42 r;
  let roots = Telemetry.Trace.tree (events ()) in
  match roots with
  | [ outer ] ->
      check_string "root" "outer" outer.Telemetry.Trace.name;
      Alcotest.(check (list string))
        "children in start order" [ "inner"; "inner2" ]
        (List.map (fun n -> n.Telemetry.Trace.name) outer.children)
  | l -> Alcotest.failf "expected one root, got %d" (List.length l)

let test_span_end_attrs_and_exceptions () =
  let tel, events = memory_handle () in
  (try
     Telemetry.Span.with_ tel ~name:"boom" (fun sp ->
         Telemetry.Span.addi sp "k" 7;
         failwith "expected")
   with Failure _ -> ());
  match Telemetry.Trace.tree (events ()) with
  | [ n ] ->
      check_bool "end attr present" true
        (List.mem_assoc "k" n.Telemetry.Trace.end_attrs);
      (* a raising body still closes the span and marks the error *)
      check_bool "error attr present" true
        (List.mem_assoc "error" n.Telemetry.Trace.end_attrs)
  | _ -> Alcotest.fail "span not closed after exception"

let test_span_explicit_parent () =
  (* the cross-domain pattern: parent passed explicitly *)
  let tel, events = memory_handle () in
  Telemetry.Span.with_ tel ~name:"root" (fun root ->
      let d =
        Domain.spawn (fun () ->
            Telemetry.Span.with_ tel ~parent:root ~name:"worker" (fun _ -> ()))
      in
      Domain.join d);
  match Telemetry.Trace.tree (events ()) with
  | [ n ] ->
      Alcotest.(check (list string))
        "worker nested under root" [ "worker" ]
        (List.map (fun c -> c.Telemetry.Trace.name) n.children)
  | _ -> Alcotest.fail "expected single root"

(* ------------------------------------------------------------------ *)
(* Counters and histograms *)

let test_counter_monotonic () =
  let tel, _ = memory_handle () in
  let c = Telemetry.Metrics.counter tel "c" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.incr ~by:4 c;
  Telemetry.Metrics.incr ~by:0 c;
  check_int "accumulated" 5 (Telemetry.Metrics.counter_value tel "c");
  (* counters are monotonic by contract: negative increments are bugs *)
  (match Telemetry.Metrics.incr ~by:(-1) c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment accepted");
  check_int "unchanged after rejection" 5
    (Telemetry.Metrics.counter_value tel "c")

let test_counter_concurrent () =
  let tel, _ = memory_handle () in
  let c = Telemetry.Metrics.counter tel "par" in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Telemetry.Metrics.incr c
            done))
  in
  List.iter Domain.join ds;
  check_int "atomic across domains" 4000
    (Telemetry.Metrics.counter_value tel "par")

let test_publish_emits_counters () =
  let tel, events = memory_handle () in
  Telemetry.Metrics.incr_named tel "a" ~by:3;
  Telemetry.Metrics.observe tel "h" 1.5;
  Telemetry.Metrics.publish tel;
  let evs = events () in
  let counters =
    List.filter_map
      (function Telemetry.Event.Counter { name; value; _ } -> Some (name, value) | _ -> None)
      evs
  in
  check_bool "counter published" true (List.mem ("a", 3) counters);
  let samples =
    List.filter_map
      (function Telemetry.Event.Sample { name; _ } -> Some name | _ -> None)
      evs
  in
  check_bool "hist summary published" true (List.mem "h.count" samples)

(* ------------------------------------------------------------------ *)
(* Disabled handle / null sink *)

let test_disabled_is_noop () =
  let tel = Telemetry.disabled in
  check_bool "disabled" false (Telemetry.enabled tel);
  let r =
    Telemetry.Span.with_ tel ~name:"x" (fun sp ->
        check_bool "noop span" true (Telemetry.Span.id sp = None);
        Telemetry.Span.addi sp "k" 1;
        Telemetry.Metrics.incr_named tel "c" ~by:10;
        Telemetry.Metrics.observe tel "h" 1.0;
        Telemetry.Metrics.sample tel "s" 2.0;
        Telemetry.Metrics.incr ~by:5 (Telemetry.Metrics.counter tel "c2");
        "ok")
  in
  check_string "body runs" "ok" r;
  check_int "no registry" 0 (Telemetry.Metrics.counter_value tel "c");
  Telemetry.Metrics.publish tel;
  Telemetry.flush tel

let test_null_sink_registry_still_counts () =
  (* a handle over the null sink emits nothing but still accumulates its
     registry (the pull model) *)
  let tel = Telemetry.create () in
  Telemetry.Metrics.incr_named tel "c" ~by:2;
  check_int "registry counts" 2 (Telemetry.Metrics.counter_value tel "c")

(* ------------------------------------------------------------------ *)
(* JSONL round trip and the validator *)

let to_jsonl evs =
  String.concat "" (List.map (fun e -> Telemetry.Event.to_json e ^ "\n") evs)

let test_jsonl_roundtrip () =
  let tel, events = memory_handle () in
  Telemetry.Span.with_ tel ~name:{|we"ird `name\|}
    ~attrs:
      [
        ("s", Telemetry.Event.Str "v\n\"x");
        ("i", Telemetry.Event.Int (-3));
        ("f", Telemetry.Event.Float 1.25);
        ("b", Telemetry.Event.Bool true);
      ]
    (fun _ -> Telemetry.Metrics.sample tel "depth" 3.5);
  Telemetry.Metrics.incr_named tel "n" ~by:7;
  Telemetry.Metrics.publish tel;
  let evs = events () in
  match Telemetry.Trace.of_jsonl (to_jsonl evs) with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok evs' ->
      check_int "event count" (List.length evs) (List.length evs');
      check_bool "events identical" true (evs = evs')

(* of_jsonl reads through Telemetry.Json: a malformed \u escape is an
   error, a well-formed one decodes to UTF-8, and numbers follow the
   RFC 8259 grammar *)
let sample_line ?(value = "1") name =
  Printf.sprintf {|{"ev": "sample", "name": "%s", "t": 0, "value": %s}|} name
    value

let test_of_jsonl_rejects_bad_escape () =
  match Telemetry.Trace.of_jsonl (sample_line {|\u0_b5|}) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail {|of_jsonl accepted the escape \u0_b5|}

let test_of_jsonl_decodes_utf8 () =
  match Telemetry.Trace.of_jsonl (sample_line {|\u00b5Server|}) with
  | Ok [ Telemetry.Event.Sample { name; _ } ] ->
      check_string "decoded to UTF-8" "\xc2\xb5Server" name
  | Ok _ -> Alcotest.fail "expected one sample event"
  | Error e -> Alcotest.fail e

let test_of_jsonl_strict_numbers () =
  List.iter
    (fun value ->
      match Telemetry.Trace.of_jsonl (sample_line ~value "n") with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "of_jsonl accepted the number %s" value)
    [ "01"; "1."; "+1"; ".5"; "NaN" ]

let test_validator_accepts_good_trace () =
  let tel, events = memory_handle () in
  Telemetry.Span.with_ tel ~name:"a" (fun _ ->
      Telemetry.Span.with_ tel ~name:"b" (fun _ -> ()));
  Telemetry.Span.with_ tel ~name:"c" (fun _ -> ());
  match Telemetry.Trace.validate (events ()) with
  | Ok s ->
      check_int "spans" 3 s.Telemetry.Trace.spans;
      check_int "roots" 2 s.Telemetry.Trace.roots
  | Error e -> Alcotest.fail e

let test_validator_negative_cases () =
  let open Telemetry.Event in
  let beg ?parent id name t = Span_begin { id; parent; name; t; attrs = [] } in
  let fin id name t = Span_end { id; name; t; attrs = [] } in
  let expect_invalid what evs =
    match Telemetry.Trace.validate evs with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "validator accepted %s" what
  in
  expect_invalid "unclosed span" [ beg 1 "a" 0.0 ];
  expect_invalid "end without begin" [ fin 1 "a" 0.0 ];
  expect_invalid "double begin"
    [ beg 1 "a" 0.0; fin 1 "a" 1.0; beg 1 "a" 2.0; fin 1 "a" 3.0 ];
  expect_invalid "double end" [ beg 1 "a" 0.0; fin 1 "a" 1.0; fin 1 "a" 2.0 ];
  expect_invalid "end before begin" [ beg 1 "a" 5.0; fin 1 "a" 1.0 ];
  expect_invalid "unresolved parent"
    [ beg ~parent:42 1 "a" 0.0; fin 1 "a" 1.0 ];
  expect_invalid "parent already closed"
    [ beg 1 "p" 0.0; fin 1 "p" 1.0; beg ~parent:1 2 "c" 2.0; fin 2 "c" 3.0 ]

(* ------------------------------------------------------------------ *)
(* Unified counter view *)

let test_counters_merge_union () =
  let a =
    Telemetry.Counters.make ~scope:"x" ~gauges:[ ("g", 1.0) ]
      [ ("n", 1); ("m", 2) ]
  in
  let b =
    Telemetry.Counters.make ~scope:"y" ~gauges:[ ("g", 3.0) ] [ ("n", 10) ]
  in
  let m = Telemetry.Counters.merge a b in
  check_int "pointwise sum" 11 (Option.get (Telemetry.Counters.find m "n"));
  check_int "union of names" 2 (Option.get (Telemetry.Counters.find m "m"));
  Alcotest.(check (float 0.0))
    "right-biased gauge" 3.0
    (Option.get (Telemetry.Counters.gauge m "g"));
  let u = Telemetry.Counters.union ~scope:"all" [ a; b ] in
  check_int "scope-prefixed" 1
    (Option.get (Telemetry.Counters.find u "x.n"));
  check_int "scope-prefixed 2" 10
    (Option.get (Telemetry.Counters.find u "y.n"))

let test_stats_conversions () =
  (* Engine.stats / Cache.snapshot / Guided.stats share one snapshot view *)
  let es =
    {
      Concolic.Engine.runs = 3; resumes = 0; sat = 2; unsat = 1; unknown = 0;
      pending_peak = 5; elapsed_s = 0.25; timed_out = false; forks = 3;
      core_pruned = 0; solved_incremental = 0; solver_calls = 4; steals = 0;
      worker_runs = [| 3 |];
    }
  in
  let ec = Concolic.Engine.counters es in
  check_string "engine scope" "engine" ec.Telemetry.Counters.scope;
  check_int "runs" 3 (Option.get (Telemetry.Counters.find ec "runs"));
  check_int "solver calls" 4
    (Option.get (Telemetry.Counters.find ec "solver_calls"));
  let cs =
    { Solver.Cache.hits = 3; misses = 1; evictions = 0; stores = 1;
      uncacheable = 0 }
  in
  let cc = Solver.Cache.counters cs in
  check_string "cache scope" "solver.cache" cc.Telemetry.Counters.scope;
  check_int "hits" 3 (Option.get (Telemetry.Counters.find cc "hits"));
  Alcotest.(check (float 1e-9))
    "hit rate gauge" 0.75
    (Option.get (Telemetry.Counters.gauge cc "hit_rate"))

(* ------------------------------------------------------------------ *)
(* End-to-end: the demo pipeline's acceptance trace *)

let test_demo_pipeline_trace () =
  (* the ISSUE's acceptance criterion: the demo pipeline over --trace
     emits a well-formed span tree covering analyze, plan, field_run and
     reproduce, with the four §3.1 replay-case counters *)
  let path = Filename.temp_file "bugrepro-trace" ".jsonl" in
  let oc = open_out path in
  let tel = Telemetry.create ~sink:(Telemetry.Sink.jsonl oc) () in
  let e = Workloads.Coreutils.find "paste" in
  let prog = Lazy.force e.prog in
  let cfg =
    Bugrepro.Pipeline.Config.(
      default
      |> with_budget
           ~dynamic:{ Concolic.Engine.max_runs = 40; max_time_s = 10.0 }
           ~replay:{ Concolic.Engine.max_runs = 20_000; max_time_s = 20.0 }
      |> with_telemetry tel)
  in
  let analysis =
    Bugrepro.Pipeline.Run.analyze cfg
      ~test_scenario:(Workloads.Coreutils.analysis_scenario e)
      prog
  in
  let plan =
    Bugrepro.Pipeline.Run.plan cfg analysis Instrument.Methods.Dynamic_static
  in
  let crash_sc = Workloads.Coreutils.crash_scenario e in
  let _, report = Bugrepro.Pipeline.Run.field_run_report cfg ~plan crash_sc in
  let report = Option.get report in
  let result, stats = Bugrepro.Pipeline.Run.reproduce cfg ~prog ~plan report in
  check_bool "bug reproduced" true (Replay.Guided.reproduced result);
  Telemetry.Metrics.publish tel;
  Telemetry.flush tel;
  close_out oc;
  (* the artifact passes the CI validator *)
  (match Telemetry.Trace.validate_file path with
  | Ok s -> check_bool "has spans" true (s.Telemetry.Trace.spans >= 4)
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  let events =
    match Telemetry.Trace.of_jsonl (In_channel.with_open_text path In_channel.input_all) with
    | Ok evs -> evs
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  (* the tree covers every pipeline stage *)
  let rec names (n : Telemetry.Trace.node) =
    n.name :: List.concat_map names n.children
  in
  let all_names = List.concat_map names (Telemetry.Trace.tree events) in
  List.iter
    (fun stage ->
      check_bool ("span " ^ stage) true (List.mem stage all_names))
    [
      "analyze"; "analyze.dynamic"; "analyze.static"; "plan"; "field_run";
      "reproduce"; "replay.attempt"; "engine.explore";
    ];
  (* the four §3.1 replay-case counters are published... *)
  let counters =
    List.filter_map
      (function
        | Telemetry.Event.Counter { name; value; _ } -> Some (name, value)
        | _ -> None)
      events
  in
  List.iter
    (fun k ->
      check_bool ("counter " ^ k) true
        (List.mem_assoc ("replay.case." ^ k) counters))
    [ "forked"; "completed"; "forced"; "aborted_contradiction" ];
  (* ... and agree with the record-typed stats via the unified view *)
  let snap = Replay.Guided.counters stats in
  check_int "forked = case1" stats.cases.case1
    (Option.get (Telemetry.Counters.find snap "replay.forked"));
  check_int "published forked matches" stats.cases.case1
    (List.assoc "replay.case.forked" counters)

(* ------------------------------------------------------------------ *)
(* Telemetry.Json: the one reader and writer *)

module J = Telemetry.Json

(* byte strings biased towards what the escaper must handle: control
   bytes, quotes, backslashes, escape-looking text and multi-byte UTF-8 *)
let gen_json_bytes =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        map (String.make 1) char;
        oneofl
          [ "\""; "\\"; "\n"; "\t"; "\r"; "\x00"; "\x1f"; "\x7f"; "/";
            {|\u00b5|}; "\xc2\xb5"; "\xf0\x9f\x98\x80" ];
      ]
  in
  map (String.concat "") (list_size (int_bound 24) piece)

let prop_escape_roundtrip =
  QCheck.Test.make ~count:500 ~name:"escape round trip"
    (QCheck.make ~print:String.escaped gen_json_bytes)
    (fun s -> J.parse (J.quote s) = Ok (J.Str s))

(* finite floats: arbitrary bit patterns (subnormals and huge values
   included), plain decimals and integers *)
let gen_finite_float =
  let open QCheck.Gen in
  oneof
    [
      map
        (fun b ->
          let f = Int64.float_of_bits b in
          if Float.is_finite f then f else 0.5)
        ui64;
      float_range (-1e6) 1e6;
      map float_of_int small_signed_int;
      oneofl [ 0.0; -0.0; 0.1; 1e15; -1e15; 1e-320; Float.max_float ];
    ]

let prop_float_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"float round trip"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_finite_float)
    (fun f ->
      match J.parse (J.float f) with
      | Ok (J.Num g) -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> false)

let test_json_rejections () =
  List.iter
    (fun (what, s) ->
      match J.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted: %s" what s)
    [
      ("leading zero", "01");
      ("leading zero after a minus", "-01");
      ("plus sign", "+1");
      ("no fraction digit", "1.");
      ("no integer digit", ".5");
      ("no exponent digit", "1e");
      ("lone minus", "-");
      ("NaN literal", "NaN");
      ("Infinity literal", "-Infinity");
      ("hex number", "0x10");
      ("underscore in a number", "1_000");
      ("trailing comma in an array", "[1,]");
      ("trailing comma in an object", {|{"a": 1,}|});
      ("underscore in \\u digits", {|"\u0_b5"|});
      ("unpaired high surrogate", {|"\ud83d"|});
      ("unpaired low surrogate", {|"\ude00"|});
      ("raw control byte in a string", "\"a\x01b\"");
      ("truncated literal", "tru");
      ("two values", "1 2");
      ("empty input", "");
    ]

let test_json_accepts () =
  List.iter
    (fun (s, want) ->
      match J.parse s with
      | Ok v when v = want -> ()
      | Ok _ -> Alcotest.failf "%s parsed to the wrong value" s
      | Error e -> Alcotest.failf "%s rejected: %s" s e)
    [
      ("0", J.Num 0.0);
      ("-0.5e+2", J.Num (-50.0));
      ("1E3", J.Num 1000.0);
      (" true ", J.Bool true);
      ("null", J.Null);
      ({|{"a": [1, "x"], "b": {}}|},
       J.Obj [ ("a", J.Arr [ J.Num 1.0; J.Str "x" ]); ("b", J.Obj []) ]);
      ({|"\b\f\r\/"|}, J.Str "\b\012\r/");
    ]

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting via DLS" `Quick test_span_nesting;
          Alcotest.test_case "end attrs + exception close" `Quick
            test_span_end_attrs_and_exceptions;
          Alcotest.test_case "explicit parent across domains" `Quick
            test_span_explicit_parent;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter monotonicity" `Quick
            test_counter_monotonic;
          Alcotest.test_case "concurrent increments" `Quick
            test_counter_concurrent;
          Alcotest.test_case "publish" `Quick test_publish_emits_counters;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "disabled handle is a no-op" `Quick
            test_disabled_is_noop;
          Alcotest.test_case "null sink keeps registry" `Quick
            test_null_sink_registry_still_counts;
        ] );
      ( "trace",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "validator accepts good" `Quick
            test_validator_accepts_good_trace;
          Alcotest.test_case "validator negative cases" `Quick
            test_validator_negative_cases;
          Alcotest.test_case "of_jsonl rejects a bad \\u escape" `Quick
            test_of_jsonl_rejects_bad_escape;
          Alcotest.test_case "of_jsonl decodes \\u to UTF-8" `Quick
            test_of_jsonl_decodes_utf8;
          Alcotest.test_case "of_jsonl strict numbers" `Quick
            test_of_jsonl_strict_numbers;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_escape_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_roundtrip;
          Alcotest.test_case "strict rejections" `Quick test_json_rejections;
          Alcotest.test_case "accepted values" `Quick test_json_accepts;
        ] );
      ( "counters",
        [
          Alcotest.test_case "merge/union" `Quick test_counters_merge_union;
          Alcotest.test_case "stats conversions" `Quick test_stats_conversions;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "demo pipeline acceptance trace" `Slow
            test_demo_pipeline_trace;
        ] );
    ]
