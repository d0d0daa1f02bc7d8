(* One benchmark run: set up a workload several times, measure it for the
   requested time, and assemble the end-to-end rows (untraced) or the
   per-layer rows (traced) of the result line. *)

open Common

type workload = {
  name : string;
  measure : size:size -> seed:int -> seconds:float -> trace:bool -> report;
}

and report = {
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  rows : metric list;  (** every row printed, for people *)
  metrics : metric list;  (** the result line's metrics *)
}

(* The result line's end-to-end metrics, the same names on every
   workload: each workload's headline rate and per-operation latency. *)
let end_to_end =
  [
    ("throughput_per_s", "1/s");
    ("latency_p90_ms", "ms");
    ("setup_s", "s");
  ]

let layers = [ "interp"; "instrument"; "concolic"; "solver"; "replay"; "triage"; "staticanalysis"; "bench" ]

(* Every per-layer metric, with its unit.  A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("interp.ns_per_step", "ns");
    ("instrument.probe_ns_per_branch", "ns");
    ("instrument.probe_minor_words_per_branch", "words");
    ("instrument.codec.encode_ns_per_bit", "ns");
    ("instrument.codec.minor_words_per_bit", "words");
    ("instrument.codec.decode_ns_per_bit", "ns");
    ("instrument.wire.serialize_ns_per_kb", "ns");
    ("instrument.wire.serialize_minor_words_per_kb", "words");
    ("instrument.wire.deserialize_ns_per_kb", "ns");
    ("instrument.wire.deserialize_minor_words_per_kb", "words");
    ("instrument.wire.salvage_ns_per_kb", "ns");
    ("instrument.wire.salvage_minor_words_per_kb", "words");
    ("triage.ingest_ns", "ns");
    ("triage.fingerprint_ns", "ns");
    ("triage.fingerprint_minor_words", "words");
    ("triage.cluster_insert_ns", "ns");
    ("triage.index_append_ns", "ns");
    ("triage.service.queue_wait_s", "s");
    ("triage.service.tick_busy_share", "share");
    ("triage.index_reload_ns_per_record", "ns");
    ("triage.sched.pool_busy_share", "share");
    ("triage.sched.rungs_per_cluster", "count");
    ("triage.sched.runs", "count");
    ("concolic.engine.overhead_ns_per_run", "ns");
    ("concolic.engine.worker_idle_share", "share");
    ("concolic.engine.steals", "count");
    ("concolic.engine.worker_run_imbalance", "x");
    ("concolic.engine.pending_peak", "count");
    ("solver.calls", "count");
    ("solver.ns_per_call", "ns");
    ("solver.cache.hit_rate", "share");
    ("solver.incremental_share", "share");
    ("solver.core_pruned_share", "share");
    ("solver.unknown_share", "share");
    ("replay.attempts", "count");
    ("replay.case1_forks", "count");
    ("replay.case2b_aborts", "count");
    ("replay.case3b_aborts", "count");
    ("replay.log_exhausted", "count");
    ("staticanalysis.analyze_s", "s");
  ]
  @ List.map (fun l -> (l ^ ".self_share", "share")) layers
  @ [
      ("telemetry.overhead_pct", "%");
      ("gc.minor_words_per_op", "words");
      ("gc.major_collections", "count");
    ]

(* Set up at least five times, and on until a second has gone by (at
   most 100 times), keeping the last state; set-up time is the median,
   scaled by calibration slices run before and after every set-up. *)
let setup_repeatedly ~size f =
  let min_reps = match size with Tiny -> 1 | Full -> 5 in
  let slices () =
    for _ = 1 to 10 do
      Calib.slice ()
    done
  in
  let rec go k total times =
    slices ();
    let st, dt = time f in
    slices ();
    let total = total +. dt and times = dt :: times in
    if k + 1 >= min_reps && (total >= 1.0 || k + 1 >= 100 || size = Tiny) then (st, times)
    else go (k + 1) total times
  in
  Calib.reset ();
  let st, times = go 0 0.0 [] in
  (st, Stats.median (Array.of_list times) *. Calib.scale ())

(* Run the workload with the calibration slices it interleaves counted
   from zero; the result's timings are scaled to nominal machine speed. *)
let run_calibrated run state ~seconds ~tr =
  Calib.reset ();
  let (o : outcome) = run state ~seconds ~tr in
  let k = Calib.scale () in
  ({ o with throughput = o.throughput /. k; latencies = Array.map (( *. ) k) o.latencies }, k)

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Self-time shares over the traced run's span forest.  The interpreter
   time inside engine runs ([engine.run_s]) and any solver time the
   library timed move from the concolic layer to their own. *)
let self_shares (tr : Tracing.t) forest =
  let tbl, total = Selftime.rollup forest in
  let sec = Selftime.seconds tbl in
  let run_s = Tracing.hist_sum tr "engine.run_s" in
  let solver_s =
    List.fold_left
      (fun acc h -> acc +. Tracing.hist_sum tr h)
      0.0
      [ "solver.solve_s"; "solver.cache.hit_s"; "solver.cache.miss_solve_s" ]
  in
  let moved = Float.min (sec "concolic") (run_s +. solver_s) in
  let adjusted = function
    | "concolic" -> sec "concolic" -. moved
    | "interp" -> sec "interp" +. Float.min run_s moved
    | "solver" -> sec "solver" +. Float.max 0.0 (moved -. run_s)
    | l -> sec l
  in
  List.map (fun l -> metric (l ^ ".self_share") "share" (Stats.ratio (adjusted l) total)) layers

(* Per-layer rows in canonical order, 0 for anything not measured. *)
let complete rows =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : metric) -> m.name = name) rows with
      | Some m -> m
      | None -> metric name unit_ 0.0)
    per_layer

let make ~name ~setup ~run =
  let measure ~size ~seed ~seconds ~trace =
    let state, setup_s = setup_repeatedly ~size (fun () -> setup ~size ~seed ~tel:Telemetry.disabled) in
    let report (o : outcome) rows metrics =
      {
        correct = o.errors = [] && o.failed = 0;
        attempted = o.attempted;
        failed = o.failed;
        errors = o.errors;
        rows;
        metrics;
      }
    in
    if not trace then begin
      let o, k = run_calibrated run state ~seconds ~tr:Tracing.off in
      let s = Stats.summarize o.latencies in
      let e2e =
        [
          metric "throughput_per_s" "1/s" o.throughput;
          metric "latency_p90_ms" "ms" (1e3 *. s.p90);
          metric "setup_s" "s" setup_s;
        ]
      in
      (* printed, not gated: at two workers the explore frontier, and with
         it the heap's high-water mark, varies run to run by ~30% *)
      let samples =
        [
          (* printed, not gated: the field median sits where the run mix
             changes from diff to µServer runs and moved by a quarter
             between seeds, while p90 held within 8% *)
          metric "latency_p50_ms" "ms" (1e3 *. s.p50);
          metric "machine_scale" "x" k;
          metric "peak_heap_mb" "MB" (peak_heap_mb ());
          metric "latency_samples" "count" (float_of_int s.n);
          (* the highest percentile with at least ten samples beyond it *)
          metric "latency_tail_percentile" "%"
            (100.0 *. Option.value ~default:0.0 s.tail_p);
          metric "latency_tail_ms" "ms" (1e3 *. s.tail);
        ]
      in
      report o (o.named @ e2e @ samples) e2e
    end
    else begin
      (* static analysis runs only in set-up: time it there, traced *)
      let setup_tr = Tracing.on () in
      ignore (setup ~size ~seed ~tel:setup_tr.tel);
      let analyze_s = Tracing.span_seconds (Tracing.forest setup_tr) "analyze.static" in
      let half = seconds /. 2.0 in
      let g0 = Gc.quick_stat () in
      let plain, _ = run_calibrated run state ~seconds:half ~tr:Tracing.off in
      let g1 = Gc.quick_stat () in
      let tr = Tracing.on () in
      let traced, _ =
        Telemetry.Span.with_ tr.tel ~name:"bench.run" (fun _ ->
            run_calibrated run state ~seconds:half ~tr)
      in
      let layer_rows = traced.layers () in
      let forest = Tracing.forest tr in
      let rows =
        layer_rows
        @ self_shares tr forest
        @ [
            metric "staticanalysis.analyze_s" "s" analyze_s;
            metric "telemetry.overhead_pct" "%"
              (100.0 *. (Stats.ratio plain.throughput traced.throughput -. 1.0));
            metric "gc.minor_words_per_op" "words"
              (Stats.ratio (g1.minor_words -. g0.minor_words) (float_of_int plain.attempted));
            metric "gc.major_collections" "count"
              (float_of_int (g1.major_collections - g0.major_collections));
          ]
      in
      let o =
        {
          traced with
          failed = plain.failed + traced.failed;
          errors = plain.errors @ traced.errors;
          attempted = plain.attempted + traced.attempted;
        }
      in
      report o (traced.named @ complete rows) (complete rows)
    end
  in
  { name; measure }

let workloads =
  [
    make ~name:"field" ~setup:Wl_field.setup ~run:Wl_field.run;
    make ~name:"replay" ~setup:Wl_replay.setup ~run:Wl_replay.run;
    make ~name:"fleet" ~setup:Wl_fleet.setup ~run:Wl_fleet.run;
    make ~name:"explore" ~setup:Wl_explore.setup ~run:Wl_explore.run;
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* Result line *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json (r : report) =
  let metric_json (m : metric) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric_json r.metrics))

let finite (r : report) = List.for_all (fun (m : metric) -> Float.is_finite m.value) r.metrics
