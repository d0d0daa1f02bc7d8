(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), plus ablations and extensions.
   See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
   paper-vs-measured results.

   Usage:
     dune exec bench/main.exe                 # default scale
     dune exec bench/main.exe -- --quick      # fast smoke pass
     dune exec bench/main.exe -- --full       # paper-scale workloads
     dune exec bench/main.exe -- --only E9,E13
     dune exec bench/main.exe -- --jobs 4 --only E16,E17  # cluster pool size
     dune exec bench/main.exe -- --quick --json bench.json
     dune exec bench/main.exe -- --requests 2000 --replay-timeout 30 *)

let experiments : (string * string * (Ctx.t -> unit)) list =
  [
    ("E1", "§5.1 microbench 1: loop instrumentation overhead", Bench_micro.e1);
    ("E2", "§5.1 microbench 2: Listing 1 fibonacci", Bench_micro.e2);
    ("E3", "Figure 1: mkdir branch behaviour", Bench_coreutils.e3);
    ("E4", "Figure 2: mkdir CPU time", Bench_coreutils.e4);
    ("E5", "Table 1: coreutils replay times", Bench_coreutils.e5);
    ("E6", "Figure 3: µServer branch behaviour", Bench_userver.e6);
    ("E7", "Table 2: µServer instrumented locations", Bench_userver.e7);
    ("E8", "Figure 4: µServer CPU time and storage", Bench_userver.e8);
    ("E9", "Tables 3 and 4: µServer replay", Bench_userver.e9_e10);
    ("E11", "Tables 5 and 8: replay without syscall logging", Bench_userver.e11);
    ("A1", "ablation: syscall-logging overhead", Bench_userver.a1);
    ("A2", "ablation: dynamic-analysis budget sweep", Bench_userver.a2);
    ("A3", "extension: checkpointing (§6)", Bench_ext.a3);
    ("A4", "extension: branch-log compression", Bench_ext.a4);
    ("A5", "ablation: branch-prediction logging (§4)", Bench_ext.a5);
    ("A6", "extension: multithreading + schedule log (§6)", Bench_ext.a6);
    ("E12", "Figure 5: diff CPU time", Bench_diff.e12);
    ("E13", "Tables 6 and 7: diff replay", Bench_diff.e13_e14);
    ("E15", "extension: replay over the solver cache",
     Bench_parallel.e15);
    ("E16", "extension: batch triage (salvage + dedup + scheduler)",
     Bench_triage.e16);
    ("E17", "extension: streaming triage service (ingest + restart + drain)",
     Bench_streaming.e17);
    ("E18", "extension: online branch-log encoding (wire v4)", Bench_codec.e18);
    ("E19", "extension: closed-loop adaptive instrumentation",
     Bench_adaptive.e19);
  ]

let parse_args () : Ctx.t * string option * string option * string option =
  let ctx = ref Ctx.default in
  let json = ref None in
  let trace = ref None in
  let compare = ref None in
  (* scale presets replace the budget knobs but must keep the explicit
     selections (--only/--jobs) already parsed *)
  let rescale preset =
    ctx :=
      {
        preset with
        Ctx.only = !ctx.only;
        jobs = !ctx.jobs;
        telemetry = !ctx.telemetry;
      }
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        rescale Ctx.quick;
        go rest
    | "--full" :: rest ->
        rescale Ctx.full;
        go rest
    | "--only" :: ids :: rest ->
        ctx := { !ctx with only = String.split_on_char ',' ids };
        go rest
    | "--requests" :: n :: rest ->
        ctx := { !ctx with requests = int_of_string n };
        go rest
    | "--replay-timeout" :: s :: rest ->
        ctx := { !ctx with replay_time_s = float_of_string s };
        go rest
    | ("--jobs" | "-j") :: n :: rest ->
        ctx := { !ctx with jobs = max 1 (int_of_string n) };
        go rest
    | "--json" :: path :: rest ->
        json := Some path;
        go rest
    | "--compare" :: path :: rest ->
        compare := Some path;
        go rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        go rest
    | "--help" :: _ ->
        print_endline
          "options: --quick | --full | --only <ids> | --jobs <n> (E16/E17 \
           cluster pool) | \
           --json <file> | --compare <baseline.json> | --trace <file> | \
           --requests <n> | --replay-timeout <s>";
        print_endline "experiments:";
        List.iter (fun (id, d, _) -> Printf.printf "  %-4s %s\n" id d) experiments;
        exit 0
    | arg :: _ ->
        Printf.eprintf "unknown option %s (try --help)\n" arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  (!ctx, !json, !trace, !compare)

let () =
  let ctx, json, trace, compare = parse_args () in
  let trace_oc = Option.map open_out trace in
  let ctx =
    match trace_oc with
    | None -> ctx
    | Some oc ->
        { ctx with telemetry = Telemetry.create ~sink:(Telemetry.Sink.jsonl oc) () }
  in
  Printf.printf
    "Reproduction benchmarks: \"Striking a New Balance Between Program\n\
     Instrumentation and Debugging Time\" (EuroSys 2011)\n";
  Printf.printf
    "scale: %s | %d requests | replay budget %.0fs | LC/HC = %d/%d analysis \
     runs | jobs %d\n"
    (if ctx.quick then "quick" else "default/full")
    ctx.requests ctx.replay_time_s ctx.lc_runs ctx.hc_runs ctx.jobs;
  let t0 = Unix.gettimeofday () in
  let durations = ref [] in
  List.iter
    (fun (id, _, f) ->
      if Ctx.wants ctx id then begin
        let (), dt =
          Util.time_call (fun () ->
              Telemetry.Span.with_ ctx.telemetry ~name:("bench." ^ id)
                (fun _ -> f ctx))
        in
        durations := (id, dt) :: !durations;
        Printf.printf "[%s completed in %.1fs]\n%!" id dt
      end)
    experiments;
  Printf.printf "\nAll selected experiments done in %.1fs.\n"
    (Unix.gettimeofday () -. t0);
  (* finalize the trace artifact, then re-read and self-validate it: CI
     keeps the file only if every span closed, times are ordered and
     parents resolve *)
  (match trace_oc, trace with
  | Some oc, Some path ->
      Telemetry.Metrics.publish ctx.telemetry;
      (* fold the final counters into the JSON summary so every bench row
         can carry the trace-derived breakdown *)
      let snap = Telemetry.Counters.of_core ctx.telemetry in
      List.iter
        (fun (k, v) ->
          Util.record_metric ~experiment:"telemetry" k (float_of_int v))
        snap.Telemetry.Counters.counters;
      Telemetry.flush ctx.telemetry;
      close_out oc;
      (match Telemetry.Trace.validate_file path with
      | Ok s ->
          Printf.printf "trace written to %s (%d events, %d spans, valid)\n"
            path s.events s.spans
      | Error e ->
          Printf.eprintf "trace %s INVALID: %s\n" path e;
          exit 3)
  | _ -> ());
  (match json with
  | None -> ()
  | Some path ->
      Util.write_json_summary ~path
        ~meta:
          [
            ("scale", if ctx.quick then "quick" else "default/full");
            ("jobs", string_of_int ctx.jobs);
            ("requests", string_of_int ctx.requests);
            ("replay_budget_s", Printf.sprintf "%.0f" ctx.replay_time_s);
            ("trace", match trace with Some t -> t | None -> "");
          ]
        ~experiments:(List.rev !durations) ();
      (* re-read the summary through the perf gate's own loader, so a
         file the gate could not read fails here, not in a later run *)
      match Compare.load path with
      | Ok _ -> Printf.printf "JSON summary written to %s (valid)\n" path
      | Error e ->
          Printf.eprintf "JSON summary %s INVALID: %s\n" path e;
          exit 3);
  (* perf-regression gate: diff this run against a recorded baseline and
     fail the process on any >25% regression (see Compare for the
     direction rules; bin/refresh-baselines.sh refreshes the files) *)
  match compare with
  | None -> ()
  | Some path -> (
      match Compare.load path with
      | Error e ->
          Printf.eprintf "cannot load baseline: %s\n" e;
          exit 2
      | Ok baseline ->
          Printf.printf "\n== perf gate vs %s ==\n" path;
          let regressions =
            Compare.check ~baseline ~experiments:(List.rev !durations)
              ~metrics:(List.rev !Util.metrics)
          in
          if regressions > 0 then exit 1)
