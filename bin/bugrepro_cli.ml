(* bugrepro — command-line driver for the bundled workloads.

   $ bugrepro list
   $ bugrepro show paste
   $ bugrepro run paste -- -d , one two
   $ bugrepro demo paste --method dynamic+static
   $ bugrepro demo userver --experiment 3 --method static *)

open Cmdliner

module Catalog = Workloads.Catalog

let method_of_string = function
  | "dynamic" -> Ok Instrument.Methods.Dynamic
  | "static" -> Ok Instrument.Methods.Static
  | "dynamic+static" | "combined" -> Ok Instrument.Methods.Dynamic_static
  | "all" | "all-branches" -> Ok Instrument.Methods.All_branches
  | "none" -> Ok Instrument.Methods.No_instrumentation
  | s -> Error (Printf.sprintf "unknown method %s" s)


(* ------------------------------------------------------------------ *)
(* Commands *)

let with_entry name k =
  match Catalog.find name with
  | Error e ->
      prerr_endline e;
      2
  | Ok e -> k e

let list_cmd () =
  List.iter
    (fun (e : Catalog.entry) ->
      Printf.printf "%-8s %s\n" e.name e.describe;
      List.iter
        (fun (x : Catalog.experiment) ->
          Printf.printf "         exp %d: %s\n" x.id x.description)
        e.experiments)
    Catalog.entries;
  0

let show_cmd name =
  with_entry name @@ fun e ->
  let p = Lazy.force e.prog in
  Printf.printf
    "%s: %d branch locations (%d application, %d library), %d functions\n"
    e.name (Minic.Program.nbranches p)
    (Minic.Program.app_branch_count p)
    (Minic.Program.lib_branch_count p)
    (List.length p.funcs);
  List.iter
    (fun (f : Minic.Ast.func) ->
      if not f.fis_lib then
        Printf.printf "  %s(%s)\n" f.fname
          (String.concat ", " (List.map fst f.fparams)))
    p.funcs;
  0

let run_cmd name args =
  with_entry name @@ fun e ->
  let prog = Lazy.force e.prog in
  let sc = Concolic.Scenario.make ~name ~args prog in
  let _w, handle = Osmodel.World.kernel sc.world in
  let r =
    Interp.Eval.run prog
      {
        Interp.Eval.inputs = Interp.Inputs.of_strings args;
        kernel = Interp.Kernel.of_world handle;
        hooks = Interp.Eval.no_hooks;
        max_steps = sc.max_steps;
        scheduler = None;
      }
  in
  print_string r.output;
  Printf.printf "-> %s (%d steps)\n" (Interp.Crash.outcome_to_string r.outcome)
    r.steps;
  match r.outcome with Interp.Crash.Exit n -> n | _ -> 1

(* Exit status for reports that cannot be read: 4 when one names a newer
   wire format (upgrade the tool rather than suspect corruption), else 3
   (malformed beyond salvage, mirroring minic_cli's exit-code-3 convention
   for type errors). *)
let wire_error_exit (errors : Instrument.Wire.error list) =
  if
    List.exists
      (function
        | Instrument.Wire.Unknown_version _ -> true
        | Instrument.Wire.Malformed _ -> false)
      errors
  then 4
  else 3

(* Write [text] and a newline to the file the option names, if any. *)
let write_json ~what path text =
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc text;
      output_string oc "\n";
      close_out oc;
      Printf.printf "%s written to %s\n" what path)
    path

(* The analyse -> plan -> field-run -> report -> replay pipeline of the
   demo command, driven by one [Pipeline.Config.t]. *)
let demo_pipeline (e : Catalog.entry) meth experiment timeout save cfg =
  let prog = Lazy.force e.prog in
  Printf.printf "== analysing %s ==\n%!" e.name;
  let analysis =
    Bugrepro.Pipeline.Run.analyze cfg ~test_scenario:(e.analysis ()) prog
  in
  let plan = Bugrepro.Pipeline.Run.plan cfg analysis meth in
  Printf.printf "method %s instruments %d/%d branch locations\n%!"
    (Instrument.Methods.to_string meth)
    plan.n_instrumented
    (Minic.Program.nbranches prog);
  Printf.printf "== field run (experiment %d) ==\n%!" experiment;
  let field, report =
    Bugrepro.Pipeline.Run.field_run_report cfg ~plan (e.crash experiment)
  in
  Printf.printf "outcome: %s\n%!" (Interp.Crash.outcome_to_string field.outcome);
  match report with
  | None ->
      print_endline "no crash, nothing to report";
      0
  | Some report -> (
      Printf.printf "report: %s\n" (Instrument.Report.describe report);
      (* ship the report through its wire form (and optionally to disk):
         the developer-side replay below works from the parsed copy *)
      let wire = Instrument.Wire.serialize report in
      (match save with
      | Some path ->
          let oc = open_out path in
          output_string oc wire;
          close_out oc;
          Printf.printf "wire form written to %s (%d bytes)\n" path
            (String.length wire)
      | None -> ());
      match Instrument.Wire.deserialize_v wire with
      | Error err ->
          Printf.eprintf "cannot read the report back: %s\n"
            (Instrument.Wire.error_to_string err);
          wire_error_exit [ err ]
      | Ok report ->
      Printf.printf "== guided replay (budget %.0fs) ==\n%!" timeout;
      let result, stats = Bugrepro.Pipeline.Run.reproduce cfg ~prog ~plan report in
      Printf.printf
        "cases: %d pinned (2a), %d forced (2b), %d free symbolic (1), %d concrete-mismatch (3b)\n"
        stats.cases.case2a stats.cases.case2b stats.cases.case1
        stats.cases.case3b;
      let c = stats.cache in
      Printf.printf
        "solver cache: %d hits / %d misses (%.0f%% hit rate), %d evictions\n"
        c.hits c.misses
        (100.0 *. Solver.Cache.hit_rate c)
        c.evictions;
      match result with
      | Replay.Guided.Reproduced r ->
          Printf.printf "REPRODUCED in %.3fs after %d runs at %s\n" r.elapsed_s
            r.runs
            (Interp.Crash.to_string r.crash);
          0
      | Replay.Guided.Not_reproduced r ->
          Printf.printf "NOT reproduced (%d runs, %.1fs, timed out: %b)\n" r.runs
            r.elapsed_s r.timed_out;
          1)

(* Telemetry plumbing shared by every command that takes --trace and
   --metrics: --trace streams JSONL to a file while the command runs,
   --metrics buffers the events for the final span tree and counter table;
   without either the handle is the shared no-op [Telemetry.disabled].
   [finish] publishes the counters, flushes, closes the trace file and
   prints the metrics report. *)
let make_telemetry (trace, metrics) =
  let trace_oc = Option.map open_out trace in
  let mem = if metrics then Some (Telemetry.Sink.memory ()) else None in
  let tel =
    match trace_oc, mem with
    | None, None -> Telemetry.disabled
    | Some oc, None -> Telemetry.create ~sink:(Telemetry.Sink.jsonl oc) ()
    | None, Some (s, _) -> Telemetry.create ~sink:s ()
    | Some oc, Some (s, _) ->
        Telemetry.create
          ~sink:(Telemetry.Sink.tee (Telemetry.Sink.jsonl oc) s)
          ()
  in
  let finish () =
    Telemetry.Metrics.publish tel;
    Telemetry.flush tel;
    (match trace_oc with
    | Some oc ->
        close_out oc;
        Printf.printf "trace written to %s\n" (Option.get trace)
    | None -> ());
    match mem with
    | Some (_, events) ->
        let evs = events () in
        print_endline "== telemetry ==";
        print_string (Telemetry.Trace.tree_to_string evs);
        print_string
          (Telemetry.Counters.to_string (Telemetry.Counters.of_core tel))
    | None -> ()
  in
  (tel, finish)

let demo_cmd name meth_s experiment timeout save telemetry =
  match Catalog.find name, method_of_string meth_s with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      2
  | Ok e, Ok meth ->
      let tel, finish_telemetry = make_telemetry telemetry in
      let cfg =
        Bugrepro.Pipeline.Config.(
          default
          |> with_budget
               ~dynamic:{ Concolic.Engine.max_runs = 120; max_time_s = 15.0 }
               ~replay:{ Concolic.Engine.max_runs = 50_000; max_time_s = timeout }
          |> with_analyze_lib e.analyze_lib
          |> with_telemetry tel)
      in
      let code = demo_pipeline e meth experiment timeout save cfg in
      finish_telemetry ();
      code

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: generate random MiniC programs, run the
   cross-stage oracles, optionally shrink any counterexample.  With
   --corpus DIR the checked-in repro files are replayed instead of
   generating fresh cases. *)

let fuzz_cmd seed count shrink save_corpus thorough corpus telemetry =
  let tel, finish_telemetry = make_telemetry telemetry in
  let config =
    Bugrepro.Pipeline.Config.with_telemetry tel
      Fuzz.Oracle.default_cfg.Fuzz.Oracle.config
  in
  let opts =
    {
      Fuzz.Driver.seed;
      count;
      shrink;
      save_corpus;
      thorough;
      config;
    }
  in
  let summary =
    match corpus with
    | Some dir -> Fuzz.Driver.replay_dir opts dir
    | None -> Fuzz.Driver.run opts
  in
  print_endline (Fuzz.Driver.summary_to_string summary);
  finish_telemetry ();
  if Fuzz.Driver.ok summary then 0 else 1

(* ------------------------------------------------------------------ *)
(* Report triage: the one-shot [triage] of a directory and the streaming
   [serve] share their options, their service (opened over a persistent
   index, exit 6 when it cannot be), their plan resolver and their drain.
   Exit codes (documented in the man pages): 0 = triaged, no cluster
   starved; 1 = some cluster timed out; 3 = nothing ingested, inputs
   malformed beyond salvage; 4 = nothing ingested, reports use an
   unsupported (newer) wire version; 5 = serve's ingestion stalled;
   6 = the index cannot be opened. *)

type triage_opts = {
  jobs : int;
  deadline : float;
  timeout : float;
  seed : int;
  index : string option;
  json : string option;
  telemetry : string option * bool;
}

(* Open the service under the options' pipeline config, resolving each
   cluster's report to its retained plan through the catalog, and run [k]
   on it; exit 6 when the index cannot be opened. *)
let with_service name o config k =
  let tel, finish = make_telemetry o.telemetry in
  let cfg =
    Bugrepro.Pipeline.Config.(
      default
      |> with_jobs (max 1 o.jobs)
      |> with_seed o.seed
      |> with_budget
           ~replay:{ Concolic.Engine.max_runs = 50_000; max_time_s = o.timeout }
      |> with_telemetry tel)
  in
  let policy =
    { (Triage.Sched.policy_of_config cfg) with Triage.Sched.deadline_s = o.deadline }
  in
  let memo = Catalog.memo cfg in
  let resolve (c : Triage.Cluster.t) =
    let r = c.representative.report in
    Result.map
      (fun e -> Catalog.plan memo e r.method_used)
      (Catalog.find r.program)
  in
  let config = { config with Triage.Service.policy; index_dir = o.index } in
  match Triage.Service.open_ ~config ~telemetry:tel ~resolve () with
  | Error e ->
      Printf.eprintf "%s: cannot open index: %s\n" name
        (Triage.Index.error_to_string e);
      finish ();
      6
  | Ok svc -> k ~cfg ~finish svc

(* Drain, close and summarize; [errors] are the wire errors met while
   ingesting, which decide the exit status when nothing was accepted. *)
let drain_and_report ?rejected o ~finish ~errors svc =
  let summary = Triage.Service.drain ?rejected svc in
  Triage.Service.close svc;
  print_string (Triage.Summary.to_text summary);
  write_json ~what:"json summary" o.json
    (Triage.Summary.to_json ~timing:true summary);
  finish ();
  if summary.Triage.Summary.reports = 0 && errors <> [] then
    wire_error_exit errors
  else if summary.Triage.Summary.timed_out > 0 then 1
  else 0

let triage_cmd dir o =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "no such directory: %s\n" dir;
    2
  end
  else begin
    let items, rejected = Triage.Ingest.load_dir dir in
    (* one-shot service sized to the batch: nothing is shed, and nothing
       is replayed before the drain.  Wall-clock rungs keep --deadline and
       --timeout in seconds. *)
    let config =
      {
        Triage.Service.default_config with
        queue_capacity = max 1 (List.length items);
        wall_rungs = true;
      }
    in
    with_service "triage" o config @@ fun ~cfg:_ ~finish svc ->
    List.iter (fun i -> ignore (Triage.Service.submit_item svc i)) items;
    drain_and_report ~rejected o ~finish svc
      ~errors:(List.map (fun (r : Triage.Ingest.rejected) -> r.error) rejected)
  end

(* Deterministic batch generator: record one genuine crash report per
   (workload, method) base, then emit [count] files cycling through the
   bases — the repeats are the duplicates — and tear a seeded subset
   mid-branch-log.  Same (seed, count, torn) => byte-identical batch. *)

let batch_bases =
  [
    ("mkdir", Instrument.Methods.All_branches);
    ("mknod", Instrument.Methods.Static);
    ("mkfifo", Instrument.Methods.All_branches);
    ("paste", Instrument.Methods.Static);
    ("mkdir", Instrument.Methods.Static);
    ("paste", Instrument.Methods.All_branches);
  ]

let batch_cmd dir count seed torn =
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let memo = Catalog.memo Bugrepro.Pipeline.Config.default in
  let wire_of_base (name, meth) =
    Result.bind (Catalog.find name) (fun (e : Catalog.entry) ->
        Catalog.record memo e (List.hd e.experiments) meth)
  in
  let wires = List.map wire_of_base batch_bases in
  match List.find_opt Result.is_error wires with
  | Some (Error e) ->
      prerr_endline e;
      2
  | _ ->
      let wires = Array.of_list (List.map Result.get_ok wires) in
      let rng = Osmodel.Rng.create seed in
      (* seeded choice of which report files arrive torn *)
      let torn_at = Array.make count false in
      let torn = min torn count in
      let placed = ref 0 in
      while !placed < torn do
        let i = Osmodel.Rng.int rng count in
        if not torn_at.(i) then begin
          torn_at.(i) <- true;
          incr placed
        end
      done;
      let tear wire =
        match Instrument.Wire.payload_span wire with
        | None -> wire
        | Some (start, hex_end) ->
            let hex_len = hex_end - start in
            if hex_len <= 2 then String.sub wire 0 start
            else
              (* cut somewhere inside the hex so bits are genuinely lost *)
              let cut = start + Osmodel.Rng.range rng 1 (hex_len - 2) in
              String.sub wire 0 cut
      in
      let n_bases = Array.length wires in
      for i = 0 to count - 1 do
        let wire = wires.(i mod n_bases) in
        let wire = if torn_at.(i) then tear wire else wire in
        let path = Filename.concat dir (Printf.sprintf "r%03d.report" i) in
        let oc = open_out path in
        output_string oc wire;
        close_out oc
      done;
      Printf.printf "wrote %d report(s) (%d base bug(s), %d torn) to %s\n"
        count n_bases torn dir;
      0

(* Streaming triage service: ingest reports as they arrive — from a
   directory watched incrementally and/or from the seeded load generator
   simulating a fleet of crashing clients — through the bounded
   backpressured queue, then drain and summarize. *)

let drop_policy_of_string s =
  match s with
  | "reject-new" -> Ok Triage.Service.Reject_new
  | "drop-oldest" -> Ok Triage.Service.Drop_oldest
  | _ ->
      let prefix = "sample:" in
      let pl = String.length prefix in
      if String.length s > pl && String.sub s 0 pl = prefix then
        match float_of_string_opt (String.sub s pl (String.length s - pl)) with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok (Triage.Service.Sample p)
        | _ -> Error (Printf.sprintf "bad sample probability in %s" s)
      else
        Error
          (Printf.sprintf
             "unknown drop policy %s (known: reject-new, drop-oldest, \
              sample:P)"
             s)

let serve_cmd dir generate clients torn_pct queue drop_s burst window
    tick_every max_ticks wall_clock snapshot o =
  match drop_policy_of_string drop_s with
  | Error e ->
      prerr_endline e;
      2
  | Ok _ when generate = 0 && dir = None ->
      prerr_endline "serve: nothing to ingest (give DIR and/or --generate N)";
      2
  | Ok drop ->
      let config =
        {
          Triage.Service.default_config with
          queue_capacity = max 1 queue;
          drop;
          burst = max 1 burst;
          window = max 1 window;
          wall_rungs = wall_clock;
        }
      in
      with_service "serve" o config @@ fun ~cfg ~finish svc ->
      let recovered = (Triage.Service.snapshot svc).Triage.Service.processed in
      if recovered > 0 then
        Printf.printf "recovered %d report(s) from the index\n" recovered;
      (* every wire error met while ingesting, for the exit status *)
      let rejections = ref [] in
      let note : Triage.Service.outcome -> unit = function
        | Rejected e -> rejections := e :: !rejections
        | Queued | Dropped _ -> ()
      in
      (* phase 1: the generated fleet, submitted in seeded order with a
         tick every [tick_every] submissions — faster than the service
         drains on purpose, so backpressure is observable *)
      if generate > 0 then begin
        let gen = Workloads.Report_gen.make ~config:cfg () in
        let stream =
          Workloads.Report_gen.stream gen ~seed:o.seed ~clients ~torn_pct
            generate
        in
        List.iteri
          (fun i (r : Workloads.Report_gen.report) ->
            note (Triage.Service.submit svc ~path:r.path r.wire);
            if (i + 1) mod tick_every = 0 then ignore (Triage.Service.tick svc))
          stream
      end;
      (* phase 2: watch the directory until it stops producing new files
         and the queue is empty (two quiet rounds), bounded by
         --max-ticks *)
      let stalled = ref false in
      (match dir with
      | None ->
          (* still bound the drain of the generated burst *)
          let ticks = ref 0 in
          while Triage.Service.queue_depth svc > 0 && not !stalled do
            let n = Triage.Service.tick svc in
            incr ticks;
            if n = 0 || !ticks > max_ticks then stalled := true
          done
      | Some dir ->
          let scanner = Triage.Ingest.scanner dir in
          let quiet = ref 0 in
          let ticks = ref 0 in
          while !quiet < 2 && not !stalled do
            let items, rejects = Triage.Ingest.poll scanner in
            List.iter
              (fun (i : Triage.Ingest.item) ->
                ignore (Triage.Service.submit_ingested svc (Ok i)))
              items;
            List.iter
              (fun (r : Triage.Ingest.rejected) ->
                Printf.printf "rejected %s: %s\n" r.path
                  (Instrument.Wire.error_to_string r.error);
                note (Triage.Service.submit_ingested svc (Error r)))
              rejects;
            let n = Triage.Service.tick svc in
            incr ticks;
            if items = [] && rejects = [] && n = 0
               && Triage.Service.queue_depth svc = 0
            then incr quiet
            else quiet := 0;
            if !ticks > max_ticks then stalled := true
          done);
      let snap = Triage.Service.snapshot svc in
      Printf.printf
        "ingested: %d submitted, %d rejected, %d dropped, %d queued \
         (capacity %d), %d clusters over %d report(s)\n"
        snap.submitted snap.rejected snap.dropped snap.queued snap.capacity
        snap.clusters snap.processed;
      write_json ~what:"snapshot" snapshot
        (Triage.Service.snapshot_to_json snap);
      if !stalled then begin
        Printf.eprintf
          "serve: ingestion stalled with %d report(s) still queued after \
           %d tick(s)\n"
          (Triage.Service.queue_depth svc) max_ticks;
        Triage.Service.close svc;
        finish ();
        5
      end
      else drain_and_report o ~finish ~errors:!rejections svc

(* The adaptive deployment loop: rounds of field-run -> triage ->
   per-cohort policy refinement.  Exit 3 when a round aborts (a plan
   failed its fail-closed validity check, or a workload stopped
   crashing). *)

let adapt_cmd rounds seed json telemetry =
  if rounds < 1 then begin
    prerr_endline "adapt: --rounds must be >= 1";
    2
  end
  else begin
    let tel, finish_telemetry = make_telemetry telemetry in
    let config =
      {
        Adaptive.Loop.default_config with
        Adaptive.Loop.rounds;
        seed;
        telemetry = tel;
        trace = Some print_endline;
      }
    in
    match Adaptive.Loop.run config with
    | exception Failure msg ->
        Printf.eprintf "adapt: %s\n" msg;
        finish_telemetry ();
        3
    | result ->
        Printf.printf "%s after %d round(s)\n"
          (if result.Adaptive.Loop.converged then "converged" else
             "still refining")
          (List.length result.Adaptive.Loop.rounds);
        write_json ~what:"json summary" json
          (Adaptive.Loop.result_to_json result);
        finish_telemetry ();
        0
  end

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring.  An option several commands take is defined once
   below; only its default or the noun in its doc string varies. *)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

let seed_arg ~default doc =
  Arg.(value & opt int default & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

(* --trace FILE and --metrics, as the pair [make_telemetry] takes *)
let telemetry_t what =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            ("Write a JSONL telemetry trace (spans, samples, counters) of "
            ^ what ^ " to FILE."))
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:("Print the span tree and counter table after " ^ what ^ "."))
  in
  Term.(const (fun t m -> (t, m)) $ trace $ metrics)

let json_arg what =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:("Write the strict-JSON " ^ what ^ " to FILE."))

let timeout_arg =
  Arg.(
    value & opt float 20.0
    & info [ "timeout"; "t" ] ~docv:"SECONDS"
        ~doc:
          "Replay budget per report (under triage, the budget of the \
           ladder's final rung).")

let triage_opts_t ~seed_doc ~what =
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains draining the cluster queue (each cluster's \
             replay stays sequential, so outcomes are job-count \
             independent).")
  in
  let deadline =
    Arg.(
      value & opt float 60.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Wall-clock bound for the replay of the whole batch or drain.")
  in
  let index =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"DIR"
          ~doc:
            "Persistent fingerprint index: crash buckets are appended \
             here and reloaded by later batches or serves, so clusters \
             survive restarts (exit 6 when the index cannot be opened).")
  in
  Term.(
    const (fun jobs deadline timeout seed index json telemetry ->
        { jobs; deadline; timeout; seed; index; json; telemetry })
    $ jobs $ deadline $ timeout_arg
    $ seed_arg ~default:1 seed_doc
    $ index
    $ json_arg (what ^ " summary")
    $ telemetry_t ("the " ^ what))

let list_t = Term.(const list_cmd $ const ())

let show_t = Term.(const show_cmd $ workload_arg)

let run_t =
  let args = Arg.(value & pos_right 0 string [] & info [] ~docv:"ARGS") in
  Term.(const run_cmd $ workload_arg $ args)

let demo_t =
  let meth =
    Arg.(
      value
      & opt string "dynamic+static"
      & info [ "method"; "m" ] ~docv:"METHOD"
          ~doc:"Instrumentation method: dynamic, static, dynamic+static, all, none.")
  in
  let exp =
    Arg.(
      value & opt int 1
      & info [ "experiment"; "e" ] ~docv:"N" ~doc:"Experiment/bug number.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the bug report's wire form to FILE.")
  in
  Term.(
    const demo_cmd $ workload_arg $ meth $ exp $ timeout_arg $ save
    $ telemetry_t "the whole pipeline")

let fuzz_t =
  let seed =
    seed_arg ~default:42
      "Campaign seed; per-case seeds derive from it, so a failure's \
       reported seed re-runs alone with --count 1."
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of cases to generate.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Minimize any violation to a small repro before reporting it \
             (written to the corpus dir, or ./fuzz-failures).")
  in
  let save_corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-corpus" ] ~docv:"DIR"
          ~doc:"Save every generated case (and any repro) under DIR.")
  in
  let thorough =
    Arg.(
      value & flag
      & info [ "thorough" ]
          ~doc:
            "Run every oracle and every instrumentation method on every \
             case instead of rotating the heavy ones across case indices.")
  in
  let corpus =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Replay the .mc repro files under DIR through the oracles \
             instead of generating fresh cases.")
  in
  Term.(
    const fuzz_cmd $ seed $ count $ shrink $ save_corpus $ thorough $ corpus
    $ telemetry_t "the campaign")

let triage_t =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")
  in
  Term.(
    const triage_cmd $ dir
    $ triage_opts_t ~what:"batch"
        ~seed_doc:"Batch seed; per-cluster replay seeds derive from it.")

let serve_t =
  let dir =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:
            "Directory to watch for .report files (scanned incrementally; \
             files appearing while the service runs are ingested too).")
  in
  let generate =
    Arg.(
      value & opt int 0
      & info [ "generate"; "g" ] ~docv:"N"
          ~doc:
            "Synthesize N crash reports from the seeded fleet load \
             generator (coreutils + µServer client crashes, duplicates \
             dominating, a seeded fraction torn) and submit them before \
             watching DIR.")
  in
  let clients =
    Arg.(
      value & opt int 200
      & info [ "clients" ] ~docv:"N"
          ~doc:"Simulated clients behind --generate.")
  in
  let torn_pct =
    Arg.(
      value & opt float 0.1
      & info [ "torn-pct" ] ~docv:"FRACTION"
          ~doc:"Fraction of generated reports that arrive torn mid-log.")
  in
  let queue =
    Arg.(
      value & opt int 256
      & info [ "queue" ] ~docv:"N" ~doc:"Ingest queue capacity.")
  in
  let drop =
    Arg.(
      value & opt string "reject-new"
      & info [ "drop" ] ~docv:"POLICY"
          ~doc:
            "Overload policy for a full queue: $(b,reject-new), \
             $(b,drop-oldest), or $(b,sample:P) (admit with probability \
             P, seeded).")
  in
  let burst =
    Arg.(
      value & opt int 32
      & info [ "burst" ] ~docv:"N" ~doc:"Reports clustered per tick.")
  in
  let window =
    Arg.(
      value & opt int 256
      & info [ "window" ] ~docv:"N"
          ~doc:"Sliding analytics window (reports).")
  in
  let tick_every =
    Arg.(
      value & opt int 64
      & info [ "tick-every" ] ~docv:"N"
          ~doc:
            "Tick once per N generated submissions — deliberately slower \
             than the fleet submits, so backpressure is observable.")
  in
  let max_ticks =
    Arg.(
      value & opt int 10_000
      & info [ "max-ticks" ] ~docv:"N"
          ~doc:
            "Give up (exit 5) if the queue has not drained after N ticks.")
  in
  let wall_clock =
    Arg.(
      value & flag
      & info [ "wall-clock" ]
          ~doc:
            "Bound eager replay rungs by wall-clock time (the paper's \
             ladder).  Default is run-bounded rungs: a borderline \
             cluster's reproduced-vs-timed_out verdict depends only on \
             its replay-run budget, not on scheduling noise.")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Write the post-ingestion service snapshot (queue, drops, \
             clusters, window analytics) as strict JSON to FILE.")
  in
  Term.(
    const serve_cmd $ dir $ generate $ clients $ torn_pct $ queue $ drop
    $ burst $ window $ tick_every $ max_ticks $ wall_clock $ snapshot
    $ triage_opts_t ~what:"drain"
        ~seed_doc:
          "Service seed: drives per-cluster replay seeds, the sample \
           drop policy and the load generator.")

let adapt_t =
  let rounds =
    Arg.(
      value & opt int 3
      & info [ "rounds"; "r" ] ~docv:"N"
          ~doc:"Deployment rounds to simulate.")
  in
  let seed =
    seed_arg ~default:1
      "Master seed: log tearing, replay search and the triage service \
       all derive from it, so same seed means byte-identical round \
       summaries."
  in
  Term.(
    const adapt_cmd $ rounds $ seed
    $ json_arg "per-round summaries"
    $ telemetry_t "every round")

let batch_t =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")
  in
  let count =
    Arg.(
      value & opt int 20
      & info [ "count"; "n" ] ~docv:"N"
          ~doc:"Number of report files to write (duplicates included).")
  in
  let seed =
    seed_arg ~default:7
      "Seed for which files arrive torn and where each tear lands; the \
       same (seed, count, torn) writes a byte-identical batch."
  in
  let torn =
    Arg.(
      value & opt int 3
      & info [ "torn" ] ~docv:"N"
          ~doc:"Number of reports truncated mid-branch-log.")
  in
  Term.(const batch_cmd $ dir $ count $ seed $ torn)

let exit_status_man =
  [
    `S Manpage.s_exit_status;
    `P "$(b,0) on success.";
    `P "$(b,1) when a replay did not reproduce / a triage cluster timed out.";
    `P "$(b,2) on usage errors (unknown workload, missing directory).";
    `P
      "$(b,3) when a bug report is malformed beyond salvage (mirrors \
       minic_cli's exit-code-3 convention for type errors).";
    `P
      "$(b,4) when a bug report uses an unsupported (newer) wire-format \
       version: upgrade this tool rather than suspect corruption.";
    `P
      "$(b,5) when the serve command's ingestion stalls: the queue did \
       not drain within --max-ticks.";
    `P
      "$(b,6) when a persistent fingerprint index (--index) cannot be \
       opened: damaged shard or a newer index format.";
  ]

let cmds =
  [
    Cmd.v (Cmd.info "list" ~doc:"List bundled workloads and experiments") list_t;
    Cmd.v (Cmd.info "show" ~doc:"Show a workload's structure") show_t;
    Cmd.v (Cmd.info "run" ~doc:"Run a workload with the given arguments") run_t;
    Cmd.v
      (Cmd.info "demo"
         ~doc:"Full pipeline: analyse, instrument, crash, report, replay")
      demo_t;
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:
           "Differential fuzzing: random MiniC programs through the \
            cross-stage oracles (replay, labels, cache, wire)")
      fuzz_t;
    Cmd.v
      (Cmd.info "triage" ~man:exit_status_man
         ~doc:
           "Triage a directory of .report files: salvage torn reports, \
            deduplicate by crash fingerprint, replay one representative \
            per cluster under escalating budgets and a global deadline")
      triage_t;
    Cmd.v
      (Cmd.info "serve" ~man:exit_status_man
         ~doc:
           "Streaming triage service: ingest crash reports as they \
            arrive — from a watched directory and/or the seeded fleet \
            load generator — through a bounded backpressured queue with \
            incremental clustering, restart-safe crash buckets and \
            sliding-window analytics, then drain and summarize")
      serve_t;
    Cmd.v
      (Cmd.info "adapt" ~man:exit_status_man
         ~doc:
           "Closed-loop adaptive instrumentation: simulate rounds of a \
            fleet deployment — per-cohort verified plans, field runs, \
            torn-report triage — refining each cohort's instrumentation \
            level from its clusters' replay verdicts")
      adapt_t;
    Cmd.v
      (Cmd.info "batch" ~man:exit_status_man
         ~doc:
           "Write a deterministic batch of crash reports (duplicates and \
            torn tails included) for the triage command")
      batch_t;
  ]

let () =
  let info =
    Cmd.info "bugrepro" ~version:"1.0" ~man:exit_status_man
      ~doc:
        "Partial branch logging and guided symbolic replay (EuroSys'11 \
         reproduction)"
  in
  exit (Cmd.eval' (Cmd.group info cmds))
