(* bugrepro — command-line driver for the bundled workloads.

   $ bugrepro list
   $ bugrepro show paste
   $ bugrepro run paste -- -d , one two
   $ bugrepro demo paste --method dynamic+static
   $ bugrepro demo userver --experiment 3 --method static *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Workload registry *)

type workload = {
  wname : string;
  prog : unit -> Minic.Program.t;
  describe : string;
  demo_crash : int -> Concolic.Scenario.t;  (** experiment number -> scenario *)
  demo_test : unit -> Concolic.Scenario.t;  (** analysis scenario *)
  experiments : string list;
}

let coreutils_workload util =
  let e = Workloads.Coreutils.find util in
  {
    wname = util;
    prog = (fun () -> Lazy.force e.prog);
    describe = e.bug_description;
    demo_crash = (fun _ -> Workloads.Coreutils.crash_scenario e);
    demo_test = (fun () -> Workloads.Coreutils.analysis_scenario e);
    experiments = [ "1: " ^ e.bug_description ];
  }

let userver_workload =
  {
    wname = "userver";
    prog = (fun () -> Lazy.force Workloads.Userver.prog);
    describe = "event-driven web server (µServer analogue, §5.3)";
    demo_crash =
      (fun n -> Workloads.Userver.experiment_scenario (Workloads.Userver.experiment n));
    demo_test =
      (fun () ->
        Workloads.Userver.scenario ~name:"userver-test"
          (Workloads.Http_gen.workload 8));
    experiments =
      List.map
        (fun (e : Workloads.Userver.experiment) ->
          Printf.sprintf "%d: %s" e.id e.description)
        Workloads.Userver.experiments;
  }

let diff_workload =
  {
    wname = "diff";
    prog = (fun () -> Lazy.force Workloads.Diffutil.prog);
    describe = "line differ (input-intensive, §5.4)";
    demo_crash =
      (fun n ->
        if n <= 1 then Workloads.Diffutil.experiment_1 ()
        else Workloads.Diffutil.experiment_2 ());
    demo_test = (fun () -> Workloads.Diffutil.experiment_1 ());
    experiments = [ "1: small file pair"; "2: larger file pair" ];
  }

let mtrace_workload =
  {
    wname = "mtrace";
    prog = (fun () -> Lazy.force Workloads.Mtrace.prog);
    describe = "multithreaded scanner with a check-then-act race (§6)";
    demo_crash = (fun _ -> Workloads.Mtrace.scenario ~seed:3 ());
    demo_test = (fun () -> Workloads.Mtrace.benign_scenario ());
    experiments = [ "1: alert-log overflow under adversarial schedule" ];
  }

let workloads =
  List.map coreutils_workload [ "mkdir"; "mknod"; "mkfifo"; "paste" ]
  @ [ userver_workload; diff_workload; mtrace_workload ]

let find_workload name =
  match List.find_opt (fun w -> String.equal w.wname name) workloads with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %s (known: %s)" name
           (String.concat ", " (List.map (fun w -> w.wname) workloads)))

let method_of_string = function
  | "dynamic" -> Ok Instrument.Methods.Dynamic
  | "static" -> Ok Instrument.Methods.Static
  | "dynamic+static" | "combined" -> Ok Instrument.Methods.Dynamic_static
  | "all" | "all-branches" -> Ok Instrument.Methods.All_branches
  | "none" -> Ok Instrument.Methods.No_instrumentation
  | s -> Error (Printf.sprintf "unknown method %s" s)

(* ------------------------------------------------------------------ *)
(* Commands *)

let list_cmd () =
  List.iter
    (fun w ->
      Printf.printf "%-8s %s\n" w.wname w.describe;
      List.iter (fun e -> Printf.printf "         exp %s\n" e) w.experiments)
    workloads;
  0

let show_cmd name =
  match find_workload name with
  | Error e ->
      prerr_endline e;
      2
  | Ok w ->
      let p = w.prog () in
      Printf.printf
        "%s: %d branch locations (%d application, %d library), %d functions\n"
        w.wname (Minic.Program.nbranches p)
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
  match find_workload name with
  | Error e ->
      prerr_endline e;
      2
  | Ok w ->
      let prog = w.prog () in
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
      (match r.outcome with Interp.Crash.Exit n -> n | _ -> 1)

(* The analyse -> plan -> field-run -> report -> replay pipeline of the
   demo command, driven by one [Pipeline.Config.t]. *)
let demo_pipeline w meth experiment timeout save cfg =
  let prog = w.prog () in
  Printf.printf "== analysing %s ==\n%!" w.wname;
  let analysis =
    Bugrepro.Pipeline.Run.analyze cfg ~test_scenario:(w.demo_test ()) prog
  in
  let plan = Bugrepro.Pipeline.Run.plan cfg analysis meth in
  Printf.printf "method %s instruments %d/%d branch locations\n%!"
    (Instrument.Methods.to_string meth)
    plan.n_instrumented
    (Minic.Program.nbranches prog);
  Printf.printf "== field run (experiment %d) ==\n%!" experiment;
  let crash_sc = w.demo_crash experiment in
  let field, report = Bugrepro.Pipeline.Run.field_run_report cfg ~plan crash_sc in
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
      | Error (Instrument.Wire.Unknown_version v) ->
          (* exit 4: the report names a newer wire format — upgrade the
             tool; distinct from corruption (see the man page) *)
          Printf.eprintf
            "report format version %d not supported (max %d): upgrade bugrepro\n"
            v Instrument.Wire.version;
          4
      | Error (Instrument.Wire.Malformed e) ->
          (* exit 3: corrupt report, mirroring minic_cli's exit-code-3
             convention for type errors *)
          Printf.eprintf "malformed report: %s\n" e;
          3
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

(* Telemetry plumbing shared by demo and fuzz: --trace streams JSONL to a
   file while the pipeline runs, --metrics buffers the events for the
   final span tree and counter table; without either the handle is the
   shared no-op [Telemetry.disabled].  [finish] publishes the counters,
   flushes, closes the trace file and prints the metrics report. *)
let make_telemetry trace metrics =
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

let demo_cmd name meth_s experiment timeout save trace metrics =
  match find_workload name, method_of_string meth_s with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      2
  | Ok w, Ok meth ->
      let tel, finish_telemetry = make_telemetry trace metrics in
      let cfg =
        Bugrepro.Pipeline.Config.(
          default
          |> with_budget
               ~dynamic:{ Concolic.Engine.max_runs = 120; max_time_s = 15.0 }
               ~replay:{ Concolic.Engine.max_runs = 50_000; max_time_s = timeout }
          |> with_analyze_lib (not (String.equal w.wname "userver"))
          |> with_telemetry tel)
      in
      let code = demo_pipeline w meth experiment timeout save cfg in
      finish_telemetry ();
      code

(* ------------------------------------------------------------------ *)
(* Differential fuzzing: generate random MiniC programs, run the
   cross-stage oracles, optionally shrink any counterexample.  With
   --corpus DIR the checked-in repro files are replayed instead of
   generating fresh cases. *)

let fuzz_cmd seed count shrink save_corpus thorough corpus trace metrics =
  let tel, finish_telemetry = make_telemetry trace metrics in
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
(* Report triage over a directory of .report files, plus a deterministic
   batch generator to exercise it.  Exit codes (documented in the man
   pages): 0 = triaged, no cluster starved; 1 = some cluster timed out;
   3 = nothing ingested, inputs malformed beyond salvage; 4 = nothing
   ingested, reports use an unsupported (newer) wire version. *)

(* The wire form names the program by its field-run scenario name (e.g.
   "paste" or "userver-exp3"); resolve it back to a workload by exact
   match first, then by the prefix before the first '-'. *)
let workload_of_program name =
  match find_workload name with
  | Ok w -> Ok w
  | Error _ as err -> (
      match String.index_opt name '-' with
      | None -> err
      | Some i -> find_workload (String.sub name 0 i))

let needs_dynamic = function
  | Instrument.Methods.Dynamic | Instrument.Methods.Dynamic_static -> true
  | Instrument.Methods.No_instrumentation | Instrument.Methods.Static
  | Instrument.Methods.All_branches ->
      false

(* Memoizing resolver for the triage scheduler: one analysis per
   (workload, needs-dynamic) pair and one plan per (workload, method).
   Dynamic analysis only runs when a report's method actually needs its
   labels.  Called sequentially from the scheduling domain, so plain
   hashtables are fine. *)
let make_resolver cfg : Triage.resolve =
  let analyses = Hashtbl.create 8 in
  let plans = Hashtbl.create 8 in
  fun (c : Triage.Cluster.t) ->
    let report = c.Triage.Cluster.representative.Triage.Ingest.report in
    match workload_of_program report.Instrument.Report.program with
    | Error e -> Error e
    | Ok w ->
        let meth = report.Instrument.Report.method_used in
        let cfg =
          Bugrepro.Pipeline.Config.with_analyze_lib
            (not (String.equal w.wname "userver"))
            cfg
        in
        let dyn = needs_dynamic meth in
        let analysis =
          match Hashtbl.find_opt analyses (w.wname, dyn) with
          | Some a -> a
          | None ->
              let a =
                if dyn then
                  Bugrepro.Pipeline.Run.analyze cfg
                    ~test_scenario:(w.demo_test ()) (w.prog ())
                else Bugrepro.Pipeline.Run.analyze cfg (w.prog ())
              in
              Hashtbl.add analyses (w.wname, dyn) a;
              a
        in
        let plan =
          match Hashtbl.find_opt plans (w.wname, meth) with
          | Some p -> p
          | None ->
              let p = Bugrepro.Pipeline.Run.plan cfg analysis meth in
              Hashtbl.add plans (w.wname, meth) p;
              p
        in
        Ok (analysis.Bugrepro.Pipeline.prog, plan)

let triage_cmd dir jobs deadline timeout seed index json trace metrics =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "no such directory: %s\n" dir;
    2
  end
  else begin
    let tel, finish_telemetry = make_telemetry trace metrics in
    let cfg =
      Bugrepro.Pipeline.Config.(
        default
        |> with_jobs (max 1 jobs)
        |> with_seed seed
        |> with_budget
             ~replay:{ Concolic.Engine.max_runs = 50_000; max_time_s = timeout }
        |> with_telemetry tel)
    in
    let policy =
      { (Triage.Sched.policy_of_config cfg) with Triage.Sched.deadline_s = deadline }
    in
    let items, rejected = Triage.Ingest.load_dir dir in
    (* one-shot service sized to the batch: nothing is shed, and nothing
       is replayed before the drain.  Wall-clock rungs keep --deadline and
       --timeout in seconds. *)
    let config =
      {
        Triage.Service.default_config with
        Triage.Service.policy;
        queue_capacity = max 1 (List.length items);
        wall_rungs = true;
        index_dir = index;
      }
    in
    match
      Triage.Service.open_ ~config ~telemetry:tel
        ~resolve:(make_resolver cfg) ()
    with
    | Error e ->
        Printf.eprintf "triage: cannot open index: %s\n"
          (Triage.Index.error_to_string e);
        finish_telemetry ();
        6
    | Ok svc ->
        List.iter (fun i -> ignore (Triage.Service.submit_item svc i)) items;
        let summary = Triage.Service.drain ~rejected svc in
        Triage.Service.close svc;
        print_string (Triage.Summary.to_text summary);
        (match json with
        | Some path ->
            let oc = open_out path in
            output_string oc (Triage.Summary.to_json ~timing:true summary);
            output_string oc "\n";
            close_out oc;
            Printf.printf "json summary written to %s\n" path
        | None -> ());
        finish_telemetry ();
        if items = [] && rejected <> [] then
          if
            List.exists
              (fun (r : Triage.Ingest.rejected) ->
                match r.error with
                | Instrument.Wire.Unknown_version _ -> true
                | Instrument.Wire.Malformed _ -> false)
              rejected
          then 4
          else 3
        else if summary.Triage.Summary.timed_out > 0 then 1
        else 0
  end

(* Deterministic batch generator: record one genuine crash report per
   (workload, method) base, then emit [count] files cycling through the
   bases — the repeats are the duplicates — and tear a seeded subset
   mid-branch-log.  Same (seed, count, torn) => byte-identical batch. *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

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
  let cfg = Bugrepro.Pipeline.Config.default in
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let analyses = Hashtbl.create 8 in
  let wire_of_base (wname, meth) =
    match find_workload wname with
    | Error e -> Error e
    | Ok w -> (
        let analysis =
          match Hashtbl.find_opt analyses wname with
          | Some a -> a
          | None ->
              let a = Bugrepro.Pipeline.Run.analyze cfg (w.prog ()) in
              Hashtbl.add analyses wname a;
              a
        in
        let plan = Bugrepro.Pipeline.Run.plan cfg analysis meth in
        let _field, report =
          Bugrepro.Pipeline.Run.field_run_report cfg ~plan (w.demo_crash 1)
        in
        match report with
        | Some r -> Ok (Instrument.Wire.serialize r)
        | None -> Error (wname ^ ": demo scenario did not crash"))
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
        let key =
          match find_sub wire "branch-enc: " with
          | Some _ -> "branch-enc: "
          | None -> "branch-log: "
        in
        match find_sub wire key with
        | None -> wire
        | Some pos ->
            let start = pos + String.length key in
            let hex_end =
              match String.index_from_opt wire start '\n' with
              | Some e -> e
              | None -> String.length wire
            in
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

(* ------------------------------------------------------------------ *)
(* Streaming triage service: ingest reports as they arrive — from a
   directory watched incrementally and/or from the seeded load generator
   simulating a fleet of crashing clients — through the bounded
   backpressured queue, then drain and summarize.  Exit codes extend the
   triage command's with 5 = ingestion stall (the queue would not drain
   within --max-ticks). *)

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

let serve_cmd dir generate clients torn_pct seed queue drop_s burst window
    tick_every max_ticks index wall_clock jobs deadline timeout snapshot json
    trace metrics =
  match drop_policy_of_string drop_s with
  | Error e ->
      prerr_endline e;
      2
  | Ok drop when generate = 0 && dir = None ->
      ignore drop;
      prerr_endline "serve: nothing to ingest (give DIR and/or --generate N)";
      2
  | Ok drop -> (
      let tel, finish_telemetry = make_telemetry trace metrics in
      let cfg =
        Bugrepro.Pipeline.Config.(
          default
          |> with_jobs (max 1 jobs)
          |> with_seed seed
          |> with_budget
               ~replay:{ Concolic.Engine.max_runs = 50_000; max_time_s = timeout }
          |> with_telemetry tel)
      in
      let policy =
        { (Triage.Sched.policy_of_config cfg) with
          Triage.Sched.deadline_s = deadline }
      in
      let config =
        {
          Triage.Service.default_config with
          Triage.Service.policy;
          queue_capacity = max 1 queue;
          drop;
          burst = max 1 burst;
          window = max 1 window;
          wall_rungs = wall_clock;
          index_dir = index;
        }
      in
      match
        Triage.Service.open_ ~config ~telemetry:tel
          ~resolve:(make_resolver cfg) ()
      with
      | Error e ->
          Printf.eprintf "serve: cannot open index: %s\n"
            (Triage.Index.error_to_string e);
          6
      | Ok svc ->
          let recovered =
            (Triage.Service.snapshot svc).Triage.Service.processed
          in
          if recovered > 0 then
            Printf.printf "recovered %d report(s) from the index\n" recovered;
          (* phase 1: the generated fleet, submitted in seeded order with
             a tick every [tick_every] submissions — faster than the
             service drains on purpose, so backpressure is observable *)
          if generate > 0 then begin
            let gen = Workloads.Report_gen.make ~config:cfg () in
            let stream =
              Workloads.Report_gen.stream gen ~seed ~clients ~torn_pct
                generate
            in
            List.iteri
              (fun i (r : Workloads.Report_gen.report) ->
                ignore (Triage.Service.submit svc ~path:r.path r.wire);
                if (i + 1) mod tick_every = 0 then
                  ignore (Triage.Service.tick svc))
              stream
          end;
          (* phase 2: watch the directory until it stops producing new
             files and the queue is empty (two quiet rounds), bounded by
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
                    ignore (Triage.Service.submit_item svc i))
                  items;
                List.iter
                  (fun (r : Triage.Ingest.rejected) ->
                    Printf.printf "rejected %s: %s\n" r.path
                      (Instrument.Wire.error_to_string r.error))
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
            snap.Triage.Service.submitted snap.Triage.Service.rejected
            snap.Triage.Service.dropped snap.Triage.Service.queued
            snap.Triage.Service.capacity snap.Triage.Service.clusters
            snap.Triage.Service.processed;
          (match snapshot with
          | Some path ->
              let oc = open_out path in
              output_string oc (Triage.Service.snapshot_to_json snap);
              output_string oc "\n";
              close_out oc;
              Printf.printf "snapshot written to %s\n" path
          | None -> ());
          if !stalled then begin
            Printf.eprintf
              "serve: ingestion stalled with %d report(s) still queued \
               after %d tick(s)\n"
              (Triage.Service.queue_depth svc) max_ticks;
            Triage.Service.close svc;
            finish_telemetry ();
            5
          end
          else begin
            let summary = Triage.Service.drain svc in
            Triage.Service.close svc;
            print_string (Triage.Summary.to_text summary);
            (match json with
            | Some path ->
                let oc = open_out path in
                output_string oc
                  (Triage.Summary.to_json ~timing:true summary);
                output_string oc "\n";
                close_out oc;
                Printf.printf "json summary written to %s\n" path
            | None -> ());
            finish_telemetry ();
            if
              summary.Triage.Summary.reports = 0
              && summary.Triage.Summary.rejected <> []
            then
              let vprefix = "unknown report format version" in
              if
                List.exists
                  (fun (_, reason) ->
                    String.length reason >= String.length vprefix
                    && String.sub reason 0 (String.length vprefix) = vprefix)
                  summary.Triage.Summary.rejected
              then 4
              else 3
            else if summary.Triage.Summary.timed_out > 0 then 1
            else 0
          end)

(* The adaptive deployment loop: rounds of field-run -> triage ->
   per-cohort policy refinement.  Exit 3 when a round aborts (a plan
   failed its fail-closed validity check, or a workload stopped
   crashing). *)

let adapt_cmd rounds seed json trace metrics =
  if rounds < 1 then begin
    prerr_endline "adapt: --rounds must be >= 1";
    2
  end
  else begin
    let tel, finish_telemetry = make_telemetry trace metrics in
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
        (match json with
        | Some path ->
            let oc = open_out path in
            output_string oc (Adaptive.Loop.result_to_json result);
            output_string oc "\n";
            close_out oc;
            Printf.printf "json summary written to %s\n" path
        | None -> ());
        finish_telemetry ();
        0
  end

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring *)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

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
  let timeout =
    Arg.(
      value & opt float 20.0
      & info [ "timeout"; "t" ] ~docv:"SECONDS" ~doc:"Replay budget.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the bug report's wire form to FILE.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL telemetry trace (spans, samples, counters) of \
             the whole pipeline to FILE.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the span tree and counter table after the pipeline.")
  in
  Term.(
    const demo_cmd $ workload_arg $ meth $ exp $ timeout $ save $ trace
    $ metrics)

let fuzz_t =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:
            "Campaign seed; per-case seeds derive from it, so a failure's \
             reported seed re-runs alone with --count 1.")
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
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL telemetry trace of the campaign to FILE.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the span tree and counter table after the campaign.")
  in
  Term.(
    const fuzz_cmd $ seed $ count $ shrink $ save_corpus $ thorough $ corpus
    $ trace $ metrics)

let triage_t =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")
  in
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
          ~doc:"Global wall-clock bound for the whole batch.")
  in
  let timeout =
    Arg.(
      value & opt float 20.0
      & info [ "timeout"; "t" ] ~docv:"SECONDS"
          ~doc:"Per-report budget of the ladder's final rung.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:"Batch seed; per-cluster replay seeds derive from it.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the strict-JSON triage summary to FILE.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL telemetry trace of the batch to FILE.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the span tree and counter table after the batch.")
  in
  let index =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"DIR"
          ~doc:
            "Persistent fingerprint index: crash buckets are appended \
             here and reloaded by later batches or serves (exit 6 when \
             the index cannot be opened).")
  in
  Term.(
    const triage_cmd $ dir $ jobs $ deadline $ timeout $ seed $ index $ json
    $ trace $ metrics)

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
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:
            "Service seed: drives per-cluster replay seeds, the sample \
             drop policy and the load generator.")
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
  let index =
    Arg.(
      value
      & opt (some string) None
      & info [ "index" ] ~docv:"DIR"
          ~doc:
            "Persistent fingerprint index: crash buckets are appended \
             here and reloaded on the next serve, so clusters survive \
             restarts.")
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
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains finishing replay courses at drain.")
  in
  let deadline =
    Arg.(
      value & opt float 60.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Wall-clock bound for the drain's replay phase.")
  in
  let timeout =
    Arg.(
      value & opt float 20.0
      & info [ "timeout"; "t" ] ~docv:"SECONDS"
          ~doc:"Per-report budget of the ladder's final rung.")
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
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the strict-JSON drain summary to FILE.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL telemetry trace of the service to FILE.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the span tree and counter table after the drain.")
  in
  Term.(
    const serve_cmd $ dir $ generate $ clients $ torn_pct $ seed $ queue
    $ drop $ burst $ window $ tick_every $ max_ticks $ index $ wall_clock
    $ jobs $ deadline $ timeout $ snapshot $ json $ trace $ metrics)

let adapt_t =
  let rounds =
    Arg.(
      value & opt int 3
      & info [ "rounds"; "r" ] ~docv:"N"
          ~doc:"Deployment rounds to simulate.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:
            "Master seed: log tearing, replay search and the triage \
             service all derive from it, so same seed means \
             byte-identical round summaries.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the strict-JSON per-round summaries to FILE.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a JSONL telemetry trace of every round to FILE.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Print the span tree and counter table after the last round.")
  in
  Term.(const adapt_cmd $ rounds $ seed $ json $ trace $ metrics)

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
    Arg.(
      value & opt int 7
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:
            "Seed for which files arrive torn and where each tear lands; \
             the same (seed, count, torn) writes a byte-identical batch.")
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
