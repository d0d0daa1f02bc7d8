(* Workload [replay]: closed loop, one crash report at a time, jobs=1.

   Crash reports of the coreutils, the five µServer experiments and seeded
   diff pairs, recorded under the dynamic, static, dynamic+static and
   all-branches plans, are reproduced with [Pipeline.Run.reproduce] under a
   run cap and no wall-clock cut-off, so every outcome is deterministic.
   The method mix varies how many unlogged symbolic branches replay must
   fork on, the property replay time depends on (paper Tables 4 and 7). *)

open Common
module G = Replay.Guided
module R = Instrument.Report

type report = {
  label : string;
  sc : Concolic.Scenario.t;
  program : program;
  plan : Instrument.Plan.t;
  report : R.t;
}

type t = { reports : report array; seed : int }

(* Reports that need 400 runs or more (seconds each) under the shipped
   analyses would leave too few samples per run; they are left out. *)
let excluded =
  [
    ("mkdir", Methods.Dynamic);
    ("mkdir", Methods.Dynamic_static);
    ("userver-exp3", Methods.Dynamic);
  ]

let setup ~size ~seed ~tel =
  let progs = analyze_all ~tel () in
  let rng = Osmodel.Rng.create seed in
  let coreutils =
    List.map
      (fun (e : Workloads.Coreutils.entry) ->
        (find progs e.util, Workloads.Coreutils.crash_scenario e))
      Workloads.Coreutils.catalog
  in
  let userver = find progs "userver" and diff = find progs "diff" in
  let experiments, pairs =
    match size with
    | Tiny -> ([ Workloads.Userver.experiment 1 ], 1)
    | Full -> (Workloads.Userver.experiments, 2)
  in
  let scenarios =
    coreutils
    @ List.map (fun e -> (userver, Workloads.Userver.experiment_scenario e)) experiments
    @ List.init pairs (fun i ->
          let file_a, file_b = diff_pair ~small:true ~seed:(Osmodel.Rng.int rng 1_000_000) () in
          ( diff,
            Workloads.Diffutil.scenario
              ~name:(Printf.sprintf "diff-pair%d" i)
              ~ignore_case:true ~file_a ~file_b () ))
  in
  let reports =
    List.concat_map
      (fun (program, (sc : Concolic.Scenario.t)) ->
        List.filter_map
          (fun meth ->
            if List.mem (sc.name, meth) excluded then None
            else
              let plan = plan program meth in
              match snd (Run.field_run_report program.cfg ~plan sc) with
              | Some report ->
                  Some
                    {
                      label = sc.name ^ "/" ^ Methods.to_string meth;
                      sc;
                      program;
                      plan;
                      report;
                    }
              | None -> failwith (sc.name ^ ": crash scenario did not crash"))
          Methods.instrumented)
      scenarios
  in
  { reports = Array.of_list reports; seed }

(* Run the program on the synthesised input and check it crashes at the
   report's site. *)
let reexecute (r : report) ~vars ~model ~seed =
  let rk =
    Replay.Rkernel.create ~vars ~model ~shape:r.report.shape
      ~syscall_log:r.report.syscall_log ~seed ()
  in
  let cfg =
    {
      Interp.Eval.default_config with
      inputs = Replay.Rkernel.symbolic_args rk;
      kernel = Replay.Rkernel.kernel rk;
      scheduler =
        (match r.report.schedule_log with
        | Some l when Instrument.Schedule_log.length l > 0 ->
            Some (Instrument.Schedule_log.replaying_scheduler l)
        | _ -> None);
    }
  in
  match (Interp.Eval.run r.program.prog cfg).outcome with
  | Interp.Crash.Crash c -> Interp.Crash.equal_site c r.report.crash
  | _ -> false

let run t ~seconds ~(tr : Tracing.t) =
  let tel = tr.tel in
  let traced = Tracing.enabled tr in
  let c = checks () in
  let lat = ref [] and attempted = ref 0 and failed = ref 0 in
  let first_runs = ref 0 in
  (* every reproduction's counters, in the library's unified view *)
  let total = ref (Telemetry.Counters.make ~scope:"reproduce" []) in
  let rng = Osmodel.Rng.create t.seed in
  let pass ~first =
    let n = ref 0 and busy = ref 0.0 in
    let order = Array.copy t.reports in
    Osmodel.Rng.shuffle rng order;
    Array.iter
      (fun r ->
        let cfg = Config.with_telemetry tel r.program.cfg in
        let (result, (st : G.stats)), dt =
          time (fun () -> Run.reproduce cfg ~prog:r.program.prog ~plan:r.plan r.report)
        in
        lat := dt :: !lat;
        incr attempted;
        incr n;
        busy := !busy +. dt;
        Calib.slice ();
        if first then first_runs := !first_runs + st.engine.runs;
        (match result with
        | G.Reproduced { model; _ } ->
            check c
              (reexecute r ~vars:st.vars ~model ~seed:cfg.seed)
              (fun () -> r.label ^ ": reproduced input misses the crash site")
        | G.Not_reproduced { runs; _ } ->
            incr failed;
            check c false (fun () -> Printf.sprintf "%s: not reproduced in %d runs" r.label runs));
        total := Telemetry.Counters.merge !total (G.counters st))
      order;
    (!n, !busy)
  in
  let throughput = median_pass_rate ~seconds pass in
  let samples = Array.of_list !lat in
  let s = Stats.summarize samples in
  let n = Array.length t.reports in
  let named =
    [
      metric "reproduce_p50_s" "s" s.p50;
      metric "reproduce_p90_s" "s" s.p90;
      metric "reproduce_samples" "count" (float_of_int s.n);
      metric "replay_runs_per_report" "runs"
        (Stats.ratio (float_of_int !first_runs) (float_of_int n));
    ]
  in
  let layers () =
    if not traced then []
    else begin
      let f = float_of_int in
      let count name = Option.value ~default:0 (Telemetry.Counters.find !total name) in
      let per_report name = Stats.ratio (f (count name)) (f !attempted) in
      let forest = Tracing.forest tr in
      (* engine time outside the run function: frontier and solving (the
         incremental solver has no span of its own) *)
      let non_run =
        Tracing.span_seconds forest "engine.explore" -. Tracing.hist_sum tr "engine.run_s"
      in
      let reps = Array.to_list (Array.map (fun r -> r.report) t.reports) in
      let none_cases =
        List.map
          (fun r -> (r.sc, plan r.program Methods.No_instrumentation))
          (Array.to_list t.reports)
      in
      [ interp_ledger none_cases ]
      @ codec_wire_ledger reps
      @ solver_ledger ~calls:(count "engine.solver_calls")
          ~incremental:(count "engine.solved_incremental")
          ~core_pruned:(count "engine.core_pruned") ~unknown:(count "engine.unknown")
          ~pendings:
            (count "engine.sat" + count "engine.unsat" + count "engine.unknown"
           + count "engine.core_pruned")
          ~non_run_s:non_run
          ~hit_rate:
            (Stats.ratio
               (f (count "solver.cache.hits"))
               (f (count "solver.cache.hits" + count "solver.cache.misses")))
      @ [
          metric "replay.attempts" "count"
            (Stats.ratio (f (Tracing.span_count forest "replay.attempt")) (f !attempted));
          metric "replay.case1_forks" "count" (per_report "replay.forked");
          metric "replay.case2b_aborts" "count" (per_report "replay.forced");
          metric "replay.case3b_aborts" "count" (per_report "replay.aborted_contradiction");
          metric "replay.log_exhausted" "count" (per_report "replay.log_exhausted");
        ]
    end
  in
  {
    attempted = !attempted;
    failed = !failed;
    errors = messages c;
    throughput;
    latencies = samples;
    named;
    layers;
  }
