(* E15 — extension: replay over the memoizing solver cache.
   Not in the paper; times solver-heavy searches, each on one worker,
   through the exact-match solver cache (the cache-off configuration lost
   on every row when it was last measured; see EXPERIMENTS.md).

   Two sections:
   1. replay on solver-heavy workloads (the coreutils ESD-style searches,
      an unreproducible report whose search exhausts its frontier, and a
      guided µServer replay): wall clock, cache hit rate, verdict and run
      count;
   2. the exploration rate (runs/s) of a dynamic analysis.

   Every search is deterministic, so the verdicts, run counts and hit
   rates repeat from run to run unless a wall-clock cap cuts a search
   first (the no-log mkdir search, on a slow host). *)

let sprintf = Printf.sprintf

type case = {
  cname : string;
  prog : Minic.Program.t;
  plan : Instrument.Plan.t;
  report : Instrument.Report.t;
  budget : Concolic.Engine.budget;
  attempts : int option;  (** reseeded restarts; [None] = until the budget *)
}

(* ESD-style search: crash report with an empty instrumentation plan, so
   replay is pure symbolic search — the E5b setting, replayed here through
   the solver cache. *)
let coreutils_case (c : Ctx.t) util =
  let e = Workloads.Coreutils.find util in
  let prog = Lazy.force e.prog in
  let none =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.No_instrumentation
  in
  let _, report =
    Bugrepro.Pipeline.Run.field_run_report (Ctx.pipeline_config c) ~plan:none
      (Workloads.Coreutils.crash_scenario e)
  in
  Option.map
    (fun report ->
      {
        cname = util ^ " (no log)";
        prog;
        plan = none;
        report;
        budget =
          { (Ctx.replay_budget c) with max_time_s = 3.0 *. c.replay_time_s };
        attempts = None;
      })
    report

(* A report that no input reproduces: the no-log report of [util] with its
   crash kind rewritten to use-after-free, which the program never raises
   at that site — what replay sees of a field crash caused by the
   environment (a hardware fault, memory corrupted from outside the
   program).  The search exhausts a finite frontier and gives up, so its
   wall clock measures the engine and the cache, not a budget.
   Three reseeded attempts, each exhausting the frontier, make it heavy
   enough to time; the run and time budgets never bind. *)
let unreproducible_case (c : Ctx.t) util =
  Option.map
    (fun case ->
      let crash = case.report.Instrument.Report.crash in
      {
        case with
        cname = util ^ " (unreproducible)";
        report =
          { case.report with
            crash = { crash with kind = Interp.Crash.Use_after_free } };
        attempts = Some 3;
      })
    (coreutils_case c util)

(* µServer experiment 1 under the static plan: the Table 3 setting with a
   real branch log. *)
let userver_case (c : Ctx.t) =
  let prog = Lazy.force Workloads.Userver.prog in
  let static = Staticanalysis.Static.analyze ~analyze_lib:false prog in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      ~static:static.labels Instrument.Methods.Static
  in
  let sc =
    Workloads.Userver.experiment_scenario (Workloads.Userver.experiment 1)
  in
  let _, report =
    Bugrepro.Pipeline.Run.field_run_report (Ctx.pipeline_config c) ~plan sc
  in
  Option.map
    (fun report ->
      { cname = "userver exp 1 (static)"; prog; plan; report;
        budget = Ctx.replay_budget c; attempts = None })
    report

(* ------------------------------------------------------------------ *)
(* Section 1: replay *)

let replay_section (c : Ctx.t) =
  let cases =
    List.filter_map Fun.id
      [
        coreutils_case c "paste";
        coreutils_case c "mkdir";
        unreproducible_case c "paste";
        userver_case c;
      ]
  in
  let cfg = Ctx.pipeline_config c in
  let rows =
    List.map
      (fun case ->
        let (result, stats), wall =
          Util.time_call (fun () ->
              Replay.Guided.reproduce ~budget:case.budget
                ~seed:cfg.Bugrepro.Pipeline.Config.seed
                ?max_attempts:case.attempts
                ~telemetry:cfg.telemetry ~prog:case.prog ~plan:case.plan
                case.report)
        in
        (* keys keep their "j1+cache" infix so recorded baselines stay
           comparable *)
        let key = case.cname ^ "/j1+cache" in
        let hit_rate = Solver.Cache.hit_rate stats.cache in
        Util.record_metric ~experiment:"E15" (key ^ "/seconds") wall;
        Util.record_metric ~experiment:"E15" (key ^ "/hit_rate") hit_rate;
        [
          case.cname;
          Util.seconds wall;
          sprintf "%.0f%%" (100.0 *. hit_rate);
          (match result with
          | Replay.Guided.Reproduced r -> sprintf "repro (%d runs)" r.runs
          | Replay.Guided.Not_reproduced r ->
              sprintf "NOT repro (%d runs)" r.runs);
        ])
      cases
  in
  Util.table ([ "workload"; "wall clock"; "cache hits"; "verdict" ] :: rows)

(* ------------------------------------------------------------------ *)
(* Section 2: exploration rate *)

let explore_section (c : Ctx.t) =
  let e = Workloads.Coreutils.find "mkdir" in
  let budget =
    { Concolic.Engine.max_runs = c.hc_runs; max_time_s = c.analysis_time_s }
  in
  let r =
    Concolic.Dynamic.analyze ~budget ~telemetry:c.telemetry
      (Workloads.Coreutils.analysis_scenario e)
  in
  let rate =
    if r.elapsed_s > 0.0 then float_of_int r.runs /. r.elapsed_s else 0.0
  in
  Util.table
    [
      [ "exploration"; "runs"; "elapsed"; "runs/s"; "coverage" ];
      [
        "mkdir (dynamic analysis)";
        string_of_int r.runs;
        Util.seconds r.elapsed_s;
        sprintf "%.0f" rate;
        sprintf "%.0f%%" (100.0 *. r.coverage);
      ];
    ];
  (* the key keeps its "j1" infix so recorded baselines stay comparable *)
  Util.record_metric ~experiment:"E15" "explore/j1_runs_per_s" rate

let e15 (c : Ctx.t) =
  Util.section ~id:"E15" ~paper:"extension"
    "Replay over the solver cache, one worker per search";
  replay_section c;
  print_newline ();
  explore_section c;
  print_endline
    "expected shape: the no-log searches hit the cache often (sibling\n\
     pendings share long constraint prefixes)."
