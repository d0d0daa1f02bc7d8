(* E15 — extension: parallel replay over the memoizing solver cache.
   Not in the paper; measures what the worker pool over the shared pending
   frontier buys against the sequential search.  Both solve through the
   exact-match solver cache (the cache-off configuration lost on every
   row when it was last measured; see EXPERIMENTS.md).

   Two sections:
   1. replay at jobs=1 and jobs=N on solver-heavy workloads (the coreutils
      ESD-style searches, an unreproducible report whose search exhausts
      the same frontier under every worker count, and a guided µServer
      replay) — every worker count must reach the same reproduction
      verdict;
   2. a speedup-vs-jobs exploration curve (jobs 1/2/N) with label-map
      parity.

   Every timed row does work that the worker schedule cannot change: a
   jobs=1 search is deterministic, and a multi-worker search is timed only
   where it ends inside its budget (a reproduction or an exhausted
   frontier).  A budget-cut multi-worker search spends its budget on
   whichever runs the schedule reaches first, so its wall clock would
   measure the schedule rather than the engine. *)

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
   replay is pure symbolic search — the E5b setting, replayed here under
   the engine configurations. *)
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
   program).  Every search exhausts the same finite frontier and gives
   up, whatever the worker schedule, so this is
   the heavy search on which the parallel configuration's wall clock
   measures the engine.
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
   real branch log, to confirm guided replay keeps its verdict (and its
   speed) across worker counts. *)
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
(* Section 1: replay at jobs=1 and jobs=N *)

let replay_section (c : Ctx.t) par_jobs =
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
  let rows = ref [] in
  let all_agree = ref true in
  List.iter
    (fun case ->
      let baseline = ref nan in
      let verdicts = ref [] in
      (* set once the jobs=1 search runs out of budget: the search is
         budget-cut, so the parallel one is not timed on it *)
      let budget_cut = ref false in
      List.iter
        (fun jobs ->
          let label = sprintf "j%d" jobs in
          if jobs > 1 && !budget_cut then
            rows :=
              [ case.cname; label; "-"; "-"; "-";
                "skipped (budget-cut search)" ]
              :: !rows
          else begin
            let (result, stats), wall =
              Util.time_call (fun () ->
                  Replay.Guided.reproduce ~budget:case.budget
                    ~seed:cfg.Bugrepro.Pipeline.Config.seed
                    ~max_steps:cfg.replay_max_steps ~jobs
                    ?max_attempts:case.attempts ~telemetry:cfg.telemetry
                    ~prog:case.prog ~plan:case.plan case.report)
            in
            (match result with
            | Replay.Guided.Not_reproduced { timed_out = true; _ } ->
                budget_cut := true
            | Replay.Guided.Reproduced _ | Replay.Guided.Not_reproduced _ ->
                ());
            if Float.is_nan !baseline then baseline := wall;
            let speedup = !baseline /. wall in
            verdicts := Replay.Guided.reproduced result :: !verdicts;
            (* keys keep their "+cache" suffix so recorded baselines
               stay comparable *)
            let key = sprintf "%s/j%d+cache" case.cname jobs in
            let hit_rate = Solver.Cache.hit_rate stats.cache in
            Util.record_metric ~experiment:"E15" (key ^ "/seconds") wall;
            Util.record_metric ~experiment:"E15" (key ^ "/speedup") speedup;
            Util.record_metric ~experiment:"E15" (key ^ "/hit_rate") hit_rate;
            rows :=
              [
                case.cname;
                label;
                Util.seconds wall;
                sprintf "%.2fx" speedup;
                sprintf "%.0f%%" (100.0 *. hit_rate);
                (match result with
                | Replay.Guided.Reproduced r ->
                    sprintf "repro (%d runs)" r.runs
                | Replay.Guided.Not_reproduced r ->
                    sprintf "NOT repro (%d runs)" r.runs);
              ]
              :: !rows
          end)
        [ 1; par_jobs ];
      (match !verdicts with
      | v :: vs when not (List.for_all (Bool.equal v) vs) ->
          all_agree := false;
          Printf.printf "!! verdict mismatch across worker counts on %s\n"
            case.cname
      | _ -> ()))
    cases;
  Util.table
    ([ "workload"; "jobs"; "wall clock"; "speedup"; "cache hits"; "verdict" ]
    :: List.rev !rows);
  Util.record_metric ~experiment:"E15" "verdicts_agree"
    (if !all_agree then 1.0 else 0.0);
  Printf.printf "verdict parity across worker counts: %s\n"
    (if !all_agree then "OK" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* Section 2: exploration speedup-vs-jobs curve *)

let explore_section (c : Ctx.t) par_jobs =
  let e = Workloads.Coreutils.find "mkdir" in
  let sc () = Workloads.Coreutils.analysis_scenario e in
  let budget =
    { Concolic.Engine.max_runs = c.hc_runs; max_time_s = c.analysis_time_s }
  in
  let rate (r : Concolic.Dynamic.result) =
    if r.elapsed_s > 0.0 then float_of_int r.runs /. r.elapsed_s else 0.0
  in
  let points = List.sort_uniq Stdlib.compare [ 1; 2; par_jobs ] in
  let runs =
    List.map
      (fun jobs ->
        ( jobs,
          Concolic.Dynamic.analyze ~budget ~jobs ~telemetry:c.telemetry
            (sc ()) ))
      points
  in
  let base_rate = match runs with (1, r) :: _ -> rate r | _ -> 0.0 in
  Util.table
    ([ "exploration"; "runs"; "elapsed"; "runs/s"; "speedup"; "coverage" ]
    :: List.map
         (fun (jobs, (r : Concolic.Dynamic.result)) ->
           [
             sprintf "jobs=%d" jobs;
             string_of_int r.runs;
             Util.seconds r.elapsed_s;
             sprintf "%.0f" (rate r);
             (if base_rate > 0.0 then sprintf "%.2fx" (rate r /. base_rate)
              else "-");
             sprintf "%.0f%%" (100.0 *. r.coverage);
           ])
         runs);
  List.iter
    (fun (jobs, r) ->
      Util.record_metric ~experiment:"E15"
        (sprintf "explore/j%d_runs_per_s" jobs)
        (rate r))
    runs;
  (* Label parity is only meaningful on explorations that drain the whole
     frontier: a budget-truncated search visits whichever branches its
     worker schedule reached first.  The mkdir curve above never exhausts
     in bench budgets, so the parity check runs on the paste crash
     scenario, whose frontier drains in well under a second. *)
  let parity_budget =
    { Concolic.Engine.max_runs = 6_000; max_time_s = c.analysis_time_s }
  in
  let parity_runs =
    List.map
      (fun jobs ->
        let e = Workloads.Coreutils.find "paste" in
        Concolic.Dynamic.analyze ~budget:parity_budget ~jobs
          ~telemetry:c.telemetry
          (Workloads.Coreutils.crash_scenario e))
      points
  in
  let all_exhausted =
    List.for_all
      (fun (r : Concolic.Dynamic.result) ->
        r.runs < parity_budget.max_runs)
      parity_runs
  in
  let labels_equal =
    all_exhausted
    &&
    match parity_runs with
    | first :: rest ->
        List.for_all
          (fun (r : Concolic.Dynamic.result) -> r.labels = first.labels)
          rest
    | [] -> true
  in
  Util.record_metric ~experiment:"E15" "explore/labels_identical"
    (if labels_equal then 1.0 else 0.0);
  Printf.printf
    "label maps identical across jobs on the exhausted frontier: %b%s\n"
    labels_equal
    (if all_exhausted then "" else " (NOT EXHAUSTED — check budget)")

let e15 (c : Ctx.t) =
  let par_jobs = if c.jobs > 1 then c.jobs else 4 in
  Util.section ~id:"E15" ~paper:"extension"
    (sprintf
       "Parallel frontier over the solver cache: replay and a jobs curve \
        (vs %d worker domains)"
       par_jobs);
  replay_section c par_jobs;
  print_newline ();
  explore_section c par_jobs;
  print_endline
    "expected shape: the no-log searches hit the cache often (sibling\n\
     pendings share long constraint prefixes); worker domains only change\n\
     wall clock, never verdicts or labels."
