(* E15 — extension: solver cache + parallel replay.
   Not in the paper; measures what the engine rework buys, generation by
   generation: the seed solver, the exact-match solver cache, and the
   worker pool over the shared pending frontier.

   Two sections:
   1. replay configurations on solver-heavy workloads (the coreutils
      ESD-style searches, an unreproducible report whose search exhausts
      the same frontier under every configuration, and a guided µServer
      replay) — every configuration must reach the same reproduction
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
   up, whatever the solver configuration or worker schedule, so this is
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
   speed) across engine configurations. *)
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

let hit_rate_string (stats : Replay.Guided.stats) =
  match stats.cache with
  | None -> "off"
  | Some s ->
      sprintf "%.0f%%"
        (100.0 *. Solver.Cache.hit_rate s)

(* One engine configuration of the replay comparison *)
type econfig = { label : string; e_jobs : int; e_cache : bool }

(* ------------------------------------------------------------------ *)
(* Section 1: replay configurations *)

let replay_section (c : Ctx.t) par_jobs =
  let configs =
    [
      { label = "j1 fresh (seed)"; e_jobs = 1; e_cache = false };
      { label = "j1 +cache (PR 2)"; e_jobs = 1; e_cache = true };
      { label = sprintf "j%d +cache" par_jobs; e_jobs = par_jobs;
        e_cache = true };
    ]
  in
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
      (* set once a jobs=1 configuration runs out of budget: the search is
         budget-cut, so the parallel configuration is not timed on it *)
      let budget_cut = ref false in
      List.iter
        (fun ec ->
          if ec.e_jobs > 1 && !budget_cut then
            rows :=
              [ case.cname; ec.label; "-"; "-"; "-";
                "skipped (budget-cut search)" ]
              :: !rows
          else begin
            let (result, stats), wall =
              Util.time_call (fun () ->
                  Replay.Guided.reproduce ~budget:case.budget
                    ~seed:cfg.Bugrepro.Pipeline.Config.seed
                    ~max_steps:cfg.replay_max_steps ~jobs:ec.e_jobs
                    ~solver_cache:ec.e_cache
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
            let key =
              sprintf "%s/j%d%s" case.cname ec.e_jobs
                (if ec.e_cache then "+cache" else "")
            in
            Util.record_metric ~experiment:"E15" (key ^ "/seconds") wall;
            Util.record_metric ~experiment:"E15" (key ^ "/speedup") speedup;
            (match stats.cache with
            | Some s ->
                Util.record_metric ~experiment:"E15" (key ^ "/hit_rate")
                  (Solver.Cache.hit_rate s)
            | None -> ());
            rows :=
              [
                case.cname;
                ec.label;
                Util.seconds wall;
                sprintf "%.2fx" speedup;
                hit_rate_string stats;
                (match result with
                | Replay.Guided.Reproduced r ->
                    sprintf "repro (%d runs)" r.runs
                | Replay.Guided.Not_reproduced r ->
                    sprintf "NOT repro (%d runs)" r.runs);
              ]
              :: !rows
          end)
        configs;
      (match !verdicts with
      | v :: vs when not (List.for_all (Bool.equal v) vs) ->
          all_agree := false;
          Printf.printf "!! verdict mismatch across configurations on %s\n"
            case.cname
      | _ -> ()))
    cases;
  Util.table
    ([ "workload"; "configuration"; "wall clock"; "speedup"; "cache";
       "verdict" ]
    :: List.rev !rows);
  Util.record_metric ~experiment:"E15" "verdicts_agree"
    (if !all_agree then 1.0 else 0.0);
  Printf.printf "verdict parity across configurations: %s\n"
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
       "Solver cache + parallel frontier: engine generations and a jobs \
        curve (vs %d worker domains)"
       par_jobs);
  replay_section c par_jobs;
  print_newline ();
  explore_section c par_jobs;
  print_endline
    "expected shape: the cache speeds up the no-log searches (sibling\n\
     pendings share long constraint prefixes); worker domains only change\n\
     wall clock, never verdicts or labels."
