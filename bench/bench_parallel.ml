(* E15 — extension: incremental solving + parallel replay.
   Not in the paper; measures what the engine rework buys, generation by
   generation: the seed engine, the exact-match solver cache, the scoped
   incremental solver (learned-core pruning + strategy portfolio), and the
   worker pool over the shared pending frontier.

   Three sections:
   1. replay configurations on solver-heavy workloads (the coreutils
      ESD-style searches, an unreproducible report whose search exhausts
      the same frontier under every configuration, and a guided µServer
      replay) — every configuration must reach the same reproduction
      verdict;
   2. a speedup-vs-jobs exploration curve (jobs 1/2/N) with label-map
      parity;
   3. the E16-style triage batch replayed under the PR-2 configuration
      (cache only) vs the full incremental stack, with the
      solved-incrementally / core-pruned / cores-learned counters.

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
type econfig = {
  label : string;
  e_jobs : int;
  e_cache : bool;
  e_incr : bool;
}

(* ------------------------------------------------------------------ *)
(* Section 1: replay configurations *)

let replay_section (c : Ctx.t) par_jobs =
  let configs =
    [
      { label = "j1 fresh (seed)"; e_jobs = 1; e_cache = false;
        e_incr = false };
      { label = "j1 +cache (PR 2)"; e_jobs = 1; e_cache = true;
        e_incr = false };
      { label = "j1 +incremental"; e_jobs = 1; e_cache = true;
        e_incr = true };
      { label = sprintf "j%d +incr" par_jobs; e_jobs = par_jobs;
        e_cache = true; e_incr = true };
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
  let tot_pruned = ref 0 and tot_incr = ref 0 and tot_calls = ref 0 in
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
              [ case.cname; ec.label; "-"; "-"; "-"; "-"; "-";
                "skipped (budget-cut search)" ]
              :: !rows
          else begin
            let (result, stats), wall =
              Util.time_call (fun () ->
                  Replay.Guided.reproduce ~budget:case.budget
                    ~seed:cfg.Bugrepro.Pipeline.Config.seed
                    ~max_steps:cfg.replay_max_steps ~jobs:ec.e_jobs
                    ~solver_cache:ec.e_cache ~incremental:ec.e_incr
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
            let eng = stats.Replay.Guided.engine in
            tot_pruned := !tot_pruned + eng.core_pruned;
            tot_incr := !tot_incr + eng.solved_incremental;
            tot_calls := !tot_calls + eng.solver_calls;
            let key =
              sprintf "%s/%s" case.cname
                (sprintf "j%d%s%s" ec.e_jobs
                   (if ec.e_cache then "+cache" else "")
                   (if ec.e_incr then "+incr" else ""))
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
                (if eng.solver_calls = 0 then "-"
                 else
                   sprintf "%d/%d" eng.solved_incremental eng.solver_calls);
                string_of_int eng.core_pruned;
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
       "incr solved"; "pruned"; "verdict" ]
    :: List.rev !rows);
  Util.record_metric ~experiment:"E15" "verdicts_agree"
    (if !all_agree then 1.0 else 0.0);
  Util.record_metric ~experiment:"E15" "replay/core_pruned"
    (float_of_int !tot_pruned);
  Util.record_metric ~experiment:"E15" "replay/solved_incremental"
    (float_of_int !tot_incr);
  Util.record_metric ~experiment:"E15" "replay/solver_calls"
    (float_of_int !tot_calls);
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

(* ------------------------------------------------------------------ *)
(* Section 3: the triage batch, PR-2 configuration vs the incremental
   stack.  The batch mirrors E16's shape (coreutils crashes, duplicates
   dominating) without the suppression tier — the comparison is about the
   solver, not the log format. *)

let triage_section (c : Ctx.t) par_jobs =
  let cfg = Ctx.pipeline_config c in
  let bases =
    [
      ("mkdir", Instrument.Methods.All_branches, 3);
      ("mknod", Instrument.Methods.Static, 2);
      ("paste", Instrument.Methods.Static, 3);
      ("mkfifo", Instrument.Methods.All_branches, 2);
      (* the heavy cluster: an ESD-style report with no instrumentation at
         all, so its replay is pure symbolic search.  The search is far too
         wide to reproduce inside the replay run budget, so both
         configurations execute exactly [replay_runs] runs on the final
         rung — deterministic work, and the wall-clock difference is solver
         throughput, not witness-order luck.  (A torn report that *does*
         reproduce is the wrong racehorse: which crashing input a config
         stumbles on first dominates its wall clock and flips the verdict
         run to run.) *)
      ("mkdir", Instrument.Methods.No_instrumentation, 1);
    ]
  in
  (* Torn duplicates of light reports keep the E16 salvage shape in the
     batch (a torn cluster must re-search past its salvaged prefix) without
     adding a second heavy search — two heavy clusters overlapping on a
     small host would measure multi-domain minor-GC barriers instead of
     solver throughput. *)
  let torn_bases = [ ("paste", Instrument.Methods.Static, 2) ] in
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let tear text =
    let key =
      match find_sub text "branch-enc: " with
      | Some _ -> "branch-enc: "
      | None -> "branch-log: "
    in
    match find_sub text key with
    | None -> text
    | Some i ->
        let start = i + String.length key in
        let hex_end =
          match String.index_from_opt text start '\n' with
          | Some j -> j
          | None -> String.length text
        in
        String.sub text 0 (start + ((hex_end - start) / 2))
  in
  let plans = Hashtbl.create 8 in
  let wire_of (name, meth, _) =
    let e = Workloads.Coreutils.find name in
    let prog = Lazy.force e.Workloads.Coreutils.prog in
    let analysis = Bugrepro.Pipeline.Run.analyze cfg prog in
    let plan = Bugrepro.Pipeline.Run.plan cfg analysis meth in
    Hashtbl.replace plans (name, meth) (prog, plan);
    let _, report =
      Bugrepro.Pipeline.Run.field_run_report cfg ~plan
        (Workloads.Coreutils.crash_scenario e)
    in
    match report with
    | Some r -> Instrument.Wire.serialize r
    | None -> failwith (name ^ ": demo scenario did not crash")
  in
  let texts =
    List.concat_map
      (fun ((_, _, copies) as b) ->
        let w = wire_of b in
        List.init copies (fun _ -> w))
      bases
    @ List.concat_map
        (fun ((_, _, copies) as b) ->
          let w = tear (wire_of b) in
          List.init copies (fun _ -> w))
        torn_bases
  in
  let items =
    List.mapi
      (fun i s ->
        match Triage.Ingest.of_string ~path:(sprintf "p%03d.report" i) s with
        | Ok item -> item
        | Error r ->
            failwith
              (sprintf "batch report %d rejected: %s" i
                 (Instrument.Wire.error_to_string r.Triage.Ingest.error)))
      texts
  in
  let resolve (cl : Triage.Cluster.t) =
    let r = cl.Triage.Cluster.representative.Triage.Ingest.report in
    match
      Hashtbl.find_opt plans
        (r.Instrument.Report.program, r.Instrument.Report.method_used)
    with
    | Some pp -> Ok pp
    | None -> Error ("no plan for " ^ r.Instrument.Report.program)
  in
  let run_batch ~incremental =
    (* the heavy final rung is run-capped, not time-capped: its generous
       time bound never binds.  It runs on one domain in both generations
       (the pool still replays the clusters side by side), so its search
       is deterministic: both generations execute the same runs, forks and
       solver verdicts, and the race compares the solver stacks on
       identical work.  A pooled final rung would spend the run budget on
       whichever runs its schedule reached first. *)
    let heavy =
      { Concolic.Engine.max_runs = c.replay_runs;
        max_time_s = 30.0 *. c.replay_time_s }
    in
    let policy =
      { (Triage.Sched.policy_of_config cfg) with
        Triage.Sched.ladder =
          [ { Concolic.Engine.max_runs = 60; max_time_s = 2.0 }; heavy ];
        jobs = par_jobs;
        final_rung_jobs = 1;
        incremental;
        deadline_s = 60.0 *. c.replay_time_s }
    in
    (* counters need an enabled handle: the --trace one when there is
       one (read as a delta), a sink-less one otherwise *)
    let tel =
      if Telemetry.enabled c.telemetry then c.telemetry else Telemetry.create ()
    in
    let before = Telemetry.Counters.of_core tel in
    let summary, wall =
      Util.time_call (fun () ->
          Util.triage_batch ~policy ~telemetry:tel ~resolve items)
    in
    (* the batch's share of a counter the engine publishes per
       exploration *)
    let delta name =
      Telemetry.Metrics.counter_value tel name
      - Option.value ~default:0
          (List.assoc_opt name before.Telemetry.Counters.counters)
    in
    (summary, wall, delta)
  in
  let s_pr2, pr2_s, _ = run_batch ~incremental:false in
  let s_incr, incr_s, tot = run_batch ~incremental:true in
  let solver_calls = tot "engine.solver_calls"
  and solved_incremental = tot "engine.solved_incremental"
  and core_pruned = tot "engine.core_pruned"
  and cores_learned = tot "engine.cores_learned" in
  let share =
    if solver_calls > 0 then
      float_of_int solved_incremental /. float_of_int solver_calls
    else 0.0
  in
  let row label (s : Triage.Summary.t) wall counts =
    [
      label;
      string_of_int s.reports;
      string_of_int (List.length s.clusters);
      string_of_int (s.reproduced + s.salvaged_reproduced);
      Util.seconds wall;
    ]
    @ counts
  in
  Util.table
    [
      [ sprintf "triage batch (jobs=%d)" par_jobs; "reports"; "clusters";
        "reproduced"; "wall clock"; "incr solved"; "pruned"; "cores" ];
      row "PR 2 (cache only)" s_pr2 pr2_s [ "-"; "-"; "-" ];
      row "incremental" s_incr incr_s
        [ sprintf "%d/%d" solved_incremental solver_calls;
          string_of_int core_pruned; string_of_int cores_learned ];
    ];
  (* per-cluster statuses, not full summaries: across *different solver
     configurations* the specific crashing input found (the model) may
     legitimately differ — status agreement is the soundness claim *)
  let statuses (s : Triage.Summary.t) =
    List.map
      (fun (e : Triage.Summary.entry) ->
        (e.fingerprint, Triage.Summary.status_name e.status))
      s.clusters
  in
  let same_verdicts = statuses s_pr2 = statuses s_incr in
  Util.record_metric ~experiment:"E15" "triage/pr2_seconds" pr2_s;
  Util.record_metric ~experiment:"E15" "triage/incr_seconds" incr_s;
  Util.record_metric ~experiment:"E15" "triage/incr_win"
    (if incr_s < pr2_s then 1.0 else 0.0);
  Util.record_metric ~experiment:"E15" "triage/core_pruned"
    (float_of_int core_pruned);
  Util.record_metric ~experiment:"E15" "triage/solved_incremental"
    (float_of_int solved_incremental);
  Util.record_metric ~experiment:"E15" "triage/solver_calls"
    (float_of_int solver_calls);
  Util.record_metric ~experiment:"E15" "triage/incremental_share" share;
  Util.record_metric ~experiment:"E15" "triage/verdicts_identical"
    (if same_verdicts then 1.0 else 0.0);
  Printf.printf
    "triage batch: %.3fs (PR 2) vs %.3fs (incremental) — %s; %d/%d solver \
     calls incremental (%.0f%%), %d core-pruned; verdict parity %s\n"
    pr2_s incr_s
    (if incr_s < pr2_s then "incremental wins" else "NO WIN")
    solved_incremental solver_calls (100.0 *. share) core_pruned
    (if same_verdicts then "OK" else "MISMATCH")

let e15 (c : Ctx.t) =
  let par_jobs = if c.jobs > 1 then c.jobs else 4 in
  Util.section ~id:"E15" ~paper:"extension"
    (sprintf
       "Incremental solving + parallel frontier: engine generations, \
        a jobs curve, and the triage batch (vs %d worker domains)"
       par_jobs);
  replay_section c par_jobs;
  print_newline ();
  explore_section c par_jobs;
  print_newline ();
  triage_section c par_jobs;
  print_endline
    "expected shape: the cache alone speeds up the no-log searches (sibling\n\
     pendings share long constraint prefixes); the incremental solver then\n\
     converts those prefixes into scope reuse and learned cores, which pays\n\
     only where cores prune calls the cache cannot answer; worker domains\n\
     only change wall clock, never verdicts or labels."
