(* Benchmark-harness configuration: scaling knobs shared by every
   experiment.  The paper's absolute budgets (1 h of symbolic execution, 1 h
   of replay, 5,000 HTTP requests, 1e9 loop iterations) are scaled to
   interpreter speed; `--full` restores larger values. *)

type t = {
  quick : bool;
  loop_iterations : int;  (* E1: paper uses 1e9 *)
  requests : int;  (* E6/E8: paper uses 5,000 *)
  lc_runs : int;  (* dynamic analysis LC budget (exploration runs) *)
  hc_runs : int;  (* dynamic analysis HC budget *)
  analysis_time_s : float;
  replay_time_s : float;  (* the paper's one-hour replay cut-off *)
  replay_runs : int;
  only : string list;  (* experiment ids to run; [] = all *)
  jobs : int;
      (* worker domains of the E16/E17 triage cluster pool (their jobs=N
         rows; 4 when left at 1); every search runs on one worker *)
  telemetry : Telemetry.t;
      (* handle for the --trace artifact; Telemetry.disabled (every probe a
         no-op) unless the driver installed a sink *)
}

let default =
  {
    quick = false;
    loop_iterations = 200_000;
    requests = 500;
    lc_runs = 2;
    hc_runs = 150;
    analysis_time_s = 30.0;
    replay_time_s = 10.0;
    replay_runs = 20_000;
    only = [];
    jobs = 1;
    telemetry = Telemetry.disabled;
  }

let quick =
  {
    default with
    quick = true;
    loop_iterations = 50_000;
    requests = 100;
    hc_runs = 60;
    analysis_time_s = 10.0;
    replay_time_s = 5.0;
  }

let full =
  {
    default with
    loop_iterations = 2_000_000;
    requests = 5_000;
    hc_runs = 400;
    analysis_time_s = 120.0;
    replay_time_s = 60.0;
  }

let lc_budget t = { Concolic.Engine.max_runs = t.lc_runs; max_time_s = t.analysis_time_s }
let hc_budget t = { Concolic.Engine.max_runs = t.hc_runs; max_time_s = t.analysis_time_s }

let replay_budget t =
  { Concolic.Engine.max_runs = t.replay_runs; max_time_s = t.replay_time_s }

let wants t id = t.only = [] || List.mem id t.only

(* This context as a pipeline configuration (HC analysis budget), for
   experiments that drive the Pipeline.Run API. *)
let pipeline_config (c : t) =
  Bugrepro.Pipeline.Config.(
    default
    |> with_budget ~dynamic:(hc_budget c) ~replay:(replay_budget c)
    |> with_jobs c.jobs
    |> with_telemetry c.telemetry)
