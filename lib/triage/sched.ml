(** Budgeted batch scheduler (see sched.mli). *)

module Engine = Concolic.Engine
module Guided = Replay.Guided

type policy = {
  ladder : Engine.budget list;
  deadline_s : float;
  jobs : int;
  final_rung_jobs : int;  (* ignored; see sched.mli *)
  max_attempts : int;
  seed : int;
}

let default_policy =
  {
    ladder =
      [
        { Engine.max_runs = 60; max_time_s = 2.0 };
        { Engine.max_runs = 250; max_time_s = 10.0 };
        Engine.default_budget;
      ];
    deadline_s = 60.0;
    jobs = 1;
    final_rung_jobs = 1;
    max_attempts = 1;
    seed = 1;
  }

let policy_of_config (c : Bugrepro.Pipeline.Config.t) =
  let full = c.replay_budget in
  let rung runs time_s =
    {
      Engine.max_runs = min runs full.Engine.max_runs;
      max_time_s = min time_s full.Engine.max_time_s;
    }
  in
  {
    default_policy with
    ladder = [ rung 60 2.0; rung 250 10.0; full ];
    jobs = c.jobs;
    seed = c.seed;
  }

type status =
  | Reproduced of {
      model : Solver.Model.t;
      vars : Solver.Symvars.t;
      crash : Interp.Crash.t;
    }
  | Timed_out
  | Exhausted
  | Failed of string

type cluster_result = {
  cluster : Cluster.t;
  status : status;
  rungs : int;
  runs : int;
  elapsed_s : float;
  rung_elapsed_s : float list;
  cases : Guided.case_stats;
}

type resolve =
  Cluster.t -> (Minic.Program.t * Instrument.Plan.t, string) result

let zero_cases () : Guided.case_stats =
  { case1 = 0; case2a = 0; case2b = 0; case3a = 0; case3b = 0; case4 = 0;
    log_exhausted = 0 }

let add_cases ~(into : Guided.case_stats) (c : Guided.case_stats) =
  into.case1 <- into.case1 + c.case1;
  into.case2a <- into.case2a + c.case2a;
  into.case2b <- into.case2b + c.case2b;
  into.case3a <- into.case3a + c.case3a;
  into.case3b <- into.case3b + c.case3b;
  into.case4 <- into.case4 + c.case4;
  into.log_exhausted <- into.log_exhausted + c.log_exhausted

(* Worker scheduling must not influence outcomes, so the replay seed is a
   pure function of the batch seed and the cluster's identity. *)
let cluster_seed policy (c : Cluster.t) =
  (Hashtbl.hash (policy.seed, Fingerprint.key c.fp) land 0x3FFFFFFF) + 1

(* ------------------------------------------------------------------ *)
(* Resumable courses: one cluster's climb up the escalating-budget
   ladder, pausable between rungs.  The streaming service climbs a rung
   or two per tick (eagerly, pressure permitting) and finishes the
   remainder at drain ({!run_courses}).  Splitting a climb across ticks
   cannot change its outcome: each rung's replay is deterministic given
   (budget, seed) and the seed is pinned per cluster. *)

type course = {
  policy : policy;
  cluster : Cluster.t;
  prog : Minic.Program.t;
  plan : Instrument.Plan.t;
  seed : int;
  cases : Guided.case_stats;
  mutable ladder : Engine.budget list;  (** rungs not yet climbed *)
  mutable rungs : int;
  mutable runs : int;
  mutable elapsed : float;
  mutable rung_elapsed : float list;  (** reverse rung order *)
  mutable outcome : status option;  (** [Some] once the climb finished *)
}

let course ~policy ~prog ~plan (c : Cluster.t) : course =
  {
    policy;
    cluster = c;
    prog;
    plan;
    seed = cluster_seed policy c;
    cases = zero_cases ();
    ladder = policy.ladder;
    rungs = 0;
    runs = 0;
    elapsed = 0.0;
    rung_elapsed = [];
    outcome = None;
  }

let course_cluster (k : course) = k.cluster
let course_done (k : course) = k.outcome <> None

let course_result (k : course) : cluster_result =
  let status = match k.outcome with Some s -> s | None -> Timed_out in
  { cluster = k.cluster; status; rungs = k.rungs; runs = k.runs;
    elapsed_s = k.elapsed; rung_elapsed_s = List.rev k.rung_elapsed;
    cases = k.cases }

let course_interrupt (k : course) =
  if k.outcome = None then k.outcome <- Some Timed_out

(* Climb up to [max_rungs] rungs before [deadline].  Each rung's time
   budget is clamped to what is left of the deadline.  The cumulative
   elapsed sums every rung, so a retried report never reports less
   elapsed time than its predecessor attempts (the restart-accounting
   bug this subsystem's tests lock down). *)
let course_step ?(telemetry = Telemetry.disabled) ~cache ~deadline ~max_rungs
    (k : course) : bool =
  let report = k.cluster.Cluster.representative.Ingest.report in
  let rec climb budget_rungs =
    match (k.outcome, k.ladder) with
    | Some _, _ -> true
    | None, [] ->
        (* every rung tried and timed out *)
        k.outcome <- Some Timed_out;
        true
    | None, (rung : Engine.budget) :: rest ->
        if budget_rungs <= 0 then false
        else
          let remaining = deadline -. Unix.gettimeofday () in
          if remaining <= 0.05 then false
          else begin
            let budget =
              { rung with
                Engine.max_time_s = min rung.Engine.max_time_s remaining }
            in
            let result, stats =
              Guided.reproduce ~budget ~seed:k.seed ~cache
                ~max_attempts:k.policy.max_attempts ~telemetry ~prog:k.prog
                ~plan:k.plan report
            in
            add_cases ~into:k.cases stats.Guided.cases;
            let rung_s = Guided.elapsed result in
            k.elapsed <- k.elapsed +. rung_s;
            k.rungs <- k.rungs + 1;
            k.rung_elapsed <- rung_s :: k.rung_elapsed;
            match result with
            | Guided.Reproduced r ->
                k.runs <- k.runs + r.runs;
                k.outcome <-
                  Some
                    (Reproduced
                       { model = r.model; vars = stats.Guided.vars;
                         crash = r.crash });
                true
            | Guided.Not_reproduced nr ->
                k.runs <- k.runs + nr.runs;
                k.ladder <- rest;
                if nr.timed_out then climb (budget_rungs - 1)
                else begin
                  (* clean frontier exhaustion: the search space is
                     explored; a larger budget would only re-walk it *)
                  k.outcome <- Some Exhausted;
                  true
                end
          end
  in
  climb max_rungs

(* Eager-replay allotment per tick from queue pressure (depth/capacity):
   a service under load spends its tick ingesting, an idle one climbs. *)
let rungs_for_pressure p =
  if p >= 0.75 then 0
  else if p >= 0.25 then 1
  else if p > 0.0 then 2
  else max_int

let status_name = function
  | Reproduced _ -> "reproduced"
  | Timed_out -> "timed_out"
  | Exhausted -> "exhausted"
  | Failed _ -> "failed"

(* ------------------------------------------------------------------ *)

(* Index-addressed worker pool: results come back in input order
   regardless of which domain processed what. *)
let pool_map ~jobs n (f : int -> 'a) : 'a list =
  if jobs <= 1 || n <= 1 then List.init n f
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f i);
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (min jobs n) (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    Array.to_list results
    |> List.map (function Some r -> r | None -> assert false)
  end

let finish_course ~telemetry ~cache ~deadline (k : course) : cluster_result =
  Telemetry.Span.with_ telemetry ~name:"triage.replay"
    ~attrs:
      [ ("fingerprint", Telemetry.Event.Str (Fingerprint.key k.cluster.Cluster.fp)) ]
  @@ fun sp ->
  if not (course_step ~telemetry ~cache ~deadline ~max_rungs:max_int k) then
    course_interrupt k;
  let r = course_result k in
  Telemetry.Span.adds sp "status" (status_name r.status);
  Telemetry.Span.addi sp "rungs" r.rungs;
  Telemetry.Span.addi sp "runs" r.runs;
  Telemetry.Metrics.incr_named telemetry ("triage." ^ status_name r.status);
  r

let run_courses ?(policy = default_policy) ?(telemetry = Telemetry.disabled)
    ~cache ~deadline (courses : course list) : cluster_result list =
  let arr = Array.of_list courses in
  pool_map ~jobs:policy.jobs (Array.length arr) (fun i ->
      finish_course ~telemetry ~cache ~deadline arr.(i))
