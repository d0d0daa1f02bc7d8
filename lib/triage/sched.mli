(** Budgeted batch scheduler: replay one representative per cluster.

    Clusters are drained from a queue by a pool of worker domains
    ([policy.jobs]); each representative is replayed under an
    escalating-budget ladder (default 2 s → 10 s → the full replay
    budget), so one pathological report can never starve the batch, and
    the whole batch is bounded by a global wall-clock deadline.  The
    caller's {!Solver.Cache} is shared across every replay of the batch.

    Determinism: the pool is the only parallelism.  Each cluster's replay
    is one sequential search inside the worker, seeded from the batch
    seed and the cluster's fingerprint, so the *outcome* per cluster does
    not depend on which worker picked it up or in which order —
    [jobs = 1] and [jobs = 4] batches differ only in timing fields (see
    DESIGN.md §5f for the shared-cache caveat). *)

type policy = {
  ladder : Concolic.Engine.budget list;
      (** escalating per-representative budgets, tried in order *)
  deadline_s : float;  (** global wall-clock bound for the whole batch *)
  jobs : int;  (** worker domains draining the cluster queue *)
  final_rung_jobs : int;
      (** ignored; kept only so [perfbench/] builds; ROADMAP item 3
          deletes it *)
  max_attempts : int;  (** reseed restarts within one ladder rung *)
  seed : int;  (** batch seed; per-cluster seeds derive from it *)
}

(** 2 s / 10 s / full {!Concolic.Engine.default_budget}, 60 s deadline,
    sequential, one attempt per rung, seed 1. *)
val default_policy : policy

(** Derive a policy from the pipeline config: [replay_budget] caps the
    ladder's last rung, [jobs] and [seed] carry over. *)
val policy_of_config : Bugrepro.Pipeline.Config.t -> policy

type status =
  | Reproduced of {
      model : Solver.Model.t;
      vars : Solver.Symvars.t;  (** registry for decoding the model *)
      crash : Interp.Crash.t;
    }
  | Timed_out  (** every rung (or the global deadline) ran out of budget *)
  | Exhausted  (** the pending frontier dried up cleanly — no input found *)
  | Failed of string  (** the cluster's program could not be resolved *)

type cluster_result = {
  cluster : Cluster.t;
  status : status;
  rungs : int;  (** ladder rungs actually tried *)
  runs : int;  (** engine runs summed over rungs *)
  elapsed_s : float;
      (** cumulative wall clock over every rung — monotone in the rung
          index, so a retried report never reports less elapsed time than
          its predecessor attempts *)
  rung_elapsed_s : float list;  (** per-rung breakdown, in rung order *)
  cases : Replay.Guided.case_stats;  (** §3.1 counters summed over rungs *)
}

(** All-zero §3.1 case counters (for synthesizing results — e.g. a
    cluster whose program failed to resolve). *)
val zero_cases : unit -> Replay.Guided.case_stats

(** Resolve a cluster's program text and instrumentation plan (the wire
    form carries only the program's name).  Called in the scheduling
    domain, once per cluster, before workers start. *)
type resolve =
  Cluster.t -> (Minic.Program.t * Instrument.Plan.t, string) result

(** {2 Resumable courses}

    A [course] is one cluster's ladder climb, pausable between rungs.
    The streaming service climbs a rung or two per ingestion tick —
    eagerly, while the queue is shallow — and finishes whatever remains
    at drain time ({!run_courses}).  Splitting a climb across ticks
    cannot change its outcome: each rung's replay is deterministic given
    (budget, seed) and the seed is a pure function of the batch seed and
    the cluster's fingerprint. *)

type course

(** Fresh course over the cluster's representative, ladder untouched. *)
val course :
  policy:policy ->
  prog:Minic.Program.t ->
  plan:Instrument.Plan.t ->
  Cluster.t ->
  course

val course_cluster : course -> Cluster.t

(** True once the climb reached an outcome ({!course_step} returned
    [true], or {!course_interrupt} fired). *)
val course_done : course -> bool

(** Climb at most [max_rungs] further rungs before [deadline] (each
    rung's time budget is clamped to what is left of it).  Returns [true]
    when the course finished — reproduced, cleanly exhausted, or every
    rung tried and timed out.  Returns [false] when merely paused: the
    rung allotment ran out or the deadline has under 50 ms left.  A
    paused course resumes exactly where it stopped; deadline expiry is
    the {e caller's} decision, via {!course_interrupt}.  [cache] is the
    batch-shared solver cache. *)
val course_step :
  ?telemetry:Telemetry.t ->
  cache:Solver.Cache.t ->
  deadline:float ->
  max_rungs:int ->
  course ->
  bool

(** Finalize an unfinished course as {!Timed_out} (deadline expiry).
    No-op on a finished course. *)
val course_interrupt : course -> unit

(** Render the course's {!cluster_result}.  An unfinished course renders
    as {!Timed_out} (without being finalized); cumulative [elapsed_s] /
    [runs] / [cases] cover every rung climbed so far. *)
val course_result : course -> cluster_result

(** Eager-replay rung allotment per tick from queue pressure
    (depth ÷ capacity): [>= 0.75 → 0] (all ingest), [>= 0.25 → 1],
    [> 0 → 2], idle [0.0 → max_int] (climb freely). *)
val rungs_for_pressure : float -> int

(** Finish a batch of courses on the policy's worker pool — climb each to
    completion before [deadline] (interrupting stragglers), with one
    [triage.replay] span and one [triage.<status>] counter per cluster.
    Results in input order.  [cache] is the batch-shared solver cache. *)
val run_courses :
  ?policy:policy ->
  ?telemetry:Telemetry.t ->
  cache:Solver.Cache.t ->
  deadline:float ->
  course list ->
  cluster_result list
