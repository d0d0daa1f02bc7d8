(** The concolic exploration engine.

    Implements the paper's §2.1 search: execute with concrete inputs,
    collect the path's branch constraints, negate one, solve for a new
    input, re-execute.  Alternative paths wait on a pending list of
    constraint sets — exactly the structure reused by guided replay (§3.1).

    The engine is generic over the run function, so dynamic analysis and
    bug replay share it.

    One frontier, one loop: [~jobs] workers share a single mutex-protected
    pending list.  [~jobs:1], the default, runs the one worker on the
    calling domain and is deterministic.  With [~jobs] > 1 each worker
    runs on its own OCaml 5 domain (the run function must then be safe to
    call concurrently — each call must build its own interpreter state);
    result *sets* on exhausted frontiers are jobs-invariant, visit order is
    not.  An optional shared {!Solver.Cache} memoizes solver queries across
    pendings; without one every pending goes to {!Solver.Solve.solve}. *)

type budget = {
  max_runs : int;
  max_time_s : float;  (** wall-clock cut-off for the whole exploration *)
}

val default_budget : budget

type strategy =
  | Dfs  (** deepest pending first: follows a forced chain (guided replay) *)
  | Bfs
      (** oldest/shallowest pending first: generational search, best for
          coverage (dynamic analysis) *)

type run_result = {
  outcome : Interp.Crash.outcome;
  trace : Path.view;  (** in execution order *)
  observed : Solver.Model.t;
      (** effective concrete value of every symbolic input variable the run
          touched; seeds the solver for child pendings *)
}

(** A resume offer, handed to every run.  A run that is about to abort
    (guided replay's case 2b) may call [offer result ~resume], where
    [result] is exactly what it would return by aborting there.  The
    engine accounts [result] as a finished run (callbacks, children).  If
    the pending the frontier would hand out next is the last child just
    pushed — the one that negates the final trace entry — and the search
    still has budget and time, the engine pops and solves it as a worker
    would.  On Sat it calls [resume ~solved model], where [solved] is the
    solver's own assignment (to the variables of the constraints it
    solved) and [model] the model the next run would execute under:
    [solved] merged, preferring its bindings, over the run's own launch
    model merged over [result.observed].  So a variable outside [solved] keeps the value the
    run's launch model gives it, else the value the run observed; a
    resume guard need only re-check [solved]'s variables and those whose
    observed value already disagreed with the launch model.
    - [true]: the run has moved its live state onto [model] and continues
      as that run (it counts in [runs] and [resumes]); the offer returns
      [true];
    - [false]: the offer returns [false] and the engine runs the solved
      pending from [main] next, without solving it again.
    Unsat, Unknown, a different next pending or a spent budget also return
    [false].  After [false] the run must abort at once: its result has
    been accounted already and is discarded.  [resume] is called with the
    engine's lock held. *)
type offer =
  run_result -> resume:(solved:Solver.Model.t -> Solver.Model.t -> bool) -> bool

type stats = {
  mutable runs : int;
      (** executed pendings: runs from [main] plus resumes; bounded by
          [max_runs] *)
  mutable resumes : int;
      (** pendings executed by continuing a live run at a resume offer;
          runs from [main] = [runs - resumes] *)
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable pending_peak : int;
  mutable elapsed_s : float;
  mutable timed_out : bool;
  mutable forks : int;
      (** pendings pushed onto the frontier.  On an exhausted frontier
          [sat + unsat + unknown = forks]. *)
  mutable core_pruned : int;
      (** always 0, like [steals]: the incremental solver that pruned
          pendings by learned cores is retired *)
  mutable solved_incremental : int;  (** always 0, like [core_pruned] *)
  mutable solver_calls : int;  (** always 0, like [core_pruned] *)
  mutable steals : int;
      (** always 0: the single shared frontier has nothing to steal from;
          kept so readers of the record keep compiling *)
  mutable worker_runs : int array;
      (** per-worker run counts (length [jobs]; the seeding run counts
          toward worker 0); the sum always equals [runs] *)
}

(** Explore paths until the budget is exhausted or [stop] returns a
    witness for a run.  Returns the statistics and, if stopped early, the
    stopping run's model and witness.

    [run] receives the {!offer} of the run it executes.  [jobs] (default
    1) sets the number of worker domains; with several workers the
    {!strategy} order becomes a priority hint and [run] must tolerate
    concurrent calls.  [on_run] and [stop] are always called with the
    engine's internal lock held, i.e. serialized, so they may keep plain
    mutable state; a run that continues through resumes reaches them once
    per executed pending.  [cache] memoizes solver queries across pendings
    (and is shared by all workers).

    At [jobs] = 1 a run that resumes wherever it is offered executes the
    same pendings in the same order, with the same solver calls, counters
    and models, as one that declines every offer.

    [telemetry] (default disabled) wraps the exploration in an
    [engine.explore] span with one [engine.worker] child span per domain
    when [jobs] > 1, times runs ([engine.run_s], without the engine's own
    accounting, pop and solve inside an offer) and the solver split,
    samples the frontier depth over time ([engine.frontier]) and
    accumulates the [engine.runs]/[resumes]/[sat]/[unsat]/[unknown]/
    [forks] counters. *)
val search :
  vars:Solver.Symvars.t ->
  ?budget:budget ->
  ?strategy:strategy ->
  ?jobs:int ->
  ?cache:Solver.Cache.t ->
  ?telemetry:Telemetry.t ->
  run:(offer -> Solver.Model.t -> run_result) ->
  stop:(Solver.Model.t -> run_result -> 'a option) ->
  ?on_run:(Solver.Model.t -> run_result -> unit) ->
  unit ->
  stats * (Solver.Model.t * 'a) option

(** {!search} with runs that never take an offer, stopping at the first
    run [should_stop] accepts (default: never).  [incr] is ignored. *)
val explore :
  vars:Solver.Symvars.t ->
  ?budget:budget ->
  ?strategy:strategy ->
  ?jobs:int ->
  ?cache:Solver.Cache.t ->
  ?incr:Solver.Incr.t ->
  ?telemetry:Telemetry.t ->
  run:(Solver.Model.t -> run_result) ->
  ?should_stop:(Solver.Model.t -> run_result -> bool) ->
  ?on_run:(Solver.Model.t -> run_result -> unit) ->
  unit ->
  stats * (Solver.Model.t * run_result) option

(** A {!stats} in the unified counter view (scope ["engine"]); the record
    stays for the bench tables. *)
val counters : stats -> Telemetry.Counters.snapshot
