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
    pendings.

    Passing [~incr] (a shared {!Solver.Incr.t}) turns on incremental
    solving: learned-core pruning, scope reuse across sibling pendings and
    the two-strategy portfolio.  Verdicts are unchanged (fuzz-enforced);
    models — and therefore which of several equivalent witnesses is found
    first — may differ from the from-scratch solver's. *)

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
  trace : Path.entry list;  (** in execution order *)
  observed : Solver.Model.t;
      (** effective concrete value of every symbolic input variable the run
          touched; seeds the solver for child pendings *)
}

type stats = {
  mutable runs : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable pending_peak : int;
  mutable elapsed_s : float;
  mutable timed_out : bool;
  mutable forks : int;  (** pendings pushed onto the frontier *)
  mutable core_pruned : int;
      (** pendings answered Unsat by a learned core, no solver call.  On an
          exhausted frontier [sat + unsat + unknown + core_pruned = forks]. *)
  mutable solved_incremental : int;
      (** solver calls that reused >= 1 scope frame *)
  mutable solver_calls : int;  (** calls that reached the incremental solver *)
  mutable steals : int;
      (** always 0: the single shared frontier has nothing to steal from;
          kept so readers of the record keep compiling *)
  mutable worker_runs : int array;
      (** per-worker run counts (length [jobs]; the seeding run counts
          toward worker 0); the sum always equals [runs] *)
}

(** Explore paths until the budget is exhausted or [should_stop] returns
    true for a run.  Returns the statistics and, if stopped early, the
    model and result of the stopping run.

    [jobs] (default 1) sets the number of worker domains; with several
    workers the {!strategy} order becomes a priority hint and [run] must
    tolerate concurrent calls.  [on_run] and [should_stop] are always
    called with the engine's internal lock held, i.e. serialized, so they
    may keep plain mutable state.  [cache] memoizes solver queries across
    pendings (and is shared by all workers).  [incr] enables incremental
    solving (each worker opens a private session).

    [telemetry] (default disabled) wraps the exploration in an
    [engine.explore] span with one [engine.worker] child span per domain
    when [jobs] > 1, times runs ([engine.run_s]) and the solver split,
    samples the frontier depth over time ([engine.frontier]) and
    accumulates the [engine.runs]/[sat]/[unsat]/[unknown]/[forks]
    counters; with [incr] also this exploration's share of the incremental
    solver's work as [engine.solver_calls]/[solved_incremental]/
    [core_pruned]/[cores_learned]. *)
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
