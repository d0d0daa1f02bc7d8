(** The concolic exploration engine.

    Implements the paper's §2.1 search: execute with concrete inputs,
    collect the path's branch constraints, negate one, solve for a new
    input, re-execute.  Alternative paths wait on a pending list of
    constraint sets — exactly the structure reused by guided replay (§3.1).

    The engine is generic over the run function, so dynamic analysis and
    bug replay share it.

    One frontier, one loop: a search drains its pending list on the
    calling domain, in the order its {!strategy} names, and is
    deterministic.  An optional shared {!Solver.Cache} memoizes solver
    queries across pendings; without one every pending goes to
    {!Solver.Solve.solve}. *)

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
  hint : Solver.Model.t;
      (** the hint of the run's children: the model the run was launched
          (or last resumed) under, overlaid with the effective concrete
          value of every symbolic input variable the run touched that the
          model leaves unbound.  That equals
          [union_prefer_left launch_model observed], built as the run goes:
          a run adds a binding only when it touches a variable its model
          lacks, so the engine merges no maps per finished run or offer.
          A run from [main] starts it at its launch model; an accepted
          resume resets it to the new model, which binds every variable
          the run touched so far. *)
}

(** A resume offer, handed to every run.  A run that is about to abort
    (guided replay's case 2b) may call [offer result ~resume], where
    [result] is exactly what it would return by aborting there.  The
    engine accounts [result] as a finished run (callbacks, children).  If
    the pending the frontier would hand out next is the last child just
    pushed — the one that negates the final trace entry — and the search
    still has budget and time, the engine pops and solves it as its loop
    would.  On Sat it calls [resume ~solved model], where [solved] is the
    solver's own assignment (to the variables of the constraints it
    solved) and [model] the model the next run would execute under:
    [solved] merged, preferring its bindings, over [result.hint].  So a
    variable outside [solved] keeps the value the run's launch model gives
    it, else the value the run observed; a resume guard need only re-check
    [solved]'s variables and those whose observed value already disagreed
    with the launch model.  The merge costs O(|solved| log |hint|), not the
    run's state.
    - [true]: the run has moved its live state onto [model] and continues
      as that run (it counts in [runs] and [resumes]), with [model] as its
      launch model and its hint; the offer returns [true];
    - [false]: the offer returns [false] and the engine runs the solved
      pending from [main] next, without solving it again.
    Unsat, Unknown, a different next pending or a spent budget also return
    [false].  After [false] the run must abort at once: its result has
    been accounted already and is discarded. *)
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
  mutable solver_calls : int;
      (** calls into the cache or the solver, one per solved pending plus
          one per escalated retry of an [Unknown] *)
  mutable steals : int;
      (** always 0: the single shared frontier has nothing to steal from;
          kept so readers of the record keep compiling *)
  mutable worker_runs : int array;
      (** always [[| runs |]]: ignored; kept only so [perfbench/] builds;
          ROADMAP item 3 deletes it *)
}

(** Explore paths until the budget is exhausted or [stop] returns a
    witness for a run.  Returns the statistics and, if stopped early, the
    stopping run's model and witness.

    [run] receives the {!offer} of the run it executes.  [on_run] and
    [stop] are called on the calling domain, one run at a time, so they
    may keep plain mutable state; a run that continues through resumes
    reaches them once per executed pending.  [cache] memoizes solver
    queries across pendings.

    A run that resumes wherever it is offered executes the same pendings
    in the same order, with the same solver calls, counters and models, as
    one that declines every offer.

    [telemetry] (default disabled) wraps the exploration in an
    [engine.explore] span, times runs ([engine.run_s], without the engine's own
    accounting, pop and solve inside an offer) and the solver split,
    samples the frontier depth over time ([engine.frontier]) and
    accumulates the [engine.runs]/[resumes]/[sat]/[unsat]/[unknown]/
    [forks] counters. *)
val search :
  vars:Solver.Symvars.t ->
  ?budget:budget ->
  ?strategy:strategy ->
  ?cache:Solver.Cache.t ->
  ?telemetry:Telemetry.t ->
  run:(offer -> Solver.Model.t -> run_result) ->
  stop:(Solver.Model.t -> run_result -> 'a option) ->
  ?on_run:(Solver.Model.t -> run_result -> unit) ->
  unit ->
  stats * (Solver.Model.t * 'a) option

(** {!search} with runs that never take an offer, stopping at the first
    run [should_stop] accepts (default: never).  [jobs] and [incr] are
    ignored; kept only so [perfbench/] builds; ROADMAP item 3 deletes
    them. *)
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

(** A {!stats} in the unified counter view (scope ["engine"]: [runs],
    [resumes], [sat], [unsat], [unknown], [pending_peak], [forks],
    [solver_calls], and the gauges [elapsed_s] and [timed_out]); the record
    stays for the bench tables. *)
val counters : stats -> Telemetry.Counters.snapshot
