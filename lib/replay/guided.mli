(** Guided replay: reproduce a bug from a partial branch log (§3.1).

    Drives the concolic engine with the report's bitvector.  At every
    executed branch the four cases of the paper apply:

    + symbolic, not instrumented — fork: assert the taken direction, leave
      the alternative on the pending list;
    + symbolic, instrumented — consume a bit; (a) match: pin the direction;
      (b) mismatch: queue the constraint set forcing the logged direction
      and abort the run;
    + concrete, instrumented — consume a bit; abort on mismatch (reachable
      after an earlier wrong turn at an uninstrumented symbolic branch, or
      — even under full instrumentation — when a store through a
      concretized symbolic index turns a branch that was symbolic in the
      field run concrete in this run; fuzzing found the second source, see
      test/corpus/known/);
    + concrete, not instrumented — proceed.

    A run reproduces the bug when it crashes at the recorded crash site.
    Pending-set selection is depth-first, as in the paper. *)

type case_stats = {
  mutable case1 : int;  (** symbolic, unlogged *)
  mutable case2a : int;  (** symbolic, logged, direction matches *)
  mutable case2b : int;  (** symbolic, logged, mismatch (abort + force) *)
  mutable case3a : int;  (** concrete, logged, matches *)
  mutable case3b : int;  (** concrete, logged, mismatch (abort) *)
  mutable case4 : int;  (** concrete, unlogged *)
  mutable log_exhausted : int;  (** bits missing (truncated log) *)
}

type result =
  | Reproduced of {
      model : Solver.Model.t;  (** the synthesised crashing input *)
      crash : Interp.Crash.t;
      runs : int;
      elapsed_s : float;
    }
  | Not_reproduced of { runs : int; elapsed_s : float; timed_out : bool }

type stats = {
  engine : Concolic.Engine.stats;
  cases : case_stats;
  vars : Solver.Symvars.t;  (** variable registry, for decoding the model *)
  cache : Solver.Cache.snapshot option;
      (** solver-cache counters, when the memoizing cache was enabled *)
}

val reproduced : result -> bool
val elapsed : result -> float

(** [stats] in the unified counter view (scope [reproduce]): the [engine]
    scope, the §3.1 case counters under [replay]
    ([forked]/[completed]/[forced]/[pinned_concrete]/
    [aborted_contradiction]/[concrete_unlogged]/[log_exhausted]) and the
    [solver.cache] scope when the memoizing cache ran.  The record types
    stay for the bench tables. *)
val counters : stats -> Telemetry.Counters.snapshot

(** Checkpointed replay (§6): rewrites global state symbolically at the
    first [checkpoint()] the run executes; until then the shipped logs are
    gated off.  See {!Checkpoint.Creplay}. *)
type restore_fn =
  vars:Solver.Symvars.t ->
  model:Solver.Model.t ->
  observe:(int -> int -> unit) ->
  Interp.Eval.global_access ->
  unit

(** Reproduce the bug described by [report].  [budget] is the developer's
    patience (the paper's one-hour limit, scaled); [seed] varies the random
    initial input.  [jobs] (default 1) sets the number of worker domains
    draining the pending frontier; [solver_cache] (default true) memoizes
    solver queries across pendings and restarts, and [cache] supplies an
    external {!Solver.Cache.t} to use instead — the triage batch scheduler
    shares one across a whole batch.  [incremental] (default true) solves
    pendings through a {!Solver.Incr.t} (scope reuse, learned-core pruning,
    strategy portfolio); [incr] supplies an external one instead — the
    triage scheduler opens one per cluster.  Learned cores are
    registry-scoped and reset on each restart's fresh registry; portfolio
    statistics survive.  [max_attempts] caps the restart-with-a-fresh-seed
    loop; once hit, a clean frontier exhaustion
    returns [Not_reproduced] with [timed_out = false] (a [true] there
    always means the clock or the run budget ran out, never mere
    exhaustion).  [elapsed_s] is wall-clock time inside this call; callers
    that retry with escalating budgets must accumulate it across calls
    (see {!Triage.Sched}).  The §3.1 case counters are accumulated with
    atomic adds, so totals are exact under any [jobs] value.  Whatever the
    worker count, a result of [Reproduced] carries a model that crashes at
    the reported site — scheduling can change *which* crashing input is
    found first, never whether one exists.

    [telemetry] wraps the search in a [reproduce] span with one
    [replay.attempt] child per restart (each wrapping its engine
    exploration), and accumulates the §3.1 [replay.case.*] counters — one
    registry update per run, so the per-branch hot path is untouched.

    When the report carries a suppression table, it is decoded and
    proof-checked ({!Staticanalysis.Suppression.verify}) once up front;
    elided branches then take their bit from the reconstruction rules
    instead of the log reader.  Raises [Invalid_argument] when the table
    fails to decode or a claimed proof is rejected (fail-closed: unproven
    rules must never steer replay). *)
val reproduce :
  ?budget:Concolic.Engine.budget ->
  ?seed:int ->
  ?max_steps:int ->
  ?restore:restore_fn ->
  ?jobs:int ->
  ?solver_cache:bool ->
  ?cache:Solver.Cache.t ->
  ?incr:Solver.Incr.t ->
  ?incremental:bool ->
  ?max_attempts:int ->
  ?telemetry:Telemetry.t ->
  prog:Minic.Program.t ->
  plan:Instrument.Plan.t ->
  Instrument.Report.t ->
  result * stats
