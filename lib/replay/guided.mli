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

(** All-zero case counters. *)
val new_case_stats : unit -> case_stats

(** [merge_cases ~into c] adds [c]'s counters to [into]'s. *)
val merge_cases : into:case_stats -> case_stats -> unit

type result =
  | Reproduced of {
      model : Solver.Model.t;  (** the synthesised crashing input *)
      crash : Interp.Crash.t;
      seed : int;
          (** the attempt's default-input seed: variables the model leaves
              free take {!Rkernel}'s defaults for it *)
      runs : int;
      elapsed_s : float;
    }
  | Not_reproduced of { runs : int; elapsed_s : float; timed_out : bool }

type stats = {
  engine : Concolic.Engine.stats;
      (** totals over every attempt: counters and [elapsed_s] summed,
          [pending_peak] the largest, [timed_out] the last attempt's *)
  cases : case_stats;
  vars : Solver.Symvars.t;  (** variable registry, for decoding the model *)
  cache : Solver.Cache.snapshot;
      (** counters of the cache the search solved through — cumulative
          over every search that shared it *)
}

val reproduced : result -> bool
val elapsed : result -> float

(** [stats] in the unified counter view (scope [reproduce]): the [engine]
    scope, the §3.1 case counters under [replay]
    ([forked]/[completed]/[forced]/[pinned_concrete]/
    [aborted_contradiction]/[concrete_unlogged]/[log_exhausted]) and the
    [solver.cache] scope.  The record types stay for the bench tables. *)
val counters : stats -> Telemetry.Counters.snapshot

(** The guided-replay run function {!reproduce} drives the engine with,
    for one attempt under the variable registry [vars] and the default-input
    [seed] (see {!Concolic.Engine.search}).  Decodes and verifies the
    report's suppression table once, when applied to [report] (raising
    [Invalid_argument] as {!reproduce} does).  [record_cases] receives each
    run's §3.1 case counters when it ends.

    At a case-2b mismatch the run takes the engine's resume offer: if the
    forcing pending solves Sat and the guard accepts its model, the run
    re-concretizes its live state in place, records the branch as case 2a
    and continues along the logged direction (DESIGN.md §5m).  The guard
    declines under a checkpoint [snapshot] or a replayed schedule, when a
    system-call result variable already created would change, when a value
    used without a pin (see {!Interp.Eval.live_access}) would change or a
    partial operation would become undefined.  [on_changes ~observed model
    changes] sees every input change list the guard computes with
    {!Rkernel.changed_inputs}, with the run's observed values and the
    offered model: a test can check it against a full re-read of
    [observed].  [observe] is told the effective value of every input
    variable the run creates, as it creates it; the run's
    {!Concolic.Engine.run_result.hint} is its launch model overlaid with
    those values for the variables that model leaves unbound. *)
val run :
  ?snapshot:Instrument.Snapshot.t ->
  ?max_steps:int ->
  ?record_cases:(case_stats -> unit) ->
  ?on_changes:
    (observed:Solver.Model.t -> Solver.Model.t -> (int * int) list option -> unit) ->
  ?observe:(int -> int -> unit) ->
  prog:Minic.Program.t ->
  plan:Instrument.Plan.t ->
  vars:Solver.Symvars.t ->
  seed:int ->
  Instrument.Report.t ->
  Concolic.Engine.offer ->
  Solver.Model.t ->
  Concolic.Engine.run_result

(** The crash of a run that reached the report's crash site: the stop test
    of reproduction. *)
val crash_site :
  Instrument.Report.t -> Concolic.Engine.run_result -> Interp.Crash.t option

(** Run [prog] from [main] on a reproduced input with no hooks at all: the
    replay kernel supplies [model]'s bytes (the defaults of the attempt
    [seed] for the rest), the report's logged system-call results and
    schedule.  A reproduction without a checkpoint [snapshot], resumed or
    not, stands for exactly this execution. *)
val reexecute :
  prog:Minic.Program.t ->
  vars:Solver.Symvars.t ->
  seed:int ->
  Instrument.Report.t ->
  Solver.Model.t ->
  Interp.Eval.result

(** Reproduce the bug described by [report].  [budget] is the developer's
    patience (the paper's one-hour limit, scaled); [seed] varies the random
    initial input.  Solver queries are memoized across pendings and
    restarts in [cache] when supplied — the triage batch scheduler shares
    one {!Solver.Cache.t} across a whole batch — and otherwise in a
    private cache.  [max_attempts] caps the
    restart-with-a-fresh-seed loop; once hit, a clean frontier exhaustion
    returns [Not_reproduced] with [timed_out = false] (a [true] there
    always means the clock or the run budget ran out, never mere
    exhaustion).  [elapsed_s] is wall-clock time inside this call; callers
    that retry with escalating budgets must accumulate it across calls
    (see {!Triage.Sched}).  A result of [Reproduced] carries a model that
    crashes at the reported site.

    [telemetry] wraps the search in a [reproduce] span with one
    [replay.attempt] child per restart (each wrapping its engine
    exploration), and accumulates the §3.1 [replay.case.*] counters — one
    registry update per run, so the per-branch hot path is untouched.

    When the report carries a suppression table, it is decoded and
    proof-checked ({!Staticanalysis.Suppression.verify}) once up front;
    elided branches then take their bit from the reconstruction rules
    instead of the log reader.  Raises [Invalid_argument] when the table
    fails to decode or a claimed proof is rejected (fail-closed: unproven
    rules must never steer replay).

    With [snapshot] (checkpointed replay, §6), [report] covers only the
    final epoch of a checkpointed {!Instrument.Field_run}.  Each run starts
    from [main] with the shipped logs gated off; at the first
    [checkpoint()] it executes, {!Instrument.Snapshot.restore} makes every
    non-pointer global cell a fresh symbolic variable and guided replay of
    the final epoch's logs begins, so the search covers both the
    post-checkpoint inputs and a consistent pre-checkpoint global state. *)
val reproduce :
  ?budget:Concolic.Engine.budget ->
  ?seed:int ->
  ?max_steps:int ->
  ?snapshot:Instrument.Snapshot.t ->
  ?cache:Solver.Cache.t ->
  ?max_attempts:int ->
  ?telemetry:Telemetry.t ->
  prog:Minic.Program.t ->
  plan:Instrument.Plan.t ->
  Instrument.Report.t ->
  result * stats
