(** Dynamic analysis: time-budgeted concolic execution that labels branches
    (§2.1).

    Marks argv and stream data symbolic, explores paths with {!Engine}
    (generational/BFS search), and labels every executed branch [Symbolic]
    or [Concrete] with the paper's sticky rule.  Branches never reached
    within the budget stay [Unvisited] — the source of the dynamic method's
    under-instrumentation. *)

type result = {
  labels : Minic.Label.map;
  vars : Solver.Symvars.t;
  runs : int;
  visited : int;  (** branch locations executed at least once *)
  coverage : float;  (** visited / total branch locations *)
  elapsed_s : float;
}

(** Build the run function for a scenario (exposed for tests and custom
    exploration loops): fresh world per run, symbolic argv and stream
    bytes, symbolic syscall results. *)
val make_run :
  ?max_steps:int ->
  Scenario.t ->
  vars:Solver.Symvars.t ->
  on_branch_observed:(int -> bool -> unit) ->
  Solver.Model.t ->
  Engine.run_result

(** Run the analysis.  The budget plays the role of the paper's
    one-hour/two-hour symbolic-execution cut-offs (LC vs HC).  [jobs] > 1
    explores with a parallel worker pool (the sticky labelling rule
    commutes, so the label map does not depend on worker scheduling);
    [cache] memoizes solver queries across pendings (a private one when
    omitted); [telemetry] wraps the
    exploration in an [analyze.dynamic] span (runs/visited/coverage end
    attributes) over the {!Engine.explore} instrumentation. *)
val analyze :
  ?budget:Engine.budget ->
  ?max_steps:int ->
  ?jobs:int ->
  ?cache:Solver.Cache.t ->
  ?telemetry:Telemetry.t ->
  Scenario.t ->
  result

(** (symbolic, concrete, unvisited) label counts. *)
val count_labels : result -> int * int * int
