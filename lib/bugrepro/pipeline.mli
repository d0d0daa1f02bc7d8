(** The end-to-end pipeline of the paper, as one API: every stage is a
    {!Run} function taking one {!Config.t}.

    Developer site, pre-deployment: {!Run.analyze} (dynamic and/or static
    branch labelling) then {!Run.plan} (pick a §2.3 instrumentation
    method).  User site: {!Run.field_run} / {!Run.field_run_report}
    (bit-per-branch logging; a crash yields a {!Instrument.Report.t}).
    Developer site, post-report: {!Run.reproduce} (guided symbolic
    replay). *)

type analysis = {
  prog : Minic.Program.t;
  dynamic : Concolic.Dynamic.result option;
  static : Staticanalysis.Static.result option;
}

(** One value carrying every pipeline knob.  Build with {!Config.default}
    and chain the setters:
    {[
      Config.default |> Config.with_seed 7 |> Config.with_telemetry tel
    ]} *)
module Config : sig
  type t = {
    dynamic_budget : Concolic.Engine.budget;
        (** symbolic-execution time knob for {!Run.analyze} (LC vs HC) *)
    replay_budget : Concolic.Engine.budget;
        (** developer's patience for {!Run.reproduce} *)
    analyze_lib : bool;  (** false = the paper's uServer setup (§5.3) *)
    refine : bool;  (** false = seed (unrefined) static pipeline *)
    jobs : int;
        (** worker domains draining a triage batch's cluster queue
            ([Triage.Sched.policy_of_config]); each search (analysis,
            replay) runs on one *)
    log_syscalls : bool;  (** ship a syscall log with the branch log *)
    suppression : bool;
        (** refine plans with the probe-elision analysis
            ({!Staticanalysis.Suppression}): statically redundant
            instrumented branches ship a reconstruction rule instead of
            log bits.  Off by default (the paper's raw configuration). *)
    seed : int;  (** replay's initial random input *)
    replay_max_steps : int;  (** interpreter step cap per replay run *)
    telemetry : Telemetry.t;
        (** handle threaded through every stage; {!Telemetry.disabled} by
            default, where every probe is a no-op *)
  }

  (** Paper defaults: sequential, refined static pipeline, syscall log,
      telemetry disabled. *)
  val default : t

  (** Setters take the config last so they chain with [|>]. *)

  val with_jobs : int -> t -> t
  val with_budget :
    ?dynamic:Concolic.Engine.budget ->
    ?replay:Concolic.Engine.budget ->
    t ->
    t
  val with_telemetry : Telemetry.t -> t -> t
  val with_analyze_lib : bool -> t -> t
  val with_refine : bool -> t -> t
  val with_log_syscalls : bool -> t -> t
  val with_suppression : bool -> t -> t
  val with_seed : int -> t -> t
  val with_replay_max_steps : int -> t -> t
end

(** The pipeline stages, each taking the {!Config.t} first.  Stages open
    telemetry spans on [config.telemetry]: [analyze] (with
    [analyze.dynamic] / [analyze.static] children), [plan], [field_run],
    [reproduce]. *)
module Run : sig
  (** Pre-deployment analysis; [test_scenario] is the developer's test
      environment for dynamic analysis. *)
  val analyze :
    Config.t -> ?test_scenario:Concolic.Scenario.t -> Minic.Program.t ->
    analysis

  (** Instrumentation plan for a method, from the available analyses.
      With [config.suppression] the plan is refined by the probe-elision
      analysis; the resulting table is proof-checked
      ({!Staticanalysis.Suppression.verify}) before the plan is accepted
      (raises [Failure] on rejection — an unproven table must never reach
      the field). *)
  val plan : Config.t -> analysis -> Instrument.Methods.t -> Instrument.Plan.t

  (** User-site execution. *)
  val field_run :
    Config.t ->
    plan:Instrument.Plan.t ->
    Concolic.Scenario.t ->
    Instrument.Field_run.result

  (** Full user-site step: run and, if it crashed, build the report. *)
  val field_run_report :
    Config.t ->
    plan:Instrument.Plan.t ->
    Concolic.Scenario.t ->
    Instrument.Field_run.result * Instrument.Report.t option

  (** Developer-site bug reproduction (guided replay). *)
  val reproduce :
    Config.t ->
    ?restore:Replay.Guided.restore_fn ->
    prog:Minic.Program.t ->
    plan:Instrument.Plan.t ->
    Instrument.Report.t ->
    Replay.Guided.result * Replay.Guided.stats
end

(** Precision report of the static labels against the dynamic ground
    truth; [None] unless both analyses ran. *)
val precision : analysis -> Staticanalysis.Precision.report option

(** {1 Measurement oracles (benchmarks)} *)

type symbolic_logging_stats = {
  logged_locs : int;  (** symbolic branch locations that are instrumented *)
  logged_execs : int;
  unlogged_locs : int;
  unlogged_execs : int;
}

(** Replay-difficulty oracle (Tables 4, 7, 8): one symbolic-input execution
    over the concrete simulated OS, counting input-dependent branch
    executions at instrumented vs uninstrumented locations.
    [syscall_results_symbolic] (default false) additionally counts branches
    on system-call results as symbolic — the Table 8 setting, where no
    syscall log pins them. *)
val measure_symbolic_logging :
  ?syscall_results_symbolic:bool ->
  plan:Instrument.Plan.t ->
  Concolic.Scenario.t ->
  symbolic_logging_stats

type branch_exec_stats = {
  total_execs : int array;  (** executions per branch id *)
  symbolic_execs : int array;  (** executions with a symbolic condition *)
}

(** Per-branch-location execution counts (Figures 1 and 3). *)
val measure_branch_behaviour : Concolic.Scenario.t -> branch_exec_stats
