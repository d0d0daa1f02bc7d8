(** The end-to-end pipeline of the paper, as one API: each stage is a
    {!Run} function taking one {!Config.t}.

    Developer site, pre-deployment:
    {ol {- [analyze]: run dynamic (time-budgeted concolic) and/or static
           (dataflow + points-to) analysis on the program;}
        {- [plan]: choose an instrumentation method and compute the branch
           set to instrument (retained by the developer);}}

    User site:
    {ol {- [field_run]: execute the instrumented program on real input,
           logging one bit per instrumented branch (plus selected syscall
           results);}
        {- on a crash, [Instrument.Report.of_field_run] assembles the bug
           report — no input content included.}}

    Developer site, post-report:
    {ol {- [reproduce]: guided symbolic replay along the partial branch
           trace until an input crashing at the reported site is found.}} *)

open Minic

type analysis = {
  prog : Program.t;
  dynamic : Concolic.Dynamic.result option;
  static : Staticanalysis.Static.result option;
}

(** One value carrying every pipeline knob: build one with
    {!Config.default} and the [with_*] setters, hand it to every {!Run}
    stage. *)
module Config = struct
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
        (** refine plans with the probe-elision analysis: statically
            redundant instrumented branches ship a reconstruction rule
            instead of log bits *)
    seed : int;  (** replay's initial random input *)
    replay_max_steps : int;  (** interpreter step cap per replay run *)
    telemetry : Telemetry.t;
        (** handle threaded through every stage; {!Telemetry.disabled} by
            default, where every probe is a no-op *)
  }

  let default =
    {
      dynamic_budget = Concolic.Engine.default_budget;
      replay_budget = Concolic.Engine.default_budget;
      analyze_lib = true;
      refine = true;
      jobs = 1;
      log_syscalls = true;
      suppression = false;
      seed = 1;
      replay_max_steps = 5_000_000;
      telemetry = Telemetry.disabled;
    }

  (* setters take the config last so they chain with [|>] *)
  let with_jobs jobs c = { c with jobs }

  let with_budget ?dynamic ?replay c =
    let c =
      match dynamic with Some b -> { c with dynamic_budget = b } | None -> c
    in
    match replay with Some b -> { c with replay_budget = b } | None -> c

  let with_telemetry telemetry c = { c with telemetry }
  let with_analyze_lib analyze_lib c = { c with analyze_lib }
  let with_refine refine c = { c with refine }
  let with_log_syscalls log_syscalls c = { c with log_syscalls }
  let with_suppression suppression c = { c with suppression }
  let with_seed seed c = { c with seed }
  let with_replay_max_steps replay_max_steps c = { c with replay_max_steps }
end

(** The pipeline stages, each taking the {!Config.t} first.  Stages open
    telemetry spans on [config.telemetry]: [analyze] > [analyze.dynamic] /
    [analyze.static], [plan], [field_run], [reproduce]. *)
module Run = struct
  let analyze (c : Config.t) ?test_scenario (prog : Program.t) : analysis =
    Telemetry.Span.with_ c.telemetry ~name:"analyze" @@ fun sp ->
    let dynamic =
      Option.map
        (Concolic.Dynamic.analyze ~budget:c.dynamic_budget
           ~telemetry:c.telemetry)
        test_scenario
    in
    let static =
      Some
        (Staticanalysis.Static.analyze ~analyze_lib:c.analyze_lib
           ~refine:c.refine ~telemetry:c.telemetry prog)
    in
    Telemetry.Span.addi sp "branches" (Program.nbranches prog);
    { prog; dynamic; static }

  let plan (c : Config.t) (a : analysis) (meth : Instrument.Methods.t) :
      Instrument.Plan.t =
    Telemetry.Span.with_ c.telemetry ~name:"plan"
      ~attrs:
        [ ("method", Telemetry.Event.Str (Instrument.Methods.to_string meth)) ]
    @@ fun sp ->
    let p =
      Instrument.Plan.make
        ~nbranches:(Program.nbranches a.prog)
        ?dynamic:
          (Option.map
             (fun (d : Concolic.Dynamic.result) -> d.labels)
             a.dynamic)
        ?static:
          (Option.map
             (fun (s : Staticanalysis.Static.result) -> s.labels)
             a.static)
        meth
    in
    let p =
      if not c.suppression then p
      else begin
        let sup =
          Staticanalysis.Suppression.analyze
            ~instrumented:p.Instrument.Plan.instrumented a.prog
        in
        (* the analysis is proof-producing; re-check its own output with
           the independent verifier before the plan is accepted, exactly
           as replay will for the shipped table *)
        (match
           Staticanalysis.Suppression.verify
             ~instrumented:p.Instrument.Plan.instrumented a.prog
             (Staticanalysis.Suppression.to_table sup)
         with
        | Ok () -> ()
        | Error msg -> failwith ("Pipeline.Run.plan: suppression proof rejected: " ^ msg));
        Telemetry.Span.addi sp "elided"
          (Staticanalysis.Suppression.n_elided sup);
        Instrument.Plan.with_suppression p sup
      end
    in
    Telemetry.Span.addi sp "instrumented" p.n_instrumented;
    p

  let field_run (c : Config.t) ~plan (sc : Concolic.Scenario.t) :
      Instrument.Field_run.result =
    Instrument.Field_run.run ~log_syscalls:c.log_syscalls
      ~telemetry:c.telemetry ~plan sc

  let field_run_report (c : Config.t) ~plan:p (sc : Concolic.Scenario.t) :
      Instrument.Field_run.result * Instrument.Report.t option =
    let r = field_run c ~plan:p sc in
    (r, Instrument.Report.of_field_run ~sc ~plan:p r)

  let reproduce (c : Config.t) ?restore ~(prog : Program.t)
      ~(plan : Instrument.Plan.t) (report : Instrument.Report.t) :
      Replay.Guided.result * Replay.Guided.stats =
    Replay.Guided.reproduce ~budget:c.replay_budget ~seed:c.seed
      ~max_steps:c.replay_max_steps ?restore ~telemetry:c.telemetry
      ~prog ~plan report
end

(** Precision report of the static labels against the dynamic ground
    truth; [None] unless both analyses ran. *)
let precision (a : analysis) : Staticanalysis.Precision.report option =
  match a.static, a.dynamic with
  | Some s, Some d ->
      Some (Staticanalysis.Static.precision s a.prog ~dynamic:d.labels)
  | (Some _ | None), _ -> None

(* ------------------------------------------------------------------ *)
(* Measurement oracle for Table 4 / Table 7 style statistics *)

type symbolic_logging_stats = {
  logged_locs : int;  (** symbolic branch locations that are instrumented *)
  logged_execs : int;  (** symbolic branch executions logged *)
  unlogged_locs : int;  (** symbolic branch locations not instrumented *)
  unlogged_execs : int;
}

(** Replay-difficulty oracle: execute [sc] once with symbolic inputs over
    the concrete simulated OS and count, among branch executions whose
    condition is actually input-dependent, how many hit instrumented
    locations.  The paper's Tables 4, 7 and 8 report exactly these four
    numbers, and shows they predict replay time.

    [syscall_results_symbolic] controls whether branches that test
    system-call *results* count as symbolic: false models replay with a
    syscall log (results are replayed verbatim — Tables 4 and 7), true
    models replay without one (results must be searched — Table 8). *)
let measure_symbolic_logging ?(syscall_results_symbolic = false)
    ~(plan : Instrument.Plan.t) (sc : Concolic.Scenario.t) :
    symbolic_logging_stats =
  let vars = Solver.Symvars.create () in
  let world, handle = Osmodel.World.kernel sc.world in
  let sk =
    Concolic.Sym_kernel.create ~vars ~model:Solver.Model.empty ~world ~handle
      ~sym_results:syscall_results_symbolic ()
  in
  let n = Program.nbranches sc.prog in
  let sym_execs = Array.make n 0 in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch =
        (fun ~bid ~iter:_ ~taken ~cond ->
          if Interp.Value.is_symbolic cond then sym_execs.(bid) <- sym_execs.(bid) + 1;
          taken);
    }
  in
  let caps = (Concolic.Scenario.shape_of sc).arg_caps in
  let cfg =
    {
      Interp.Eval.inputs =
        Concolic.Sym_kernel.symbolic_args ~vars ~model:Solver.Model.empty sc ~caps;
      kernel = Concolic.Sym_kernel.kernel sk;
      hooks;
      max_steps = sc.max_steps;
      scheduler = None;
    }
  in
  let (_ : Interp.Eval.result) = Interp.Eval.run sc.prog cfg in
  let stats = ref { logged_locs = 0; logged_execs = 0; unlogged_locs = 0; unlogged_execs = 0 } in
  Array.iteri
    (fun bid execs ->
      if execs > 0 then
        if Instrument.Plan.is_instrumented plan bid then
          stats :=
            { !stats with logged_locs = !stats.logged_locs + 1;
              logged_execs = !stats.logged_execs + execs }
        else
          stats :=
            { !stats with unlogged_locs = !stats.unlogged_locs + 1;
              unlogged_execs = !stats.unlogged_execs + execs })
    sym_execs;
  !stats

(* ------------------------------------------------------------------ *)
(* Branch-behaviour measurement (Figure 1 / Figure 3 style) *)

type branch_exec_stats = {
  total_execs : int array;  (** executions per branch id *)
  symbolic_execs : int array;  (** executions with a symbolic condition *)
}

(** Run [sc] once with symbolic inputs and record per-branch-location
    execution counts, total and symbolic — the data behind the paper's
    Figures 1 and 3 and its two branch-behaviour observations. *)
let measure_branch_behaviour (sc : Concolic.Scenario.t) : branch_exec_stats =
  let vars = Solver.Symvars.create () in
  let world, handle = Osmodel.World.kernel sc.world in
  let sk =
    Concolic.Sym_kernel.create ~vars ~model:Solver.Model.empty ~world ~handle
      ~sym_results:true ()
  in
  let n = Program.nbranches sc.prog in
  let total = Array.make n 0 in
  let sym = Array.make n 0 in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch =
        (fun ~bid ~iter:_ ~taken ~cond ->
          total.(bid) <- total.(bid) + 1;
          if Interp.Value.is_symbolic cond then sym.(bid) <- sym.(bid) + 1;
          taken);
    }
  in
  let caps = (Concolic.Scenario.shape_of sc).arg_caps in
  let cfg =
    {
      Interp.Eval.inputs =
        Concolic.Sym_kernel.symbolic_args ~vars ~model:Solver.Model.empty sc ~caps;
      kernel = Concolic.Sym_kernel.kernel sk;
      hooks;
      max_steps = sc.max_steps;
      scheduler = None;
    }
  in
  let (_ : Interp.Eval.result) = Interp.Eval.run sc.prog cfg in
  { total_execs = total; symbolic_execs = sym }
