(** Dynamic analysis: time-budgeted concolic execution that labels branches
    (§2.1).

    Marks argv and stream data symbolic, explores paths with {!Engine}, and
    labels every executed branch [Symbolic] or [Concrete] with the paper's
    sticky rule (symbolic wins; concrete may be upgraded later).  Branches
    never reached within the budget stay [Unvisited] — the source of the
    dynamic method's under-instrumentation. *)

open Minic

type result = {
  labels : Label.map;
  vars : Solver.Symvars.t;
  runs : int;
  visited : int;  (** branch locations executed at least once *)
  coverage : float;  (** visited / total branch locations *)
  elapsed_s : float;
}

(** Build the run function for a scenario: fresh world per run, symbolic
    argv and stream bytes, symbolic syscall results. *)
let make_run ?(max_steps = 2_000_000) (sc : Scenario.t) ~vars
    ~(on_branch_observed : int -> bool -> unit) :
    Solver.Model.t -> Engine.run_result =
 fun model ->
  let world, handle = Osmodel.World.kernel sc.world in
  let observed = ref Solver.Model.empty in
  let observe id v = observed := Solver.Model.add id v !observed in
  let sk =
    Sym_kernel.create ~observe ~vars ~model ~world ~handle ~sym_results:true ()
  in
  let trace = Path.create () in
  let label_hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch =
        (fun ~bid ~iter:_ ~taken ~cond ->
          on_branch_observed bid (Interp.Value.is_symbolic cond);
          taken);
    }
  in
  let caps = (Scenario.shape_of sc).arg_caps in
  let cfg =
    {
      Interp.Eval.inputs = Sym_kernel.symbolic_args ~observe ~vars ~model sc ~caps;
      kernel = Sym_kernel.kernel sk;
      hooks = Path.hooks ~inner:label_hooks trace;
      max_steps = min max_steps sc.max_steps;
      scheduler = None;
    }
  in
  let r = Interp.Eval.run sc.prog cfg in
  { Engine.outcome = r.outcome; trace = Path.view trace; observed = !observed }

(** Run the analysis.  The budget plays the role of the paper's
    one-hour/two-hour symbolic execution cut-offs (LC vs HC).  [jobs] > 1
    explores with a parallel worker pool; label updates are then serialized
    through a mutex (the sticky rule commutes, so the resulting label map
    does not depend on worker scheduling).  [cache] memoizes solver queries
    across pendings; without one the analysis opens a private cache. *)
let analyze ?(budget = Engine.default_budget) ?max_steps ?(jobs = 1) ?cache
    ?(telemetry = Telemetry.disabled)
    (sc : Scenario.t) : result =
  Telemetry.Span.with_ telemetry ~name:"analyze.dynamic"
    ~attrs:[ ("scenario", Telemetry.Event.Str sc.name) ]
    (fun sp ->
      let vars = Solver.Symvars.create () in
      let n = Program.nbranches sc.prog in
      let labels = Label.make ~nbranches:n Label.Unvisited in
      let label_mu = Mutex.create () in
      let on_branch_observed =
        if jobs <= 1 then fun bid symbolic -> Label.observe labels bid ~symbolic
        else fun bid symbolic ->
          Mutex.lock label_mu;
          Label.observe labels bid ~symbolic;
          Mutex.unlock label_mu
      in
      let run = make_run ?max_steps sc ~vars ~on_branch_observed in
      let cache =
        match cache with Some c -> c | None -> Solver.Cache.create ()
      in
      let stats, _ =
        Engine.explore ~vars ~budget ~strategy:Engine.Bfs ~jobs ~cache
          ~telemetry ~run ()
      in
      let visited = n - Label.count labels Label.Unvisited in
      let coverage =
        if n = 0 then 1.0 else float_of_int visited /. float_of_int n
      in
      Telemetry.Span.addi sp "runs" stats.runs;
      Telemetry.Span.addi sp "visited" visited;
      Telemetry.Span.addf sp "coverage" coverage;
      { labels; vars; runs = stats.runs; visited; coverage;
        elapsed_s = stats.elapsed_s })

(** Label statistics for reporting (Table 2-style). *)
let count_labels (r : result) =
  ( Label.count r.labels Label.Symbolic,
    Label.count r.labels Label.Concrete,
    Label.count r.labels Label.Unvisited )
