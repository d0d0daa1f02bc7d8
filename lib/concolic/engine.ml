(** The concolic exploration engine.

    Implements the paper's §2.1 search: execute with concrete inputs,
    collect the path's branch constraints, negate one, solve for a new
    input, re-execute.  Alternative paths wait on a *pending list* of
    constraint sets (exactly the structure reused by guided replay in §3.1);
    selection is depth-first, the heuristic the paper says it uses.

    Pending sets share their parent run's trace view ({!Path.view}) and
    materialise only their slice when popped: the constraints transitively
    connected to the negated one through shared variables, found by walking
    the path's variable index from the focus.  A run with thousands of
    symbolic branch executions costs O(1) memory per pending alternative,
    and the work per pending scales with its slice, not with the trace.

    The engine is generic over the actual run function, so dynamic analysis
    and bug replay share it.

    One loop drains the pending frontier on the calling domain: it pops a
    pending, solves it (optionally through a shared memoizing
    {!Solver.Cache}), re-executes in an isolated interpreter state and
    pushes the children back, in the exact LIFO/FIFO order of
    {!Dfs}/{!Bfs}. *)

type budget = {
  max_runs : int;
  max_time_s : float;  (** wall-clock cut-off for the whole exploration *)
}

type strategy =
  | Dfs  (** deepest pending first: follows a forced chain (guided replay) *)
  | Bfs
      (** oldest/shallowest pending first: generational search, best for
          coverage (dynamic analysis) *)

let default_budget = { max_runs = 500; max_time_s = 10.0 }

type run_result = {
  outcome : Interp.Crash.outcome;
  trace : Path.view;  (** in execution order *)
  hint : Solver.Model.t;
      (** the run's launch model, plus the effective concrete value of every
          symbolic input variable it touched that the model leaves unbound:
          seeds the solver for child pendings, so that only the negated
          constraint's variables need new values *)
}

(* A resume offer, handed to every run (see engine.mli). *)
type offer =
  run_result -> resume:(solved:Solver.Model.t -> Solver.Model.t -> bool) -> bool

type stats = {
  mutable runs : int;
  mutable resumes : int;  (** runs that continued a live run, not from [main] *)
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable pending_peak : int;
  mutable elapsed_s : float;
  mutable timed_out : bool;
  mutable forks : int;  (** pendings pushed onto the frontier *)
  mutable core_pruned : int;  (** always 0, like [steals] *)
  mutable solved_incremental : int;  (** always 0, like [steals] *)
  mutable solver_calls : int;  (** calls into the cache or the solver *)
  mutable steals : int;
      (** always 0: the single shared frontier has nothing to steal from;
          kept so readers of the record keep compiling *)
  mutable worker_runs : int array;
      (** always [[| runs |]]: ignored; kept only so [perfbench/] builds;
          ROADMAP item 3 deletes it *)
}

(* A pending constraint set: the prefix [trace.(0 .. upto-1)] with
   [trace.(upto)] negated, plus the [lineage] of negated constraints
   inherited from ancestor pendings.  The lineage is what makes exclusions
   accumulate: when a re-executed run re-records a fresh constraint at a
   previously-negated position (a re-pinned concretisation, say), the
   ancestor's negation would otherwise be forgotten and the search would
   cycle between two values.  [upto + 1] is the bound from which the next
   run may generate children (inherited constraints are never re-negated). *)
type pending = {
  trace : Path.view;
  upto : int;
  hint : Solver.Model.t;
  lineage : Solver.Expr.t list;
}

let negated_of (p : pending) =
  Solver.Expr.negate (Path.get p.trace p.upto).Path.cons

(* The full constraint set, for the uncached reference path. *)
let constraints_of (p : pending) : Solver.Expr.t list =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) ((Path.get p.trace i).Path.cons :: acc)
  in
  p.lineage @ build (p.upto - 1) [ negated_of p ]

(* The slice of [constraints_of p] connected to the negated constraint,
   which is what the cache keys and solves.  Sound because a pending's hint
   satisfies every constraint outside it (they are path constraints of the
   parent run) and the exploration loop merges the solver's model over the
   hint (union_prefer_left) before running. *)
let slice_of (p : pending) : Solver.Expr.t list =
  Path.slice p.trace ~upto:p.upto ~lineage:p.lineage (negated_of p)

let monotonic () = Unix.gettimeofday ()

(* Solve a pending's constraint set, escalating once on Unknown: an Unknown
   abandons this pending subtree for good — fatal when it carries a
   log-forced direction.  Routed through the memoizing cache when one is
   supplied (Unknowns are not cached, so the escalated call always reaches
   the real solver).  [telemetry] records the hit/miss/solve time split
   (through the cache when present, as [solver.solve_s] otherwise).  [cs] is
   the pending's slice with a cache and its full constraint set without.
   Each call into the cache or the solver counts in [stats.solver_calls]. *)
let solve_pending ?cache ~telemetry ~(stats : stats) ~vars ~hint cs =
  let solve ?budget () =
    stats.solver_calls <- stats.solver_calls + 1;
    match cache with
    | Some c -> Solver.Cache.solve c ?budget ~telemetry ~vars ~hint cs
    | None ->
        Telemetry.Metrics.time telemetry "solver.solve_s" (fun () ->
            Solver.Solve.solve ?budget ~vars ~hint cs)
  in
  match solve () with
  | Solver.Solve.Unknown ->
      solve ~budget:{ Solver.Solve.default_budget with max_nodes = 3_000_000 } ()
  | r -> r

(* ------------------------------------------------------------------ *)
(* Exploration: one loop over the frontier, on the calling domain.  It
   pops in the strict LIFO/FIFO order of {!Dfs}/{!Bfs}, so the search is
   deterministic.  [stats.runs] is counted before a run executes (or
   resumes), and every pop and resume checks it first, so the [max_runs]
   budget is an exact bound.

   Resume offers.  A run that is about to abort may offer its result (see
   {!offer}).  The engine then does exactly what the run's end and the
   next pop would do: account the result and push its children; if the
   pending the frontier would hand out next is the last child just pushed
   — the one forcing the other direction at the abort point — pop it,
   solve it as the loop's pop would and, on Sat, let the run take the new
   model.  Every counter, pending and model is the one the
   abort-and-restart schedule produces; only the re-executed prefix is
   saved. *)

(* What one executed pending runs under: its model, the solver's own
   assignment it was merged from, the trace position from which it may
   fork, the flip it was created to satisfy, and the lineage of negations
   it inherits. *)
type launch = {
  model : Solver.Model.t;
  solved : Solver.Model.t;
  bound : int;
  flipped : (int * Solver.Expr.t) option;
  negations : Solver.Expr.t list;
}

let drain ~vars ~budget ~strategy ?cache ~telemetry ~run ~stop ~on_run
    (stats : stats) : (Solver.Model.t * 'a) option =
  let deadline = monotonic () +. budget.max_time_s in
  let forks = Telemetry.Metrics.counter telemetry "engine.forks" in
  let timed = Telemetry.enabled telemetry in
  (* the pending list: LIFO for DFS, FIFO for BFS *)
  let stack : pending Stack.t = Stack.create () in
  let queue : pending Queue.t = Queue.create () in
  let frontier_push p =
    match strategy with Dfs -> Stack.push p stack | Bfs -> Queue.push p queue
  in
  let frontier_pop () =
    match strategy with Dfs -> Stack.pop_opt stack | Bfs -> Queue.take_opt queue
  in
  let frontier_peek () =
    match strategy with Dfs -> Stack.top_opt stack | Bfs -> Queue.peek_opt queue
  in
  let frontier_size () =
    match strategy with Dfs -> Stack.length stack | Bfs -> Queue.length queue
  in
  let found = ref None in
  (* [flipped] is the (position, negated constraint) this run was created to
     satisfy.  If the run records a *different* constraint at that position
     (a concretisation re-pinned to a new value), that position is fair game
     for another flip — with the lineage remembering the exclusions.  A
     branch entry re-records exactly the negated constraint, so branches are
     never flip-flopped.  Children are pushed shallow-to-deep so the DFS
     pops the deepest first; no position below [min bound flipped] can fork,
     so the walk starts there.  Returns the trace view the children share. *)
  let push_children (l : launch) (result : run_result) =
    let trace = result.trace and hint = result.hint in
    let before = frontier_size () in
    let from =
      match l.flipped with Some (j, _) -> min l.bound j | None -> l.bound
    in
    for i = from to Path.view_length trace - 1 do
      let e = Path.get trace i in
      let reflip =
        match l.flipped with
        | Some (j, c) -> i = j && e.cons <> c
        | None -> false
      in
      if e.negatable && (i >= l.bound || reflip) then
        (* the exclusion lineage matters only along a re-flip chain (the
           re-pinned entry would otherwise cycle through old values); an
           ordinary child's prefix already implies every past decision,
           and a divergent run must not inherit constraints about a path
           it no longer follows *)
        frontier_push
          { trace; upto = i; hint;
            lineage = (if reflip then l.negations else []) }
    done;
    let after = frontier_size () in
    Telemetry.Metrics.incr ~by:(after - before) forks;
    Telemetry.Metrics.sample telemetry "engine.frontier" (float_of_int after);
    stats.forks <- stats.forks + (after - before);
    stats.pending_peak <- max stats.pending_peak after;
    trace
  in
  (* end-of-run accounting: the callbacks, then the children; [None] when
     the search stops here *)
  let finish (l : launch) result =
    on_run l.model result;
    match stop l.model result with
    | Some w ->
        found := Some (l.model, w);
        None
    | None -> Some (push_children l result)
  in
  (* solve a popped pending; [Some] is the launch of a Sat pending *)
  let solve (p : pending) =
    let hint id = Solver.Model.find_opt id p.hint in
    let cs = match cache with Some _ -> slice_of p | None -> constraints_of p in
    match solve_pending ?cache ~telemetry ~stats ~vars ~hint cs with
    | Solver.Solve.Sat model ->
        stats.sat <- stats.sat + 1;
        (* keep the parent's values for variables the solver left free *)
        Some
          {
            model = Solver.Model.union_prefer_left model p.hint;
            solved = model;
            bound = p.upto + 1;
            flipped = Some (p.upto, negated_of p);
            negations = negated_of p :: p.lineage;
          }
    | Solver.Solve.Unsat ->
        stats.unsat <- stats.unsat + 1;
        None
    | Solver.Solve.Unknown ->
        stats.unknown <- stats.unknown + 1;
        None
  in
  (* A run's offer, after [finish] pushed [trace]'s children: the checks
     the loop's next pop makes, then that pop and its solve.  [cur] is the
     run's launch, moved on when [resume] accepts the model; a model it
     declines is left in [next] to run from [main]. *)
  let try_resume trace ~resume ~cur ~next =
    stats.runs < budget.max_runs
    &&
    match frontier_peek () with
    | Some p
      when p.trace == trace
           && p.upto = Path.view_length trace - 1
           && monotonic () <= deadline -> (
        ignore (frontier_pop ());
        match solve p with
        | None -> false
        | Some l ->
            if resume ~solved:l.solved l.model then begin
              stats.runs <- stats.runs + 1;
              stats.resumes <- stats.resumes + 1;
              cur := l;
              true
            end
            else begin
              next := Some l;
              false
            end)
    | _ -> false
  in
  (* execute [l] and, whenever the run declined a resume whose pending
     solved Sat, that pending from [main] *)
  let rec do_run (l : launch) =
    stats.runs <- stats.runs + 1;
    let cur = ref l and next = ref None in
    (* the engine's own time inside offers (accounting, pop, solve): it is
       not run time *)
    let offers_s = ref 0.0 in
    (* set once an offer is refused: the run's result is accounted and the
       run must abort *)
    let closed = ref false in
    (* an exception inside an offer is raised once the run has returned,
       not through the run *)
    let failed = ref None in
    let offer seg ~resume =
      let t0 = monotonic () and resume_s = ref 0.0 in
      let resume ~solved model =
        let t = monotonic () in
        let accepted = resume ~solved model in
        resume_s := monotonic () -. t;
        accepted
      in
      let continues =
        try
          (not !closed)
          &&
          match finish !cur seg with
          | None -> false
          | Some trace -> try_resume trace ~resume ~cur ~next
        with e ->
          failed := Some e;
          false
      in
      if not continues then closed := true;
      offers_s := !offers_s +. (monotonic () -. t0 -. !resume_s);
      continues
    in
    let t0 = monotonic () in
    let result = try Ok (run offer l.model) with e -> Error e in
    if timed then
      Telemetry.Metrics.observe telemetry "engine.run_s"
        (monotonic () -. t0 -. !offers_s);
    (match !failed, result with
    | Some e, _ | None, Error e -> raise e
    | None, Ok result -> if not !closed then ignore (finish !cur result));
    match !next with
    | Some l when !found = None && stats.runs < budget.max_runs -> do_run l
    | _ -> ()
  in
  let rec loop () =
    if !found = None && stats.runs < budget.max_runs then
      match frontier_pop () with
      | None -> ()
      | Some _ when monotonic () > deadline -> stats.timed_out <- true
      | Some p ->
          Option.iter do_run (solve p);
          loop ()
  in
  (* seed the frontier with the initial run (empty model — concrete inputs
     come from the scenario), then drain it *)
  do_run
    { model = Solver.Model.empty; solved = Solver.Model.empty; bound = 0;
      flipped = None; negations = [] };
  loop ();
  !found

(* ------------------------------------------------------------------ *)

let search ~(vars : Solver.Symvars.t) ?(budget = default_budget)
    ?(strategy = Dfs) ?cache ?(telemetry = Telemetry.disabled)
    ~(run : offer -> Solver.Model.t -> run_result)
    ~(stop : Solver.Model.t -> run_result -> 'a option)
    ?(on_run = fun (_ : Solver.Model.t) (_ : run_result) -> ()) () :
    stats * (Solver.Model.t * 'a) option =
  let stats =
    { runs = 0; resumes = 0; sat = 0; unsat = 0; unknown = 0; pending_peak = 0;
      elapsed_s = 0.0; timed_out = false; forks = 0; core_pruned = 0;
      solved_incremental = 0; solver_calls = 0; steals = 0;
      worker_runs = [||] }
  in
  Telemetry.Span.with_ telemetry ~name:"engine.explore"
    ~attrs:
      [
        ("strategy", Telemetry.Event.Str (match strategy with Dfs -> "dfs" | Bfs -> "bfs"));
        ("max_runs", Telemetry.Event.Int budget.max_runs);
      ]
    (fun sp ->
      let started = monotonic () in
      let found =
        drain ~vars ~budget ~strategy ?cache ~telemetry ~run ~stop ~on_run
          stats
      in
      if stats.runs >= budget.max_runs && found = None then
        stats.timed_out <- true;
      stats.elapsed_s <- monotonic () -. started;
      stats.worker_runs <- [| stats.runs |];
      Telemetry.Metrics.incr_named ~by:stats.runs telemetry "engine.runs";
      Telemetry.Metrics.incr_named ~by:stats.resumes telemetry "engine.resumes";
      Telemetry.Metrics.incr_named ~by:stats.sat telemetry "engine.sat";
      Telemetry.Metrics.incr_named ~by:stats.unsat telemetry "engine.unsat";
      Telemetry.Metrics.incr_named ~by:stats.unknown telemetry "engine.unknown";
      Telemetry.Span.addi sp "runs" stats.runs;
      Telemetry.Span.addi sp "resumes" stats.resumes;
      Telemetry.Span.addi sp "pending_peak" stats.pending_peak;
      Telemetry.Span.addf sp "elapsed_s" stats.elapsed_s;
      (stats, found))

let explore ~vars ?budget ?strategy ?jobs:(_ : int option) ?cache
    ?incr:(_ : Solver.Incr.t option) ?telemetry
    ~(run : Solver.Model.t -> run_result) ?(should_stop = fun _ _ -> false)
    ?on_run () =
  search ~vars ?budget ?strategy ?cache ?telemetry
    ~run:(fun _ model -> run model)
    ~stop:(fun model r -> if should_stop model r then Some r else None)
    ?on_run ()

(** An {!Engine.stats} in the unified counter view (scope ["engine"]).
    The record stays for the bench tables. *)
let counters (s : stats) : Telemetry.Counters.snapshot =
  Telemetry.Counters.make ~scope:"engine"
    ~gauges:
      [ ("elapsed_s", s.elapsed_s);
        ("timed_out", if s.timed_out then 1.0 else 0.0) ]
    [
      ("runs", s.runs); ("resumes", s.resumes); ("sat", s.sat); ("unsat", s.unsat);
      ("unknown", s.unknown); ("pending_peak", s.pending_peak);
      ("forks", s.forks); ("solver_calls", s.solver_calls);
    ]
