(** The concolic exploration engine.

    Implements the paper's §2.1 search: execute with concrete inputs,
    collect the path's branch constraints, negate one, solve for a new
    input, re-execute.  Alternative paths wait on a *pending list* of
    constraint sets (exactly the structure reused by guided replay in §3.1);
    selection is depth-first, the heuristic the paper says it uses.

    Pending sets share their parent run's trace array and materialise the
    constraint list only when popped, so a run with thousands of symbolic
    branch executions costs O(1) memory per pending alternative.

    The engine is generic over the actual run function, so dynamic analysis
    and bug replay share it.

    One loop drains the pending frontier with [~jobs] workers: each pops a
    pending, solves it (optionally through a shared memoizing
    {!Solver.Cache}), re-executes in an isolated interpreter state and
    pushes the children back.  [~jobs:1] (the default) runs the single
    worker on the calling domain, in the exact LIFO/FIFO order of
    {!Dfs}/{!Bfs}.  With more workers, each on its own OCaml 5 domain,
    that order becomes a *priority hint* — each pop still takes the
    deepest/oldest pending, but several pendings are in flight at once, so
    the global visit order is not the sequential one. *)

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
  trace : Path.entry list;  (** in execution order *)
  observed : Solver.Model.t;
      (** effective concrete value of every symbolic input variable the run
          touched; used to seed the solver for child pendings so that only
          the negated constraint's variables need new values *)
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
      (** pendings answered Unsat by a learned core, no solver call *)
  mutable solved_incremental : int;
      (** solver calls that reused >= 1 scope frame *)
  mutable solver_calls : int;  (** calls that reached the incremental solver *)
  mutable steals : int;
      (** always 0: the single shared frontier has nothing to steal from;
          kept so readers of the record keep compiling *)
  mutable worker_runs : int array;
      (** per-worker run counts, length [jobs]; the seeding run counts
          toward worker 0.  Invariant: the sum equals [runs]. *)
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
  trace : Path.entry array;
  upto : int;
  hint : Solver.Model.t;
  lineage : Solver.Expr.t list;
}

let negated_of (p : pending) = Solver.Expr.negate p.trace.(p.upto).Path.cons

let constraints_of (p : pending) : Solver.Expr.t list =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (p.trace.(i).Path.cons :: acc)
  in
  p.lineage @ build (p.upto - 1) [ negated_of p ]

let monotonic () = Unix.gettimeofday ()

(* Solve a pending's constraint set, escalating once on Unknown: an Unknown
   abandons this pending subtree for good — fatal when it carries a
   log-forced direction.  Routed through the memoizing cache when one is
   supplied (Unknowns are not cached, so the escalated call always reaches
   the real solver).  [telemetry] records the hit/miss/solve time split
   (through the cache when present, as [solver.solve_s] otherwise). *)
let solve_pending ?cache ?session ~telemetry ~vars ~hint cs =
  let solve ?budget () =
    match session with
    (* incremental path: learned-core pruning, scope re-sync, cache probe
       on the slice, portfolio search — all inside {!Solver.Incr.solve}.
       Same slice soundness argument as below. *)
    | Some s -> Solver.Incr.solve s ?budget ?cache ~hint cs
    | None -> (
        match cache with
        (* [slice] is sound here: a pending's hint satisfies every constraint
           outside the focus component, and the exploration loop merges the
           returned model over the hint (union_prefer_left) before running *)
        | Some c ->
            Solver.Cache.solve c ?budget ~telemetry ~vars ~hint ~slice:true cs
        | None ->
            Telemetry.Metrics.time telemetry "solver.solve_s" (fun () ->
                Solver.Solve.solve ?budget ~vars ~hint cs))
  in
  match solve () with
  | Solver.Solve.Unknown ->
      solve ~budget:{ Solver.Solve.default_budget with max_nodes = 3_000_000 } ()
  | r -> r

(* ------------------------------------------------------------------ *)
(* Exploration: a pool of [jobs] workers over one mutex-protected
   frontier.  At [jobs = 1] worker 0 runs inline on the calling domain (no
   [Domain.spawn]); nothing else touches the frontier, so it pops in the
   strict LIFO/FIFO order of {!Dfs}/{!Bfs} and the run is deterministic.

   Invariants:
   - every field of [stats], the frontier, [found] and [failed] are only
     touched with [m] held;
   - [run] and the solver execute with [m] released (that is the whole
     point); [on_run]/[should_stop] are called with [m] held, so user
     callbacks are serialized and may keep plain mutable state;
   - [active] counts workers between a successful pop and the push of that
     pending's children.  Termination: frontier empty AND [active] = 0 —
     the racy "frontier empty but a worker may still push children" case
     parks waiters on [cv] until the in-flight worker either pushes (then
     broadcasts) or retires;
   - [stats.runs] is reserved under the lock *before* a run executes, so
     the [max_runs] budget is an exact bound. *)

let drain ~vars ~budget ~strategy ~jobs ?cache ?incr:isolver ~telemetry ~span
    ~run ~should_stop ~on_run (stats : stats) :
    (Solver.Model.t * run_result) option =
  let deadline = monotonic () +. budget.max_time_s in
  let forks = Telemetry.Metrics.counter telemetry "engine.forks" in
  (* per-worker run counts feed the [worker_runs] parity invariant *)
  let wruns = Array.make jobs 0 in
  let m = Mutex.create () in
  let cv = Condition.create () in
  (* the pending list: LIFO for DFS, FIFO for BFS *)
  let stack : pending Stack.t = Stack.create () in
  let queue : pending Queue.t = Queue.create () in
  let frontier_push p =
    match strategy with Dfs -> Stack.push p stack | Bfs -> Queue.push p queue
  in
  let frontier_pop () =
    match strategy with Dfs -> Stack.pop_opt stack | Bfs -> Queue.take_opt queue
  in
  let frontier_size () =
    match strategy with Dfs -> Stack.length stack | Bfs -> Queue.length queue
  in
  let found = ref None in
  let failed = ref None in
  let fail e = if !failed = None then failed := Some e in
  let active = ref 0 in
  (* [flipped] is the (position, negated constraint) this run was created to
     satisfy.  If the run records a *different* constraint at that position
     (a concretisation re-pinned to a new value), that position is fair game
     for another flip — with the lineage remembering the exclusions.  A
     branch entry re-records exactly the negated constraint, so branches are
     never flip-flopped.  Children are pushed shallow-to-deep so the DFS
     pops the deepest first.  Called with [m] held. *)
  let push_children (model : Solver.Model.t) (result : run_result) bound flipped
      lineage =
    let trace = Array.of_list result.trace in
    let hint = Solver.Model.union_prefer_left model result.observed in
    let before = frontier_size () in
    Array.iteri
      (fun i (e : Path.entry) ->
        let reflip =
          match flipped with Some (j, c) -> i = j && e.cons <> c | None -> false
        in
        if e.negatable && (i >= bound || reflip) then
          (* the exclusion lineage matters only along a re-flip chain (the
             re-pinned entry would otherwise cycle through old values); an
             ordinary child's prefix already implies every past decision,
             and a divergent run must not inherit constraints about a path
             it no longer follows *)
          frontier_push
            { trace; upto = i; hint; lineage = (if reflip then lineage else []) })
      trace;
    let after = frontier_size () in
    Telemetry.Metrics.incr ~by:(after - before) forks;
    Telemetry.Metrics.sample telemetry "engine.frontier" (float_of_int after);
    stats.forks <- stats.forks + (after - before);
    stats.pending_peak <- max stats.pending_peak after
  in
  (* execute one run; called with [m] held, releases it around [run] *)
  let do_run_locked k model bound flipped lineage =
    stats.runs <- stats.runs + 1;
    wruns.(k) <- wruns.(k) + 1;
    Mutex.unlock m;
    let result = try Ok (run model) with e -> Error e in
    Mutex.lock m;
    match result with
    | Error e -> fail e
    | Ok result -> (
        match
          on_run model result;
          should_stop model result
        with
        | true -> if !found = None then found := Some (model, result)
        | false -> push_children model result bound flipped lineage
        | exception e -> fail e)
  in
  (* process one pending; called with [m] held, releases it around solving *)
  let process k session (p : pending) =
    Mutex.unlock m;
    let solved =
      try
        let hint id = Solver.Model.find_opt id p.hint in
        Ok (solve_pending ?cache ?session ~telemetry ~vars ~hint (constraints_of p))
      with e -> Error e
    in
    Mutex.lock m;
    match solved with
    | Error e -> fail e
    | Ok (Solver.Solve.Sat model) ->
        stats.sat <- stats.sat + 1;
        (* a sibling may have stopped the search or spent the budget while
           this worker was solving *)
        if !found = None && stats.runs < budget.max_runs then begin
          (* keep the parent's values for variables the solver left free *)
          let model = Solver.Model.union_prefer_left model p.hint in
          do_run_locked k model (p.upto + 1)
            (Some (p.upto, negated_of p))
            (negated_of p :: p.lineage)
        end
    | Ok Solver.Solve.Unsat -> stats.unsat <- stats.unsat + 1
    | Ok Solver.Solve.Unknown -> stats.unknown <- stats.unknown + 1
  in
  let worker k wsp =
    let session = Option.map (fun i -> Solver.Incr.session i ~vars) isolver in
    let pops = ref 0 in
    Mutex.lock m;
    let rec loop () =
      if !found <> None || !failed <> None || stats.runs >= budget.max_runs
      then ()
      else
        match frontier_pop () with
        | None ->
            (* frontier drained but a sibling is still executing: it may
               yet push children, so wait for its broadcast *)
            if !active > 0 then begin
              Condition.wait cv m;
              loop ()
            end
        | Some _ when monotonic () > deadline -> stats.timed_out <- true
        | Some p ->
            incr active;
            incr pops;
            process k session p;
            decr active;
            Condition.broadcast cv;
            loop ()
    in
    loop ();
    Condition.broadcast cv;
    Mutex.unlock m;
    Telemetry.Span.addi wsp "pendings" !pops
  in
  (* seed the frontier with the initial run (empty model — concrete inputs
     come from the scenario), then drain it *)
  Mutex.lock m;
  do_run_locked 0 Solver.Model.empty 0 None [];
  Mutex.unlock m;
  if jobs = 1 then worker 0 Telemetry.Span.noop
  else
    Array.init jobs (fun k ->
        Domain.spawn (fun () ->
            (* nesting is per-domain, so the explore span is linked
               explicitly *)
            Telemetry.Span.with_ telemetry ~parent:span ~name:"engine.worker"
              ~attrs:[ ("worker", Telemetry.Event.Int k) ]
              (worker k)))
    |> Array.iter Domain.join;
  (match !failed with Some e -> raise e | None -> ());
  stats.worker_runs <- wruns;
  !found

(* ------------------------------------------------------------------ *)

let explore ~(vars : Solver.Symvars.t) ?(budget = default_budget)
    ?(strategy = Dfs) ?(jobs = 1) ?cache ?incr
    ?(telemetry = Telemetry.disabled)
    ~(run : Solver.Model.t -> run_result)
    ?(should_stop = fun _ _ -> false)
    ?(on_run = fun (_ : Solver.Model.t) (_ : run_result) -> ()) () :
    stats * (Solver.Model.t * run_result) option =
  let jobs = max 1 jobs in
  let stats =
    { runs = 0; sat = 0; unsat = 0; unknown = 0; pending_peak = 0;
      elapsed_s = 0.0; timed_out = false; forks = 0; core_pruned = 0;
      solved_incremental = 0; solver_calls = 0; steals = 0;
      worker_runs = [||] }
  in
  Telemetry.Span.with_ telemetry ~name:"engine.explore"
    ~attrs:
      [
        ("strategy", Telemetry.Event.Str (match strategy with Dfs -> "dfs" | Bfs -> "bfs"));
        ("jobs", Telemetry.Event.Int jobs);
        ("max_runs", Telemetry.Event.Int budget.max_runs);
      ]
    (fun sp ->
      let run =
        if Telemetry.enabled telemetry then fun model ->
          Telemetry.Metrics.time telemetry "engine.run_s" (fun () -> run model)
        else run
      in
      (* delta of the incremental layer's counters attributable to this
         exploration (the [Incr.t] may be shared across sequential explores
         of a triage ladder, but never across concurrent ones) *)
      let incr_before = Option.map Solver.Incr.snapshot incr in
      let started = monotonic () in
      let found =
        drain ~vars ~budget ~strategy ~jobs ?cache ?incr ~telemetry ~span:sp
          ~run ~should_stop ~on_run stats
      in
      (match (incr, incr_before) with
      | Some i, Some b ->
          let a = Solver.Incr.snapshot i in
          stats.core_pruned <- a.Solver.Incr.core_pruned - b.Solver.Incr.core_pruned;
          stats.solved_incremental <-
            a.Solver.Incr.incremental - b.Solver.Incr.incremental;
          stats.solver_calls <- a.Solver.Incr.solver_calls - b.Solver.Incr.solver_calls;
          Telemetry.Metrics.incr_named ~by:stats.solver_calls telemetry
            "engine.solver_calls";
          Telemetry.Metrics.incr_named ~by:stats.solved_incremental telemetry
            "engine.solved_incremental";
          Telemetry.Metrics.incr_named ~by:stats.core_pruned telemetry
            "engine.core_pruned";
          Telemetry.Metrics.incr_named
            ~by:(a.Solver.Incr.cores_learned - b.Solver.Incr.cores_learned)
            telemetry "engine.cores_learned"
      | _ -> ());
      if stats.runs >= budget.max_runs && found = None then
        stats.timed_out <- true;
      stats.elapsed_s <- monotonic () -. started;
      Telemetry.Metrics.incr_named ~by:stats.runs telemetry "engine.runs";
      Telemetry.Metrics.incr_named ~by:stats.sat telemetry "engine.sat";
      Telemetry.Metrics.incr_named ~by:stats.unsat telemetry "engine.unsat";
      Telemetry.Metrics.incr_named ~by:stats.unknown telemetry "engine.unknown";
      Telemetry.Span.addi sp "runs" stats.runs;
      Telemetry.Span.addi sp "pending_peak" stats.pending_peak;
      Telemetry.Span.addf sp "elapsed_s" stats.elapsed_s;
      (stats, found))

(** An {!Engine.stats} in the unified counter view (scope ["engine"]).
    The record stays for the bench tables. *)
let counters (s : stats) : Telemetry.Counters.snapshot =
  Telemetry.Counters.make ~scope:"engine"
    ~gauges:
      [ ("elapsed_s", s.elapsed_s);
        ("timed_out", if s.timed_out then 1.0 else 0.0) ]
    [
      ("runs", s.runs); ("sat", s.sat); ("unsat", s.unsat);
      ("unknown", s.unknown); ("pending_peak", s.pending_peak);
      ("forks", s.forks); ("core_pruned", s.core_pruned);
      ("solved_incremental", s.solved_incremental);
      ("solver_calls", s.solver_calls);
    ]
