(** Guided replay: reproduce a bug from a partial branch log (§3.1).

    Drives the concolic {!Concolic.Engine} with the report's bitvector.  At
    every executed branch the four cases of the paper apply:

    + symbolic, not instrumented — fork: assert the taken direction, leave
      the alternative on the pending list;
    + symbolic, instrumented — consume a bit; (a) if it matches, pin the
      direction (no fork); (b) if not, queue the constraint set that forces
      the logged direction and abort the run;
    + concrete, instrumented — consume a bit; on mismatch abort (only
      possible after an earlier wrong turn at an uninstrumented symbolic
      branch);
    + concrete, not instrumented — proceed.

    Reports produced under a suppression plan additionally ship a
    reconstruction table ({!Instrument.Report.t}[.suppression]).  Replay
    decodes and {!Staticanalysis.Suppression.verify}-checks the table
    before trusting it (fail-closed: a rejected proof aborts reproduction),
    then synthesizes the missing bits with
    {!Staticanalysis.Suppression.Recon}: an elided branch's reconstructed
    bit plays exactly the role a consumed log bit would in the four cases
    above, without advancing the log reader.

    A run reproduces the bug when it crashes at the recorded crash site.
    Pending-set selection is depth-first, as in the paper. *)

open Instrument

type case_stats = {
  mutable case1 : int;  (** symbolic, unlogged *)
  mutable case2a : int;  (** symbolic, logged, direction matches *)
  mutable case2b : int;  (** symbolic, logged, mismatch (abort + force) *)
  mutable case3a : int;  (** concrete, logged, matches *)
  mutable case3b : int;  (** concrete, logged, mismatch (abort) *)
  mutable case4 : int;  (** concrete, unlogged *)
  mutable log_exhausted : int;  (** bits missing (truncated log) *)
}

let new_case_stats () =
  { case1 = 0; case2a = 0; case2b = 0; case3a = 0; case3b = 0; case4 = 0;
    log_exhausted = 0 }

(* Fold [c] into [into].  Each run counts its cases locally and merges once
   at the end, so the hot per-branch path never contends on shared
   counters. *)
let merge_cases ~(into : case_stats) (c : case_stats) =
  into.case1 <- into.case1 + c.case1;
  into.case2a <- into.case2a + c.case2a;
  into.case2b <- into.case2b + c.case2b;
  into.case3a <- into.case3a + c.case3a;
  into.case3b <- into.case3b + c.case3b;
  into.case4 <- into.case4 + c.case4;
  into.log_exhausted <- into.log_exhausted + c.log_exhausted

(* Lock-free accumulator for the §3.1 counters.  With [jobs > 1] pool
   workers finish runs concurrently, so the once-per-run merge lands on
   shared state from several domains at once; plain mutable fields lose
   increments there (read-modify-write races) and the totals undercount
   vs the single-job run.  Atomic adds make the merge linearizable; the
   per-branch hot path still counts into a run-local [case_stats]. *)
type case_acc = {
  a1 : int Atomic.t;
  a2a : int Atomic.t;
  a2b : int Atomic.t;
  a3a : int Atomic.t;
  a3b : int Atomic.t;
  a4 : int Atomic.t;
  a_exhausted : int Atomic.t;
}

let new_case_acc () =
  {
    a1 = Atomic.make 0; a2a = Atomic.make 0; a2b = Atomic.make 0;
    a3a = Atomic.make 0; a3b = Atomic.make 0; a4 = Atomic.make 0;
    a_exhausted = Atomic.make 0;
  }

let acc_add (a : case_acc) (c : case_stats) =
  let add cell v = if v <> 0 then ignore (Atomic.fetch_and_add cell v) in
  add a.a1 c.case1;
  add a.a2a c.case2a;
  add a.a2b c.case2b;
  add a.a3a c.case3a;
  add a.a3b c.case3b;
  add a.a4 c.case4;
  add a.a_exhausted c.log_exhausted

(* Safe once the worker domains have joined (the engine returns only after
   its pool drains). *)
let acc_snapshot (a : case_acc) : case_stats =
  {
    case1 = Atomic.get a.a1;
    case2a = Atomic.get a.a2a;
    case2b = Atomic.get a.a2b;
    case3a = Atomic.get a.a3a;
    case3b = Atomic.get a.a3b;
    case4 = Atomic.get a.a4;
    log_exhausted = Atomic.get a.a_exhausted;
  }

type result =
  | Reproduced of {
      model : Solver.Model.t;
      crash : Interp.Crash.t;
      runs : int;
      elapsed_s : float;
    }
  | Not_reproduced of { runs : int; elapsed_s : float; timed_out : bool }

type stats = {
  engine : Concolic.Engine.stats;
  cases : case_stats;
  vars : Solver.Symvars.t;
  cache : Solver.Cache.snapshot option;
      (** solver-cache counters, when the memoizing cache was enabled *)
}

let reproduced = function Reproduced _ -> true | Not_reproduced _ -> false

(* §3.1 replay-case counters in the unified naming: forked = case 1
   (symbolic unlogged), completed = case 2a (logged match pins the
   direction), forced = case 2b (mismatch queues the forcing constraint),
   aborted_contradiction = case 3b (concrete mismatch kills the run). *)
let case_counters (c : case_stats) : (string * int) list =
  [
    ("forked", c.case1);
    ("completed", c.case2a);
    ("forced", c.case2b);
    ("pinned_concrete", c.case3a);
    ("aborted_contradiction", c.case3b);
    ("concrete_unlogged", c.case4);
    ("log_exhausted", c.log_exhausted);
  ]

(** [stats] in the unified counter view: the [engine] scope, the [replay]
    §3.1 case counters, and the [solver.cache] scope when the cache ran —
    flattened under scope [reproduce]. *)
let counters (s : stats) : Telemetry.Counters.snapshot =
  let parts =
    [
      Concolic.Engine.counters s.engine;
      Telemetry.Counters.make ~scope:"replay" (case_counters s.cases);
    ]
    @
    match s.cache with
    | Some c -> [ Solver.Cache.counters c ]
    | None -> []
  in
  Telemetry.Counters.union ~scope:"reproduce" parts

let elapsed = function
  | Reproduced r -> r.elapsed_s
  | Not_reproduced r -> r.elapsed_s

(** Checkpointed replay (§6): rewrites global state symbolically at the
    first [checkpoint()] the run executes.  Receives the run's variable
    registry, solver model and observation callback so restored cells
    integrate with the search like any other input. *)
type restore_fn =
  vars:Solver.Symvars.t ->
  model:Solver.Model.t ->
  observe:(int -> int -> unit) ->
  Interp.Eval.global_access ->
  unit

(* One guided replay run under input [model].  [record_cases] receives the
   run's own case counters once the run is over; with a parallel engine the
   callback must be thread-safe (reproduce merges with atomic adds).
   [sup_rules] is the decoded, verified suppression table; each run gets
   its own reconstruction cursor state. *)
let run_once ?(restore : restore_fn option)
    ?(sup_rules : Staticanalysis.Suppression.rule option array option)
    ~(prog : Minic.Program.t) ~(plan : Plan.t) ~(report : Report.t) ~vars
    ~seed ~max_steps ~(record_cases : case_stats -> unit)
    (model : Solver.Model.t) : Concolic.Engine.run_result =
  let cases = new_case_stats () in
  let observed = ref Solver.Model.empty in
  let observe id v = observed := Solver.Model.add id v !observed in
  (* with a checkpoint restore pending, the shipped logs describe only the
     post-checkpoint epoch: stay gated until the program checkpoints *)
  let gate = ref (restore = None) in
  let rk =
    Rkernel.create ~observe ~active:!gate ~vars ~model ~shape:report.shape
      ~syscall_log:report.syscall_log ~seed ()
  in
  let reader = Report.reader report in
  let recon = Option.map Staticanalysis.Suppression.Recon.create sup_rules in
  let trace = Concolic.Path.create () in
  let on_checkpoint access =
    match restore with
    | Some f when not !gate ->
        f ~vars ~model ~observe access;
        Rkernel.activate rk;
        gate := true
    | _ -> ()
  in
  let on_branch ~bid ~iter ~taken ~(cond : Interp.Value.t) =
    if not !gate then ()
    else begin
      (* the reconstruction cursor sees every executed branch: iteration 0
         of a loop resets the freshness of its invariant children even when
         this branch itself is logged normally *)
      let action =
        match recon with
        | None -> Staticanalysis.Suppression.Recon.Consume
        | Some rc -> Staticanalysis.Suppression.Recon.on_branch rc ~bid ~iter
      in
      let instrumented = Plan.is_instrumented plan bid in
      (* the bit the full log would carry for this execution: consumed from
         the wire (and fed back into the cursor state so dependent rules
         track the *consumed* stream, mirroring the field run) or
         synthesized by the branch's reconstruction rule; [None] = log
         exhausted, or the bit the rule references is unavailable *)
      let logged_bit () =
        match action with
        | Staticanalysis.Suppression.Recon.Consume -> (
            match Report.read_next reader with
            | None -> None
            | Some logged ->
                (match recon with
                | Some rc ->
                    Staticanalysis.Suppression.Recon.record rc ~bid logged
                | None -> ());
                Some logged)
        | Staticanalysis.Suppression.Recon.Elide pred -> Some pred
        | Staticanalysis.Suppression.Recon.Elide_unknown -> None
      in
      match cond.sym, instrumented with
      | Some sym, false ->
          cases.case1 <- cases.case1 + 1;
          Concolic.Path.record_branch trace ~bid ~taken sym
      | Some sym, true -> (
          match logged_bit () with
          | None ->
              cases.log_exhausted <- cases.log_exhausted + 1;
              Concolic.Path.record_branch trace ~bid ~taken sym
          | Some logged ->
              if logged = taken then begin
                cases.case2a <- cases.case2a + 1;
                Concolic.Path.record_branch ~negatable:false trace ~bid ~taken
                  sym
              end
              else begin
                (* record the (wrong) taken direction as negatable: the
                   engine turns it into a pending set forcing the logged
                   direction *)
                cases.case2b <- cases.case2b + 1;
                Concolic.Path.record_branch trace ~bid ~taken sym;
                raise
                  (Interp.Eval.Abort_run "2b: log contradicts symbolic branch")
              end)
      | None, true -> (
          match logged_bit () with
          | None -> cases.log_exhausted <- cases.log_exhausted + 1
          | Some logged ->
              if logged = taken then cases.case3a <- cases.case3a + 1
              else begin
                cases.case3b <- cases.case3b + 1;
                raise
                  (Interp.Eval.Abort_run "3b: log contradicts concrete branch")
              end)
      | None, false -> cases.case4 <- cases.case4 + 1
    end
  in
  let cfg =
    {
      Interp.Eval.inputs = Rkernel.symbolic_args rk;
      kernel = Rkernel.kernel rk;
      hooks =
        {
          Interp.Eval.on_branch;
          on_concretize =
            (fun sym v ->
              (* negatable: a pinned index may contradict a later log-forced
                 constraint (checkpoint-restored state especially); let the
                 engine revisit the pin *)
              if !gate then
                Concolic.Path.record_concretize ~negatable:true trace sym v);
          on_checkpoint;
        };
      max_steps;
      scheduler =
        (match report.schedule_log with
        | Some l when Instrument.Schedule_log.length l > 0 ->
            Some (Instrument.Schedule_log.replaying_scheduler l)
        | _ -> None);
    }
  in
  let r =
    try Interp.Eval.run prog cfg with
    | Rkernel.Log_mismatch msg ->
        {
          Interp.Eval.outcome = Interp.Crash.Aborted msg;
          cost = Interp.Cost.create ();
          output = "";
          steps = 0;
        }
  in
  record_cases cases;
  {
    Concolic.Engine.outcome = r.outcome;
    trace = Concolic.Path.entries trace;
    observed = !observed;
  }

(** Reproduce the bug described by [report].  [budget] is the developer's
    patience (the paper's one-hour limit, scaled).  [jobs] > 1 drains the
    pending frontier with a pool of worker domains; the forced-chain DFS
    order then becomes a priority hint (see DESIGN.md §"Parallel replay").
    [solver_cache] (default on) memoizes solver queries across pendings and
    across restarts — alpha-renaming makes the cache survive the fresh
    variable registry of a restart.  [cache] supplies an external cache to
    use instead (shared across a triage batch); [incr] likewise supplies an
    external incremental solver (one per triage cluster), while
    [incremental] (default true) just enables a private one; learned cores
    are registry-scoped, so a restart's fresh registry drops them but keeps
    the portfolio statistics.  [max_attempts] caps the restart count,
    after which a clean frontier exhaustion returns
    [Not_reproduced { timed_out = false; _ }]. *)
let reproduce ?(budget = Concolic.Engine.default_budget) ?(seed = 1)
    ?(max_steps = 5_000_000) ?restore ?(jobs = 1) ?(solver_cache = true)
    ?cache ?incr:ext_incr ?(incremental = true) ?max_attempts
    ?(telemetry = Telemetry.disabled) ~(prog : Minic.Program.t)
    ~(plan : Plan.t) (report : Report.t) : result * stats =
  Telemetry.Span.with_ telemetry ~name:"reproduce"
    ~attrs:
      [
        ("jobs", Telemetry.Event.Int jobs);
        ("solver_cache", Telemetry.Event.Bool solver_cache);
      ]
  @@ fun rsp ->
  (* §3.1 replay-case counters, bumped per run inside record_cases (each run
     counts locally, so this is one registry update per run, not per
     branch) *)
  let tel_cases =
    if Telemetry.enabled telemetry then
      Some
        (List.map
           (fun name ->
             Telemetry.Metrics.counter telemetry ("replay.case." ^ name))
           [ "forked"; "completed"; "forced"; "pinned_concrete";
             "aborted_contradiction"; "concrete_unlogged"; "log_exhausted" ])
    else None
  in
  let tel_record (c : case_stats) =
    match tel_cases with
    | None -> ()
    | Some cells ->
        List.iter2
          (fun cell (_, v) -> Telemetry.Metrics.incr ~by:v cell)
          cells (case_counters c)
  in
  (* A depth-first chain can die on a genuinely unsatisfiable forced
     pending (a concretisation pinned incompatibly early in the run).
     When the frontier exhausts with budget left, restart with a different
     seed: the initial random input changes and so do the pins — the
     paper's engine enjoys the same freedom in choosing fresh inputs. *)
  (* Fail-closed gate on the report's suppression table: decode it and
     re-derive every claimed proof against the program before any
     reconstructed bit is trusted.  A table that does not decode or does
     not verify aborts reproduction — replaying with unproven rules could
     silently pin wrong directions. *)
  let sup_rules =
    match report.suppression with
    | [] -> None
    | table -> (
        match
          Staticanalysis.Suppression.of_table
            ~nbranches:(Minic.Program.nbranches prog) table
        with
        | Error msg ->
            invalid_arg
              ("Replay.Guided.reproduce: suppression table rejected: " ^ msg)
        | Ok rules -> (
            match
              Staticanalysis.Suppression.verify
                ~instrumented:plan.Plan.instrumented prog table
            with
            | Error msg ->
                invalid_arg
                  ("Replay.Guided.reproduce: suppression proof rejected: "
                 ^ msg)
            | Ok () ->
                Telemetry.Span.addi rsp "suppressed_rules"
                  (List.length table);
                Some rules))
  in
  let started = Unix.gettimeofday () in
  let deadline = started +. budget.Concolic.Engine.max_time_s in
  let total_runs = ref 0 in
  let attempts = ref 0 in
  let cache =
    match cache with
    | Some c -> Some c
    | None -> if solver_cache then Some (Solver.Cache.create ()) else None
  in
  (* shared across restart attempts, like the cache: each attempt's fresh
     registry resets the learned cores but the portfolio keeps its
     cross-attempt strategy statistics *)
  let isolver =
    match ext_incr with
    | Some i -> Some i
    | None -> if incremental then Some (Solver.Incr.create ()) else None
  in
  let rec attempt attempt_seed acc_stats =
    incr attempts;
    let vars = Solver.Symvars.create () in
    let acc = new_case_acc () in
    let record_cases c =
      tel_record c;
      acc_add acc c
    in
    let run =
      run_once ?restore ?sup_rules ~prog ~plan ~report ~vars
        ~seed:attempt_seed ~max_steps ~record_cases
    in
    let should_stop _model (r : Concolic.Engine.run_result) =
      match r.outcome with
      | Interp.Crash.Crash c -> Interp.Crash.equal_site c report.crash
      | Interp.Crash.Exit _ | Interp.Crash.Budget_exhausted
      | Interp.Crash.Aborted _ ->
          false
    in
    let remaining_time = deadline -. Unix.gettimeofday () in
    let remaining_runs = budget.Concolic.Engine.max_runs - !total_runs in
    let engine_stats, found =
      Telemetry.Span.with_ telemetry ~parent:rsp ~name:"replay.attempt"
        ~attrs:[ ("seed", Telemetry.Event.Int attempt_seed) ]
        (fun asp ->
          let r, found =
            Concolic.Engine.explore ~vars
              ~budget:
                { Concolic.Engine.max_runs = max 1 remaining_runs;
                  max_time_s = max 0.1 remaining_time }
              ~jobs ?cache ?incr:isolver ~telemetry ~run ~should_stop ()
          in
          Telemetry.Span.addi asp "runs" r.Concolic.Engine.runs;
          (r, found))
    in
    total_runs := !total_runs + engine_stats.runs;
    let cases = acc_snapshot acc in
    let stats =
      { engine = engine_stats; cases; vars;
        cache = Option.map Solver.Cache.snapshot cache }
    in
    (match acc_stats with
    | Some (prev : stats) ->
        (* accumulate case counters across restarts for reporting *)
        merge_cases ~into:cases prev.cases;
        engine_stats.runs <- !total_runs
    | None -> ());
    match found with
    | Some (model, r) ->
        let crash =
          match r.outcome with Interp.Crash.Crash c -> c | _ -> assert false
        in
        ( Reproduced
            {
              model;
              crash;
              runs = !total_runs;
              elapsed_s = Unix.gettimeofday () -. started;
            },
          stats )
    | None ->
        let now = Unix.gettimeofday () in
        (* the budget is gone when the clock or the run count says so; a
           frontier that merely exhausted under [max_attempts] is NOT a
           timeout — reporting it as one used to make triage retry clean
           exhaustions at ever-larger budgets *)
        let budget_gone =
          now >= deadline || !total_runs >= budget.Concolic.Engine.max_runs
        in
        let attempts_left =
          match max_attempts with Some n -> !attempts < n | None -> true
        in
        if (not budget_gone) && attempts_left then
          attempt (attempt_seed + 1) (Some stats)
        else
          ( Not_reproduced
              {
                runs = !total_runs;
                elapsed_s = now -. started;
                timed_out = budget_gone;
              },
            stats )
  in
  let r, stats = attempt seed None in
  Telemetry.Span.adds rsp "outcome"
    (if reproduced r then "reproduced" else "not_reproduced");
  Telemetry.Span.addi rsp "runs" !total_runs;
  Telemetry.Span.addi rsp "attempts" !attempts;
  (r, stats)
