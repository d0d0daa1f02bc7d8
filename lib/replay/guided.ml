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

type result =
  | Reproduced of {
      model : Solver.Model.t;
      crash : Interp.Crash.t;
      seed : int;
      runs : int;
      elapsed_s : float;
    }
  | Not_reproduced of { runs : int; elapsed_s : float; timed_out : bool }

type stats = {
  engine : Concolic.Engine.stats;
  cases : case_stats;
  vars : Solver.Symvars.t;
  cache : Solver.Cache.snapshot;
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
    §3.1 case counters, and the [solver.cache] scope — flattened under
    scope [reproduce]. *)
let counters (s : stats) : Telemetry.Counters.snapshot =
  Telemetry.Counters.union ~scope:"reproduce"
    [
      Concolic.Engine.counters s.engine;
      Telemetry.Counters.make ~scope:"replay" (case_counters s.cases);
      Solver.Cache.counters s.cache;
    ]

let elapsed = function
  | Reproduced r -> r.elapsed_s
  | Not_reproduced r -> r.elapsed_s

let case2b_abort = "2b: log contradicts symbolic branch"

(* One guided replay run under input [model].  [record_cases] receives the
   run's own case counters once the run is over; every run of a search
   runs on the engine's calling domain, so the callback needs no
   synchronisation.  [sup_rules] is the decoded, verified suppression
   table; each run gets its own reconstruction cursor state.  At a case-2b
   mismatch the run offers itself to the engine for a resume (DESIGN.md
   §5m); [on_changes] sees each input change list the guard computes,
   [observe] each input variable's effective value as it is created, and
   [telemetry] times the guard ([replay.resume_s]) and counts its
   declines. *)
let run_once ?(snapshot : Instrument.Snapshot.t option)
    ?(sup_rules : Staticanalysis.Suppression.rule option array option)
    ?(on_changes = fun ~observed:_ _ _ -> ())
    ?(observe = fun (_ : int) (_ : int) -> ()) ~telemetry
    ~(prog : Minic.Program.t) ~(plan : Plan.t) ~(report : Report.t) ~vars
    ~seed ~max_steps ~(record_cases : case_stats -> unit)
    (offer : Concolic.Engine.offer) (model : Solver.Model.t) :
    Concolic.Engine.run_result =
  let cases = new_case_stats () in
  (* [observed]: the effective value of every variable created so far, for
     the guard; [hint]: the children's hint, [launch] overlaid with the
     observed values of the variables [launch] leaves unbound *)
  let observed = ref Solver.Model.empty in
  let launch = ref model and hint = ref model in
  let observe id v =
    observe id v;
    observed := Solver.Model.add id v !observed;
    if not (Solver.Model.mem id !launch) then hint := Solver.Model.add id v !hint
  in
  (* with a checkpoint snapshot, the shipped logs describe only the
     post-checkpoint epoch: stay gated until the program checkpoints *)
  let gate = ref (Option.is_none snapshot) in
  let rk =
    Rkernel.create ~observe ~active:!gate ~vars ~model ~shape:report.shape
      ~syscall_log:report.syscall_log ~seed ()
  in
  let scheduler =
    match report.schedule_log with
    | Some l when Instrument.Schedule_log.length l > 0 ->
        Some (Instrument.Schedule_log.replaying_scheduler l)
    | _ -> None
  in
  let live = ref None in
  (* The resume guard.  A run from [main] on [model'] retraces this run's
     path: [model'] satisfies every constraint recorded so far.  What no
     constraint records must not move: the values used without a pin, and
     the system-call results the kernel's stream and fd state grew from.
     Restored globals and replayed schedules are outside the argument.
     Its cost follows what [model'] moves, not the run's state:
     [changed_inputs] reads only [solved]'s variables and the kernel's
     unclamped results, and [reconcretize] re-checks only the cells that
     can have moved.  A decline names its reason, counted as
     [replay.resume.declined.<reason>]: a system-call result would move, a
     value used without a pin would change, a shadowed cell disagrees with
     its shadow (or its shadow is undefined under the new inputs), or the
     run is outside the argument. *)
  let guard ~solved model' =
    match !live with
    | Some (live : Interp.Eval.live_access)
      when Option.is_none snapshot && Option.is_none scheduler -> (
        let changed = Rkernel.changed_inputs rk ~solved model' ~observed:!observed in
        on_changes ~observed:!observed model' changed;
        match changed with
        | None -> Error "sys_result"
        | Some changes ->
            let observed' =
              List.fold_left
                (fun m (id, v) -> Solver.Model.add id v m)
                !observed changes
            in
            let env m id =
              match Solver.Model.find_opt id m with
              | Some v -> v
              | None -> raise Not_found
            in
            let fresh = env observed' in
            let same (e, v) =
              match Solver.Expr.eval fresh e with
              | v' -> v' = v
              | exception (Solver.Expr.Undefined | Not_found) -> false
            in
            if not (List.for_all same (live.unpinned ())) then Error "unpinned"
            else if
              not
                (live.reconcretize
                   ~changed:(List.map fst changes)
                   ~old:(env !observed) ~fresh)
            then Error "inconsistent"
            else begin
              (* [model'] binds every observed variable: it is the hint *)
              Rkernel.set_model rk model';
              observed := observed';
              launch := model';
              hint := model';
              Ok ()
            end)
    | _ -> Error "ineligible"
  in
  let resume =
    if not (Telemetry.enabled telemetry) then fun ~solved model' ->
      Result.is_ok (guard ~solved model')
    else fun ~solved model' ->
      let t0 = Unix.gettimeofday () in
      let verdict = guard ~solved model' in
      Telemetry.Metrics.observe telemetry "replay.resume_s"
        (Unix.gettimeofday () -. t0);
      match verdict with
      | Ok () -> true
      | Error why ->
          Telemetry.Metrics.incr_named telemetry
            ("replay.resume.declined." ^ why);
          false
  in
  let reader = Report.reader report in
  let recon = Option.map Staticanalysis.Suppression.Recon.create sup_rules in
  let trace = Concolic.Path.create () in
  let on_checkpoint access =
    match snapshot with
    | Some s when not !gate ->
        (* restored cells integrate with the search like any other input *)
        Instrument.Snapshot.restore s ~vars ~model ~observe access;
        Rkernel.activate rk;
        gate := true
    | _ -> ()
  in
  let on_branch ~bid ~iter ~taken ~(cond : Interp.Value.t) =
    if not !gate then taken
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
          Concolic.Path.record_branch trace ~bid ~taken sym;
          taken
      | Some sym, true -> (
          match logged_bit () with
          | None ->
              cases.log_exhausted <- cases.log_exhausted + 1;
              Concolic.Path.record_branch trace ~bid ~taken sym;
              taken
          | Some logged ->
              if logged = taken then begin
                cases.case2a <- cases.case2a + 1;
                Concolic.Path.record_branch ~negatable:false trace ~bid ~taken
                  sym;
                taken
              end
              else begin
                (* record the (wrong) taken direction as negatable: the
                   engine turns it into a pending set forcing the logged
                   direction, and may hand that pending straight back *)
                cases.case2b <- cases.case2b + 1;
                Concolic.Path.record_branch trace ~bid ~taken sym;
                let aborted =
                  { Concolic.Engine.outcome = Interp.Crash.Aborted case2b_abort;
                    trace = Concolic.Path.view trace;
                    hint = !hint }
                in
                if offer aborted ~resume then begin
                  (* the live run is now the forced pending's run: record
                     the branch as a run from [main] on the new model would *)
                  Concolic.Path.drop_last trace;
                  cases.case2a <- cases.case2a + 1;
                  Concolic.Path.record_branch ~negatable:false trace ~bid
                    ~taken:logged sym;
                  logged
                end
                else raise (Interp.Eval.Abort_run case2b_abort)
              end)
      | None, true -> (
          match logged_bit () with
          | None ->
              cases.log_exhausted <- cases.log_exhausted + 1;
              taken
          | Some logged ->
              if logged = taken then begin
                cases.case3a <- cases.case3a + 1;
                taken
              end
              else begin
                cases.case3b <- cases.case3b + 1;
                raise
                  (Interp.Eval.Abort_run "3b: log contradicts concrete branch")
              end)
      | None, false ->
          cases.case4 <- cases.case4 + 1;
          taken
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
          on_start = Some (fun l -> live := Some l);
        };
      max_steps;
      scheduler;
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
    trace = Concolic.Path.view trace;
    hint = !hint;
  }

(* Fail-closed gate on the report's suppression table: decode it and
   re-derive every claimed proof against the program before any
   reconstructed bit is trusted.  A table that does not decode or does not
   verify aborts reproduction — replaying with unproven rules could
   silently pin wrong directions. *)
let suppression_rules ~prog ~(plan : Plan.t) (report : Report.t) =
  match report.suppression with
  | [] -> None
  | table -> (
      match
        Staticanalysis.Suppression.of_table
          ~nbranches:(Minic.Program.nbranches prog) table
      with
      | Error msg ->
          invalid_arg ("Replay.Guided: suppression table rejected: " ^ msg)
      | Ok rules -> (
          match
            Staticanalysis.Suppression.verify ~instrumented:plan.Plan.instrumented
              prog table
          with
          | Error msg ->
              invalid_arg ("Replay.Guided: suppression proof rejected: " ^ msg)
          | Ok () -> Some rules))

let run ?snapshot ?(max_steps = 5_000_000) ?(record_cases = ignore) ?on_changes
    ?observe ~prog ~plan ~vars ~seed report =
  let sup_rules = suppression_rules ~prog ~plan report in
  run_once ?snapshot ?sup_rules ?on_changes ?observe
    ~telemetry:Telemetry.disabled ~prog
    ~plan ~report ~vars ~seed ~max_steps ~record_cases

let crash_site (report : Report.t) (r : Concolic.Engine.run_result) =
  match r.outcome with
  | Interp.Crash.Crash c when Interp.Crash.equal_site c report.crash -> Some c
  | _ -> None

let reexecute ~prog ~vars ~seed (report : Report.t) model =
  let rk =
    Rkernel.create ~vars ~model ~shape:report.shape
      ~syscall_log:report.syscall_log ~seed ()
  in
  Interp.Eval.run prog
    {
      Interp.Eval.default_config with
      inputs = Rkernel.symbolic_args rk;
      kernel = Rkernel.kernel rk;
      scheduler =
        (match report.schedule_log with
        | Some l when Instrument.Schedule_log.length l > 0 ->
            Some (Instrument.Schedule_log.replaying_scheduler l)
        | _ -> None);
    }

(** Reproduce the bug described by [report].  [budget] is the developer's
    patience (the paper's one-hour limit, scaled).  Solver queries are
    memoized across pendings and across restarts — alpha-renaming makes
    the cache survive the fresh variable registry of a restart — in
    [cache] when supplied (shared across a triage batch), otherwise in a
    private one.  [max_attempts] caps the restart count,
    after which a clean frontier exhaustion returns
    [Not_reproduced { timed_out = false; _ }]. *)
let reproduce ?(budget = Concolic.Engine.default_budget) ?(seed = 1)
    ?(max_steps = 5_000_000) ?snapshot ?cache ?max_attempts
    ?(telemetry = Telemetry.disabled) ~(prog : Minic.Program.t)
    ~(plan : Plan.t) (report : Report.t) : result * stats =
  Telemetry.Span.with_ telemetry ~name:"reproduce" @@ fun rsp ->
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
  let sup_rules = suppression_rules ~prog ~plan report in
  if sup_rules <> None then
    Telemetry.Span.addi rsp "suppressed_rules" (List.length report.suppression);
  let started = Unix.gettimeofday () in
  let deadline = started +. budget.Concolic.Engine.max_time_s in
  let total_runs = ref 0 in
  let attempts = ref 0 in
  let cache =
    match cache with Some c -> c | None -> Solver.Cache.create ()
  in
  let rec attempt attempt_seed acc_stats =
    incr attempts;
    let vars = Solver.Symvars.create () in
    (* the engine runs every run on this domain, so the once-per-run
       merge needs no synchronisation *)
    let cases = new_case_stats () in
    let record_cases c =
      tel_record c;
      merge_cases ~into:cases c
    in
    let run =
      run_once ?snapshot ?sup_rules ~telemetry ~prog ~plan ~report ~vars
        ~seed:attempt_seed ~max_steps ~record_cases
    in
    let remaining_time = deadline -. Unix.gettimeofday () in
    let remaining_runs = budget.Concolic.Engine.max_runs - !total_runs in
    let engine_stats, found =
      Telemetry.Span.with_ telemetry ~parent:rsp ~name:"replay.attempt"
        ~attrs:[ ("seed", Telemetry.Event.Int attempt_seed) ]
        (fun asp ->
          let r, found =
            Concolic.Engine.search ~vars
              ~budget:
                { Concolic.Engine.max_runs = max 1 remaining_runs;
                  max_time_s = max 0.1 remaining_time }
              ~cache ~telemetry ~run
              ~stop:(fun _ r -> crash_site report r) ()
          in
          Telemetry.Span.addi asp "runs" r.Concolic.Engine.runs;
          (r, found))
    in
    total_runs := !total_runs + engine_stats.runs;
    let stats =
      { engine = engine_stats; cases; vars;
        cache = Solver.Cache.snapshot cache }
    in
    (match acc_stats with
    | Some (prev : stats) ->
        (* accumulate case counters across restarts for reporting *)
        merge_cases ~into:cases prev.cases;
        engine_stats.runs <- !total_runs
    | None -> ());
    match found with
    | Some (model, crash) ->
        ( Reproduced
            {
              model;
              crash;
              seed = attempt_seed;
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
