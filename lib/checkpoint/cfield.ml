(** Checkpointed field runs.

    Like {!Instrument.Field_run}, but every [checkpoint()] executed by the
    program discards the branch and syscall logs accumulated so far and
    snapshots the structure of global state.  A crash then ships only the
    *final epoch*'s logs plus the last snapshot — bounding both the storage
    at the user site and the replay horizon at the developer site, which is
    the point of §6's proposal. *)

type result = {
  outcome : Interp.Crash.outcome;
  cost : Interp.Cost.t;
  output : string;
  branch_log : Instrument.Branch_log.log;  (** final epoch only *)
  syscall_log : Instrument.Syscall_log.log option;  (** final epoch only *)
  snapshot : Snapshot.t option;  (** at the last checkpoint, if any *)
  epochs : int;  (** checkpoints taken *)
  discarded_bits : int;  (** bits dropped at checkpoints *)
  total_bits : int;  (** bits a checkpoint-less run would have shipped *)
}

let run ?(log_syscalls = true) ~(plan : Instrument.Plan.t)
    (sc : Concolic.Scenario.t) : result =
  let world, handle = Osmodel.World.kernel sc.world in
  ignore world;
  let writer = ref (Instrument.Branch_log.Writer.create ()) in
  let sys_log = ref (if log_syscalls then Some (Instrument.Syscall_log.create ()) else None) in
  let snapshot = ref None in
  let epochs = ref 0 in
  let discarded = ref 0 in
  let side_cost = Interp.Cost.create () in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch =
        (fun ~bid ~iter:_ ~taken ~cond:_ ->
          if Instrument.Plan.is_instrumented plan bid then begin
            Instrument.Branch_log.Writer.add_bit !writer taken;
            Interp.Cost.charge_logged_branch side_cost
          end;
          taken);
      on_checkpoint =
        (fun access ->
          discarded := !discarded + Instrument.Branch_log.Writer.nbits !writer;
          writer := Instrument.Branch_log.Writer.create ();
          if log_syscalls then sys_log := Some (Instrument.Syscall_log.create ());
          snapshot := Some (Snapshot.capture ~epoch:!epochs access);
          incr epochs);
    }
  in
  let kernel req =
    let res = handle req in
    (match !sys_log with
    | Some log when Osmodel.Sysreq.loggable req ->
        Instrument.Syscall_log.record log ~kind:(Osmodel.Sysreq.req_name req)
          ~value:(Osmodel.Sysreq.res_int res);
        Interp.Cost.charge_logged_syscall side_cost
    | _ -> ());
    Interp.Kernel.concrete_reply res
  in
  let cfg =
    {
      Interp.Eval.inputs = Interp.Inputs.of_strings sc.args;
      kernel;
      hooks;
      max_steps = sc.max_steps;
      scheduler = None;
    }
  in
  let r = Interp.Eval.run sc.prog cfg in
  let cost = r.cost in
  cost.instr <- cost.instr + side_cost.instr;
  cost.logged_branches <- side_cost.logged_branches;
  cost.logged_syscalls <- side_cost.logged_syscalls;
  let final = Instrument.Branch_log.finish !writer in
  {
    outcome = r.outcome;
    cost;
    output = r.output;
    branch_log = final;
    syscall_log = Option.map Instrument.Syscall_log.finish !sys_log;
    snapshot = !snapshot;
    epochs = !epochs;
    discarded_bits = !discarded;
    total_bits = !discarded + final.nbits;
  }

(** Assemble the bug report (final-epoch logs) plus the snapshot needed by
    {!Creplay.reproduce}.  [None] if the run did not crash. *)
let report_of ~(sc : Concolic.Scenario.t) ~(plan : Instrument.Plan.t)
    (r : result) : (Instrument.Report.t * Snapshot.t option) option =
  match r.outcome with
  | Interp.Crash.Crash crash ->
      Some
        ( {
            Instrument.Report.program = sc.name;
            method_used = plan.meth;
            cohort = plan.Instrument.Plan.cohort;
            branch_log = Instrument.Report.Raw r.branch_log;
            syscall_log = r.syscall_log;
            schedule_log = None (* the checkpointed server is single-threaded *);
            crash;
            shape = Concolic.Scenario.shape_of sc;
            (* checkpointed field runs do not apply suppression: the
               restore protocol discards pre-checkpoint bits, which would
               invalidate the reconstruction cursors *)
            suppression = [];
          },
          r.snapshot )
  | Interp.Crash.Exit _ | Interp.Crash.Budget_exhausted | Interp.Crash.Aborted _
    ->
      None
