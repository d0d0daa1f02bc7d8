(** The user-site (field) execution of an instrumented program.

    Runs the scenario concretely, recording one bit per executed
    instrumented branch and — optionally — the results of the loggable
    system calls.  Produces the {!Report.t} the user's machine would send to
    the developer when the run crashes, and the overhead figures (CPU cost,
    storage) the paper's Figures 2, 4 and 5 report. *)

type result = {
  outcome : Interp.Crash.outcome;
  cost : Interp.Cost.t;
  output : string;
  steps : int;
  branch_log : Branch_log.log;
      (** raw view of the logged bits (final epoch only), decoded once
          from the encoder at run end *)
  encoded_log : Codec.encoded;
      (** the online-encoded stream the probes actually wrote — the
          artifact a v4 report ships *)
  syscall_log : Syscall_log.log option;  (** final epoch only *)
  schedule_log : Schedule_log.log option;
      (** recorded thread-scheduling decisions; empty when single-threaded *)
  world : Osmodel.World.t;  (** final world (server responses, access log) *)
  n_elided : int;
      (** instrumented branch executions whose bit was suppressed *)
  shadow_log : Branch_log.log option;
      (** with [~shadow:true]: the full log a suppression-free run would
          have written, rebuilt from reconstruction rules at elided sites *)
  shadow_mismatches : int;
      (** elided sites whose reconstructed bit differed from the outcome
          actually taken — any non-zero count is a suppression soundness
          bug *)
  snapshot : Snapshot.t option;  (** at the last checkpoint taken, if any *)
  epochs : int;  (** checkpoints taken *)
  discarded_bits : int;
      (** bits logged before the last checkpoint and dropped there;
          [discarded_bits + branch_log.nbits = cost.logged_branches] *)
}

(** Total shipped-log storage in bytes: the encoded stream plus the
    syscall log. *)
let storage_bytes (r : result) =
  Codec.size_bytes r.encoded_log
  + match r.syscall_log with Some l -> Syscall_log.size_bytes l | None -> 0

(** Execute [sc] with instrumentation [plan].  [log_syscalls] defaults to
    true, the paper's recommended configuration.  When the plan carries a
    suppression table, elided probes skip both the log write and the
    logging charge (the probe compiles to nothing); [shadow] additionally
    rebuilds the suppression-free log from the reconstruction rules so
    callers can check bit-for-bit parity.  Probes write through the
    streaming {!Codec}, allocating nothing per branch, and the result
    carries the encoded stream in [encoded_log].  Without a suppression
    table, each [checkpoint()] discards the logs so far and snapshots the
    global-state structure (see the interface for why not with one). *)
let run ?(log_syscalls = true) ?(shadow = false)
    ?(telemetry = Telemetry.disabled) ~(plan : Plan.t)
    (sc : Concolic.Scenario.t) : result =
  Telemetry.Span.with_ telemetry ~name:"field_run"
    ~attrs:
      [
        ("scenario", Telemetry.Event.Str sc.name);
        ("log_syscalls", Telemetry.Event.Bool log_syscalls);
      ]
  @@ fun sp ->
  let world, handle = Osmodel.World.kernel sc.world in
  let encoder = ref (Codec.Encoder.create ()) in
  let new_sys_log () =
    if log_syscalls then Some (Syscall_log.create ()) else None
  in
  let sys_log = ref (new_sys_log ()) in
  let snapshot = ref None and epochs = ref 0 and discarded = ref 0 in
  let cost_cell : Interp.Cost.t option ref = ref None in
  let recon =
    match plan.Plan.suppression with
    | Some sup -> Some (Staticanalysis.Suppression.Recon.create sup.rules)
    | None -> None
  in
  let shadow_writer = if shadow then Some (Branch_log.Writer.create ()) else None in
  let shadow_bit =
    match shadow_writer with
    | Some w -> Branch_log.Writer.add_bit w
    | None -> ignore
  in
  let n_elided = ref 0 and shadow_mismatches = ref 0 in
  let hooks =
    {
      Interp.Eval.no_hooks with
      Interp.Eval.on_branch =
        (fun ~bid ~iter ~taken ~cond ->
          ignore cond;
          (* the reconstruction machine sees every branch (loop headers
             drive the invariance resets even when uninstrumented) *)
          let action =
            match recon with
            | None -> Staticanalysis.Suppression.Recon.Consume
            | Some rc ->
                Staticanalysis.Suppression.Recon.on_branch rc ~bid ~iter
          in
          if Plan.is_instrumented plan bid then begin
            match action with
            | Staticanalysis.Suppression.Recon.Consume ->
                Codec.Encoder.add_bit !encoder taken;
                (match recon with
                | Some rc ->
                    Staticanalysis.Suppression.Recon.record rc ~bid taken
                | None -> ());
                shadow_bit taken;
                (match !cost_cell with
                | Some c -> Interp.Cost.charge_logged_branch c
                | None -> ())
            | Staticanalysis.Suppression.Recon.Elide pred ->
                incr n_elided;
                if pred <> taken then incr shadow_mismatches;
                shadow_bit pred
            | Staticanalysis.Suppression.Recon.Elide_unknown ->
                (* cannot happen on the field side (the referenced bit was
                   necessarily recorded earlier in this run); counted as a
                   mismatch so the parity oracle flags it *)
                incr n_elided;
                incr shadow_mismatches;
                shadow_bit taken
          end;
          taken);
      on_checkpoint =
        (fun access ->
          if Option.is_none plan.Plan.suppression then begin
            discarded := !discarded + Codec.Encoder.nbits !encoder;
            encoder := Codec.Encoder.create ();
            sys_log := new_sys_log ();
            snapshot := Some (Snapshot.capture ~epoch:!epochs access);
            incr epochs
          end);
    }
  in
  let kernel req =
    let res = handle req in
    (match !sys_log with
    | Some log when Osmodel.Sysreq.loggable req ->
        Syscall_log.record log ~kind:(Osmodel.Sysreq.req_name req)
          ~value:(Osmodel.Sysreq.res_int res);
        (match !cost_cell with
        | Some c -> Interp.Cost.charge_logged_syscall c
        | None -> ())
    | _ -> ());
    Interp.Kernel.concrete_reply res
  in
  (* the field scheduler picks pseudo-randomly (real kernels do not
     round-robin) and records every decision for replay *)
  let sched_log = Schedule_log.create () in
  let sched_rng = Osmodel.Rng.create (sc.world.seed + 7919) in
  let cfg =
    {
      Interp.Eval.inputs = Interp.Inputs.of_strings sc.args;
      kernel;
      hooks;
      max_steps = sc.max_steps;
      scheduler = Some (Schedule_log.recording_scheduler ~rng:sched_rng sched_log);
    }
  in
  (* Eval.run owns its cost record: probes charge this one, added after *)
  let side_cost = Interp.Cost.create () in
  cost_cell := Some side_cost;
  let r = Interp.Eval.run sc.prog cfg in
  let cost = r.cost in
  cost.instr <- cost.instr + side_cost.instr;
  cost.logged_branches <- side_cost.logged_branches;
  cost.logged_syscalls <- side_cost.logged_syscalls;
  let encoded_log = Codec.finish !encoder in
  let branch_log =
    (* one decode at run end keeps the raw view available to every
       consumer; the hot path only ever touched the encoder *)
    match Codec.decode encoded_log with
    | Ok l -> l
    | Error m -> failwith ("Field_run: encoder self-check failed: " ^ m)
  in
  let syscall_log = Option.map Syscall_log.finish !sys_log in
  let res =
    {
      outcome = r.outcome;
      cost;
      output = r.output;
      steps = r.steps;
      branch_log;
      encoded_log;
      syscall_log;
      schedule_log = Some (Schedule_log.finish sched_log);
      world;
      n_elided = !n_elided;
      shadow_log = Option.map Branch_log.finish shadow_writer;
      shadow_mismatches = !shadow_mismatches;
      snapshot = !snapshot;
      epochs = !epochs;
      discarded_bits = !discarded;
    }
  in
  if Telemetry.enabled telemetry then begin
    let log_bytes = storage_bytes res in
    Telemetry.Span.addi sp "branches_logged" cost.logged_branches;
    Telemetry.Span.addi sp "branches_elided" !n_elided;
    Telemetry.Span.addi sp "syscalls_logged" cost.logged_syscalls;
    Telemetry.Span.addi sp "flushes" branch_log.flushes;
    Telemetry.Span.addi sp "log_bytes" log_bytes;
    Telemetry.Span.addi sp "steps" r.steps;
    Telemetry.Metrics.incr_named telemetry "field.runs";
    Telemetry.Metrics.incr_named telemetry "field.branches_logged"
      ~by:cost.logged_branches;
    Telemetry.Metrics.incr_named telemetry "field.syscalls_logged"
      ~by:cost.logged_syscalls;
    Telemetry.Metrics.incr_named telemetry "field.flushes"
      ~by:branch_log.flushes;
    Telemetry.Metrics.incr_named telemetry "field.log_bytes" ~by:log_bytes
  end;
  res

