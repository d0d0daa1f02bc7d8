(** The user-site (field) execution of an instrumented program.

    Runs the scenario concretely, recording one bit per executed
    instrumented branch and — optionally — the results of the loggable
    system calls.  Produces the overhead figures of Figures 2, 4 and 5 and
    the logs a {!Report.t} ships. *)

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

(** Execute [sc] with instrumentation [plan].  [log_syscalls] defaults to
    true, the paper's recommended configuration.  When the plan carries a
    suppression table, elided probes skip both the log write and the
    logging charge; [shadow] additionally rebuilds the suppression-free
    log from the reconstruction rules for parity checks.  Probes write
    through the streaming {!Codec} and the result carries the encoded
    stream in [encoded_log].  A probe allocates
    nothing per branch; what a run allocates beyond an uninstrumented one
    is per-run setup and the run-end decode of the encoded stream.
    [telemetry] wraps the run in a [field_run] span (branches/syscalls
    logged, buffer flushes, log bytes as end attributes) and accumulates
    the [field.*] counters.

    Checkpoints (§6, long-running applications): each [checkpoint()] the
    program executes discards the branch and syscall logs written so far
    (counted in [discarded_bits]), starts fresh ones and captures a
    {!Snapshot} of the global-state structure, so a crash ships only the
    final epoch; {!Replay.Guided.reproduce}'s [?snapshot] replays it.  A
    checkpoint is honoured only when [plan] carries no suppression table:
    under one the run keeps its full log and takes no snapshot, because
    the replay-side reconstruction cursor starts at the restore point and
    could not rebuild an elided bit whose dominating bit was discarded. *)
val run :
  ?log_syscalls:bool ->
  ?shadow:bool ->
  ?telemetry:Telemetry.t ->
  plan:Plan.t ->
  Concolic.Scenario.t ->
  result

(** Total shipped-log storage in bytes. *)
val storage_bytes : result -> int
