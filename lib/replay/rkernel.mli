(** The developer-site kernel used during replay.

    No real environment stands behind it: system-call results come either
    from the shipped syscall log (replayed verbatim, §3.3) or from symbolic
    models (a fresh variable per call occurrence, constrained to the call's
    feasible range), and all input data bytes are symbolic variables whose
    concrete values come from the current solver model, falling back to
    seeded per-variable defaults (the paper's "initial run with random
    inputs"). *)

type t

exception Log_mismatch of string
(** Record/replay divergence detected through the syscall log. *)

(** [active = false] starts the kernel gated (checkpointed replay): before
    {!activate}, loggable syscalls answer with plain defaults and no
    symbolic variables are created. *)
val create :
  ?observe:(int -> int -> unit) ->
  ?active:bool ->
  vars:Solver.Symvars.t ->
  model:Solver.Model.t ->
  shape:Concolic.Scenario.shape ->
  syscall_log:Instrument.Syscall_log.log option ->
  seed:int ->
  unit ->
  t

val activate : t -> unit

(** The kernel function handed to the evaluator during replay runs. *)
val kernel : t -> Interp.Kernel.t

(** Symbolic argv for replay: capacities from the report's shape; concrete
    bytes from the model, else seeded defaults. *)
val symbolic_args : t -> Interp.Inputs.t

(** [changed_inputs t ~solved model ~observed] lists the variables of
    [observed] — the effective value of every variable this kernel created
    so far — whose effective value moves under [model], each with its new
    value, in increasing id order: an input byte takes its [model] value
    [land 0xff].  [None] when a system-call result variable already
    created would change under [model]: stream positions, fd tables and
    the program's view of read counts were built from the results the run
    saw.

    [model] must be [solved] merged over the kernel's model merged over
    [observed] (an {!Concolic.Engine.offer}'s resume model).  Every
    observed variable then agrees with [model] except possibly those
    [solved] binds and the system-call results whose clamped value differs
    from the kernel's model, so only those are read: the cost is
    O(|solved| + those results), not O(|observed|). *)
val changed_inputs :
  t ->
  solved:Solver.Model.t ->
  Solver.Model.t ->
  observed:Solver.Model.t ->
  (int * int) list option

(** Replace the model that variables created from now on read their values
    from (a guided run resuming under a new model).  Every observed value
    must then agree with the new model, as after an accepted resume. *)
val set_model : t -> Solver.Model.t -> unit
