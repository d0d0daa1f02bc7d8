(** Instruction-cost accounting.

    The paper reports instrumentation overhead as relative CPU time measured
    with hardware counters; our substrate is an interpreter, so every
    operation is charged a deterministic instruction budget instead.  The
    {!logged_branch} charge of 17 instructions is the figure the paper
    measured with perf for its one-bit branch instrumentation (§5.1). *)

type t = {
  mutable instr : int;  (** total "instructions" charged *)
  mutable branches : int;  (** branch executions *)
  mutable logged_branches : int;
  mutable syscalls : int;
  mutable logged_syscalls : int;
}

(** Per-operation charges. *)

val expr_node : int
val stmt : int
val call_overhead : int
val branch : int
val syscall : int
val logged_branch : int
val logged_syscall : int

val create : unit -> t
val charge : t -> int -> unit
val charge_branch : t -> unit
val charge_logged_branch : t -> unit
val charge_syscall : t -> unit
val charge_logged_syscall : t -> unit
