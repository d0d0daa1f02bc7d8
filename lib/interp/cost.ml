(** Instruction-cost accounting.

    The paper reports instrumentation overhead as relative CPU time measured
    with hardware counters; our substrate is an interpreter, so we charge a
    deterministic instruction budget per operation instead.  The
    [logged_branch] charge of 17 instructions is the figure the paper
    measured with perf for its one-bit branch instrumentation (§5.1). *)

type t = {
  mutable instr : int;  (** total "instructions" charged *)
  mutable branches : int;  (** branch executions *)
  mutable logged_branches : int;
  mutable syscalls : int;
  mutable logged_syscalls : int;
}

(* Per-operation charges. *)
let expr_node = 1
let stmt = 1
let call_overhead = 5
let branch = 2
let syscall = 50
let logged_branch = 17
let logged_syscall = 10

let create () =
  { instr = 0; branches = 0; logged_branches = 0; syscalls = 0; logged_syscalls = 0 }

let charge t n = t.instr <- t.instr + n

let charge_branch t =
  t.branches <- t.branches + 1;
  t.instr <- t.instr + branch

let charge_logged_branch t =
  t.logged_branches <- t.logged_branches + 1;
  t.instr <- t.instr + logged_branch

let charge_syscall t =
  t.syscalls <- t.syscalls + 1;
  t.instr <- t.instr + syscall

let charge_logged_syscall t =
  t.logged_syscalls <- t.logged_syscalls + 1;
  t.instr <- t.instr + logged_syscall
