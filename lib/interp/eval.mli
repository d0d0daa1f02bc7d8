(** The MiniC evaluator.

    One evaluator serves every pipeline stage; stages differ only in the
    {!hooks}, the {!Kernel.t} and the symbolic shadows on inputs.  Using
    the same semantics for recording and replay is what guarantees that a
    fully-logged execution replays along the identical path.

    The first {!run} of a linked program compiles its code once into
    closures and keeps them on the program ({!Minic.Program.t}'s
    [compiled]); every later run, on any domain, shares them read-only
    (DESIGN.md §5n). *)

(** Access to a running program's global variables, handed to the
    checkpoint hook so checkpoint/restore machinery can snapshot or rewrite
    global state without reaching into evaluator internals. *)
type global_access = {
  list_globals : unit -> (string * int) list;  (** name and cell count *)
  read_global : string -> int -> Value.t option;
  write_global : string -> int -> Value.t -> bool;
}

(** Access to a running program's live input-derived state, handed to the
    {!hooks.on_start} hook so guided replay can move a run onto a new
    solver model in place instead of restarting it (DESIGN.md §5m).  At a
    branch every input-derived value of the run sits in a shadowed memory
    cell or argv byte, or has been recorded as an unpinned use. *)
type live_access = {
  unpinned : unit -> (Solver.Expr.t * int) list;
      (** input-derived values the run used concretely without pinning them
          through [on_concretize], newest first, each with the value it
          had: C-string bytes ([open] paths, [print_str], [spawn] names),
          [write] data, integer operands mixed with pointers, [assert] and
          pointer-[&&]/[||] truth values ([e <> 0]), thread arguments and
          results, and the definedness of every [/], [%] and shift whose
          right operand is input-derived ([e <> 0], resp. [0 <= e <= 62],
          with value 1).  Only values with a shadow are recorded, so a plain
          run records nothing. *)
  reconcretize :
    changed:int list -> old:(int -> int) -> fresh:(int -> int) -> bool;
      (** move every shadowed memory cell and argv byte from the variable
          assignment [old] to [fresh], where [changed] lists, once each,
          exactly the variables on which the two differ: each cell whose
          shadow evaluates differently takes its value under [fresh].
          Returns [false] and changes nothing when a shadow is undefined
          (or mentions an unbound variable) under [fresh], or a changing
          cell's value disagrees with its shadow under [old].

          Cost: the cells stored since the last accepted move plus the
          clean cells and argv bytes whose shadow mentions a [changed]
          variable ({!Memory.iter_changed}); no other cell is visited.  A
          clean cell whose shadow mentions no changed variable needs no
          check: the previous accepted move verified or set it to its
          shadow's value under that move's [fresh], which must therefore
          be this call's [old], and [fresh] agrees with [old] on every
          variable of its shadow (before the first move, cells are dirty).
          An argv byte is never stored by the program and holds its
          shadow's [old] value.  An accepted move marks every cell
          clean. *)
}

type hooks = {
  on_branch : bid:int -> iter:int -> taken:bool -> cond:Value.t -> bool;
      (** called at every executed branch, before entering the arm; returns
          the direction to follow — [taken], unless the hook moved the run
          onto a new model under which [cond] evaluates the other way — and
          may raise {!Abort_run}.  [iter] is [0] for [if] branches and
          counts condition evaluations across one execution of a [while]
          statement ([0] marks a fresh loop entry) *)
  on_concretize : Solver.Expr.t -> int -> unit;
      (** a symbolic value was forced to its concrete value (array index,
          pointer arithmetic, syscall argument) *)
  on_checkpoint : global_access -> unit;
      (** the program executed the [checkpoint()] builtin *)
  on_start : (live_access -> unit) option;
      (** called once, before [main] starts, with the run's live state.
          Only a run whose hooks set it records unpinned uses; [None] (as
          in {!no_hooks}) keeps no record *)
}

val no_hooks : hooks

exception Abort_run of string
(** Raised by hooks to abandon the current run (replay divergence). *)

type config = {
  inputs : Inputs.t;
  kernel : Kernel.t;
  hooks : hooks;
  max_steps : int;  (** statement budget; exceeding yields [Budget_exhausted] *)
  scheduler : (int list -> int) option;
      (** thread-scheduling policy (§6 multithreading): given the ready
          thread ids in queue order, return the one to run.  Consulted only
          when two or more threads are ready; [None] = round-robin.  The
          field run logs these decisions; replay replays them.  May raise
          {!Abort_run} on schedule divergence. *)
}

val default_config : config

type result = {
  outcome : Crash.outcome;
  cost : Cost.t;
  output : string;  (** text printed via print_int / print_str *)
  steps : int;
}

(** Run [prog]'s [main] under the given configuration, compiling [prog]
    first if no run has yet. *)
val run : Minic.Program.t -> config -> result
