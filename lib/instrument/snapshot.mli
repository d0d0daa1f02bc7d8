(** Checkpoint snapshots (§6, "Long-running applications").

    A snapshot records the *structure* of the program's global state (names,
    sizes, pointer positions) "but not its content": at replay time every
    data cell is treated as symbolic, so no user data is shipped. *)

type global = {
  gname : string;
  size : int;
  ptr_mask : bool array;  (** true where the cell held a pointer *)
}

type t = {
  globals : global list;
  epoch : int;  (** how many checkpoints preceded this one *)
}

(** Capture a snapshot through the evaluator's global-access interface. *)
val capture : epoch:int -> Interp.Eval.global_access -> t

(** Shipped size of the snapshot in bytes (structure only). *)
val size_bytes : t -> int

(** Variable name for the symbolic content of a restored global cell. *)
val var_name : string -> int -> string

(** Domain of restored cells (counters, fds, buffer bytes). *)
val restored_domain : Solver.Symvars.domain

(** Overwrite every non-pointer global cell with a fresh symbolic value
    (a [var_name] variable in [restored_domain]); concrete seeds come from
    [model], defaulting to 0 for unsolved cells. *)
val restore :
  t ->
  vars:Solver.Symvars.t ->
  model:Solver.Model.t ->
  observe:(int -> int -> unit) ->
  Interp.Eval.global_access ->
  unit
