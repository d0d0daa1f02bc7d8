(** Program arguments presented to the evaluator.

    Each argument is a byte string with an optional symbolic shadow per
    byte.  The field run uses plain concrete arguments; concolic stages
    shadow every byte with a {!Solver.Expr.Var} whose concrete value comes
    from the current solver model. *)

type arg = { bytes : int array; syms : Solver.Expr.t option array }

type t

val of_strings : string list -> t
val arg_count : t -> int

(** [arg t i] is argument [i] ([0 <= i < arg_count t]). *)
val arg : t -> int -> arg

(** Naming scheme for argument input bytes; shared with the concolic layer
    so variable identities stay stable across runs. *)
val var_name : arg:int -> pos:int -> string

(** The variables of argument [arg]'s bytes, member [pos] named
    [var_name ~arg ~pos]. *)
val arg_family : Solver.Symvars.t -> arg:int -> Solver.Symvars.family

(** Build symbolic arguments: each has [cap] fully symbolic bytes, byte
    [pos] of argument [arg] shadowed by the variable [id] of
    {!arg_family}'s member [pos] and valued [concrete_byte ~arg ~pos id].
    Variables are registered argument by argument, in position order.
    [observe] is told the effective concrete value of every variable
    created, so the exploration engine can seed the next solver call with
    the full input. *)
val symbolic :
  ?observe:(int -> int -> unit) ->
  vars:Solver.Symvars.t ->
  caps:int list ->
  concrete_byte:(arg:int -> pos:int -> int -> int) ->
  unit ->
  t

(** [reconcretize t ~changed f] sets every shadowed byte whose shadow
    mentions a variable of [changed] to [f] of its shadow (a run moved onto
    a new solver model, [changed] listing the variables whose value
    moved).  The other bytes are not visited: the caller guarantees they
    already hold [f] of their shadow, since a byte is never stored by the
    program and its shadow's variables keep their values.  The first call
    indexes the bytes by variable, so a call costs the bytes of [changed],
    not the whole argv.  Every shadow is evaluated before any byte is
    written, so an exception from [f] leaves [t] unchanged. *)
val reconcretize : t -> changed:int list -> (Solver.Expr.t -> int) -> unit
