(** Program arguments presented to the evaluator.

    Each argument is a byte string with an optional symbolic shadow per
    byte.  The field run uses plain concrete arguments; concolic stages
    shadow every byte with a {!Solver.Expr.Var} whose concrete value comes
    from the current solver model. *)

type arg = { bytes : int array; syms : Solver.Expr.t option array }

type t = { args : arg array }

val of_strings : string list -> t
val arg_count : t -> int

(** Naming scheme for argument input bytes; shared with the concolic layer
    so variable identities stay stable across runs. *)
val var_name : arg:int -> pos:int -> string

(** Build symbolic arguments: each has [cap] fully symbolic bytes whose
    concrete values come from [concrete_byte].  [observe] is told the
    effective concrete value of every variable created, so the exploration
    engine can seed the next solver call with the full input. *)
val symbolic :
  ?observe:(int -> int -> unit) ->
  vars:Solver.Symvars.t ->
  caps:int list ->
  concrete_byte:(arg:int -> pos:int -> int) ->
  unit ->
  t

(** [reconcretize t ~changed f] sets every shadowed byte to [f] of its
    shadow (a run moved onto a new solver model).  A byte whose shadow is a
    bare [Var x] with [x] not [changed] is skipped: the caller guarantees
    it already holds [f (Var x)] (its value came from [x]'s binding, which
    [f] keeps).  Every shadow is evaluated before any byte is written, so
    an exception from [f] leaves [t] unchanged. *)
val reconcretize :
  t -> changed:(int -> bool) -> (Solver.Expr.t -> int) -> unit
