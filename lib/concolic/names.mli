(** Stable names for symbolic input variables.

    Variable identity must survive across concolic runs (a solver model
    from run N parameterises run N+1), so names derive from the input
    source, never from runtime ids:

    - ["arg<i>[<j>]"]: byte [j] of argument [i];
    - ["<stream>[<j>]"]: byte [j] of stream ["file:<path>"] / ["net<k>"];
    - ["sys:<kind>#<n>"]: result of the [n]-th system call of that kind.

    The variables of one source form a {!Solver.Symvars.family} of the
    registry, interned by position: the kernels look a byte or a result up
    with one array read, and its name is built only when it is first
    registered.  The ids are those of a plain {!Solver.Symvars.lookup} by
    name, in the order of first lookup. *)

val arg_byte : arg:int -> pos:int -> string
val stream_byte : stream:string -> pos:int -> string
val sys_result : kind:string -> index:int -> string

(** The family of a stream's bytes, member [j] being ["<stream>[<j>]"]. *)
val stream_family : Solver.Symvars.t -> stream:string -> Solver.Symvars.family

(** The family of a system call kind's results, member [n] being
    ["sys:<kind>#<n>"]. *)
val sys_family : Solver.Symvars.t -> kind:string -> Solver.Symvars.family

(** Register (or find) the variable for a stream byte. *)
val stream_var : Solver.Symvars.t -> stream:string -> pos:int -> int

val arg_var : Solver.Symvars.t -> arg:int -> pos:int -> int

val sys_var :
  Solver.Symvars.t -> kind:string -> index:int -> dom:Solver.Symvars.domain -> int

(** One run's system-call results: the [n]-th call of each kind gets the
    variable ["sys:<kind>#<n>"]. *)
type sys_results

val sys_results : Solver.Symvars.t -> sys_results

(** The variable of the next result of a [kind] call, registered with
    domain [dom] if new. *)
val next_sys_var : sys_results -> kind:string -> dom:Solver.Symvars.domain -> int
