(** Linked MiniC programs.

    {!link} combines an application unit with runtime-library units (the
    paper merges all C files into one before analysis, §4), normalises calls
    out of expressions, type checks, and numbers every branch location
    program-wide.  The result is the immutable artifact every later stage
    (static analysis, concolic execution, instrumentation, replay) works
    on.  Linking also resolves every body once into {!Resolved} code for
    the evaluator; {!link} is the only constructor, so that code always
    matches [funcs]. *)

exception Link_error of string

(** The evaluator's own form of a program's {!Resolved} code.  This
    library never builds or reads one; [Interp.Eval] adds the constructor
    and compiles a program on its first run. *)
type compiled = ..

type t = private {
  name : string;
  globals : Ast.var_decl list;
  funcs : Ast.func list;
  fun_tbl : (string, Ast.func) Hashtbl.t;
  branches : Number.info array;  (** indexed by branch id *)
  code : Resolved.t;  (** what the evaluator compiles *)
  compiled : compiled option Atomic.t;
      (** [None] until the evaluator's first run of this program stores the
          compiled code, once; every later run, on any domain, reuses it *)
}

(** Total number of branch locations. *)
val nbranches : t -> int

(** Metadata of a branch id; raises [Invalid_argument] if out of range. *)
val branch_info : t -> int -> Number.info

val find_func : t -> string -> Ast.func option
val app_branch_count : t -> int
val lib_branch_count : t -> int

(** Branch ids belonging to application (non-library) code, ascending. *)
val app_branch_ids : t -> int list

val lib_branch_ids : t -> int list

(** Link parsed units into a checked, normalised, branch-numbered program.
    Raises {!Link_error} on structural problems (a missing [main]) and
    {!Typecheck.Error} on type errors — duplicate names included — so
    callers can report the two distinctly. *)
val link : ?name:string -> app:Ast.unit_ -> libs:Ast.unit_ list -> unit -> t

(** Convenience: parse source strings and link. *)
val of_sources : ?name:string -> app:string -> libs:string list -> unit -> t
