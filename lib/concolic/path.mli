(** Path recording for concolic runs.

    A trace is the ordered list of constraints implied by a run: one per
    symbolic branch execution (oriented by the direction actually taken)
    plus one equality per concretisation.  It is recorded into an
    append-only array; a {!view} is an O(1) snapshot of its first entries,
    and {!slice} takes a pending's constraint slice through a per-path
    variable index built lazily, as far as slices reach. *)

type entry = {
  bid : int option;  (** branch id; [None] for concretisation constraints *)
  taken : bool;
  cons : Solver.Expr.t;  (** constraint asserted by this step *)
  negatable : bool;
      (** may the engine fork an alternative here?  False for branches whose
          direction is pinned by a branch log (replay case 2a). *)
}

type t

val create : unit -> t

(** Constraint asserted by taking (or not taking) a branch whose condition
    has symbolic shadow [sym]. *)
val branch_constraint : taken:bool -> Solver.Expr.t -> Solver.Expr.t

val record_branch : ?negatable:bool -> t -> bid:int -> taken:bool -> Solver.Expr.t -> unit
val record_concretize : ?negatable:bool -> t -> Solver.Expr.t -> int -> unit

(** Remove the most recent entry (no-op on an empty trace).  The only use
    is guided replay's resume, which re-records the same branch in the
    other direction: a view taken before then sees the new entry in its last
    position, over the same variables, so no index needs undoing. *)
val drop_last : t -> unit

val length : t -> int

(** The first [length t] entries, as they stand: later records do not show
    in it (but see {!drop_last}). *)
type view

val view : t -> view
val view_length : view -> int

(** [get v i] is entry [i] of [v] (0-based, execution order). *)
val get : view -> int -> entry

(** Entries in execution order. *)
val entries : view -> entry list

(** [slice v ~upto ~lineage focus] is
    [Solver.Cache.slice_focus (lineage @ prefix @ [focus])] where [prefix]
    is the constraints of [v]'s entries [0 .. upto-1]: the same members in
    the same order.  It walks the path's variable index from [focus], so it
    costs the slice plus a one-off indexing of the entries below [upto] that
    no earlier slice of the path reached.  Slices of one path must not run
    concurrently (only the search that owns the path slices it). *)
val slice :
  view -> upto:int -> lineage:Solver.Expr.t list -> Solver.Expr.t -> Solver.Expr.t list

(** Evaluator hooks that record the path into [t] (chaining to [inner]). *)
val hooks : ?inner:Interp.Eval.hooks -> t -> Interp.Eval.hooks
