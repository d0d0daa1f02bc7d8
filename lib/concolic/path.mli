(** Path recording for concolic runs.

    A trace is the ordered list of constraints implied by a run: one per
    symbolic branch execution (oriented by the direction actually taken)
    plus one equality per concretisation. *)

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

(** Remove the most recent entry (no-op on an empty trace). *)
val drop_last : t -> unit

(** Entries in execution order. *)
val entries : t -> entry list

val length : t -> int

(** Evaluator hooks that record the path into [t] (chaining to [inner]). *)
val hooks : ?inner:Interp.Eval.hooks -> t -> Interp.Eval.hooks
