(** Constraint solving: satisfiability and model construction.

    Pipeline: structural simplification and deduplication, interval
    propagation to a fixpoint, then backtracking search with forward
    checking.  The search tries the caller-supplied hint first — the
    concolic trick that makes most queries trivial, because the previous
    run's input already satisfies all but the negated constraint. *)

type outcome = Sat of Model.t | Unsat | Unknown

type budget = {
  max_nodes : int;  (** backtracking nodes before giving up *)
  max_enum : int;  (** largest domain enumerated exhaustively *)
}

val default_budget : budget

(** Find a model of the conjunction, [Unsat] if provably none exists, or
    [Unknown] when the budget ran out or a domain was too large to
    enumerate.  [hint] supplies preferred values per variable. *)
val solve :
  ?budget:budget ->
  vars:Symvars.t ->
  ?hint:(int -> int option) ->
  Expr.t list ->
  outcome
