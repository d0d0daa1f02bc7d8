(** Path recording for concolic runs.

    A trace is the ordered list of constraints implied by the run: one per
    *symbolic* branch execution (oriented by the direction actually taken)
    plus one equality per concretisation (symbolic value pinned to its
    concrete value at an array index, pointer offset or syscall argument). *)

type entry = {
  bid : int option;  (** branch id; [None] for concretisation constraints *)
  taken : bool;
  cons : Solver.Expr.t;  (** constraint asserted by this step *)
  negatable : bool;
      (** may the engine fork an alternative here?  False for branches whose
          direction is pinned by a branch log (replay case 2a). *)
}

type t = { mutable rev_entries : entry list; mutable length : int }

let create () = { rev_entries = []; length = 0 }

let push t e =
  t.rev_entries <- e :: t.rev_entries;
  t.length <- t.length + 1

(** Constraint asserted by taking (or not taking) a branch whose condition
    has symbolic shadow [sym]. *)
let branch_constraint ~taken sym =
  if taken then Solver.Simplify.bool_coerce sym else Solver.Expr.negate sym

let record_branch ?(negatable = true) t ~bid ~taken (sym : Solver.Expr.t) =
  push t { bid = Some bid; taken; cons = branch_constraint ~taken sym; negatable }

let record_concretize ?(negatable = false) t (sym : Solver.Expr.t) (value : int) =
  push t
    {
      bid = None;
      taken = true;
      cons = Solver.Expr.Binop (Solver.Expr.Eq, sym, Solver.Expr.Const value);
      negatable;
    }

(** Remove the most recent entry (no-op on an empty trace). *)
let drop_last t =
  match t.rev_entries with
  | [] -> ()
  | _ :: rest ->
      t.rev_entries <- rest;
      t.length <- t.length - 1

(** Entries in execution order. *)
let entries t = List.rev t.rev_entries

let length t = t.length

(** Evaluator hooks that record the path into [t] (and chain to [inner]). *)
let hooks ?(inner = Interp.Eval.no_hooks) (t : t) : Interp.Eval.hooks =
  {
    inner with
    Interp.Eval.on_branch =
      (fun ~bid ~iter ~taken ~cond ->
        let dir = inner.Interp.Eval.on_branch ~bid ~iter ~taken ~cond in
        (match cond.Interp.Value.sym with
        | Some sym -> record_branch t ~bid ~taken:dir sym
        | None -> ());
        dir);
    on_concretize =
      (fun sym value ->
        inner.Interp.Eval.on_concretize sym value;
        record_concretize t sym value);
  }
