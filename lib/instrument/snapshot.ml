(** Checkpoint snapshots (§6, "Long-running applications").

    A snapshot records the *structure* of the program's global state — which
    globals exist, their sizes, and which cells hold pointers — "but not its
    content": at replay time every data cell is treated as symbolic, so no
    user data is shipped.  Pointer cells are structural and are left to the
    replay run's own initialisation (a pointer cannot be a symbolic byte). *)

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
let capture ~epoch (access : Interp.Eval.global_access) : t =
  let globals =
    List.map
      (fun (gname, size) ->
        let ptr_mask =
          Array.init size (fun off ->
              match access.Interp.Eval.read_global gname off with
              | Some { Interp.Value.conc = Interp.Value.Ptr _; _ } -> true
              | Some _ | None -> false)
        in
        { gname; size; ptr_mask })
      (access.Interp.Eval.list_globals ())
  in
  { globals; epoch }

(** Shipped size of the snapshot in bytes: per global, a name, a 16-bit
    size, and one bit per cell for the pointer mask. *)
let size_bytes (t : t) =
  List.fold_left
    (fun acc g -> acc + String.length g.gname + 2 + ((g.size + 7) / 8))
    0 t.globals

(** Variable name for the symbolic content of a restored global cell. *)
let var_name g off = Printf.sprintf "ckpt:%s[%d]" g off

(* Restored cells cover counters, fds and buffer bytes; a moderate domain
   keeps the solver's enumeration complete. *)
let restored_domain = { Solver.Symvars.lo = -1; hi = 1024 }

(** Overwrite every non-pointer global cell with a fresh symbolic value.
    Concrete seeds come from the current solver [model], defaulting to 0. *)
let restore (t : t) ~(vars : Solver.Symvars.t) ~(model : Solver.Model.t)
    ~(observe : int -> int -> unit) (access : Interp.Eval.global_access) :
    unit =
  List.iter
    (fun g ->
      for off = 0 to g.size - 1 do
        if not g.ptr_mask.(off) then begin
          let name = var_name g.gname off in
          let id = Solver.Symvars.lookup vars ~name ~dom:restored_domain in
          (* unsolved cells default to zero (fresh-state-like): restored
             cells are indexed into buffers and tables, and the
             concretisations they pin must stay consistent with the
             log-forced constraints as often as possible *)
          let conc = Option.value (Solver.Model.find_opt id model) ~default:0 in
          observe id conc;
          let v =
            { Interp.Value.conc = Interp.Value.Int conc;
              sym = Some (Solver.Expr.Var id) }
          in
          ignore (access.Interp.Eval.write_global g.gname off v)
        end
      done)
    t.globals
