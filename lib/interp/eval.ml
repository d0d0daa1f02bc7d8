(** The MiniC evaluator.

    One evaluator serves every pipeline stage; stages differ only in the
    {!hooks}, the {!Kernel.t} and the symbolic shadows on inputs:

    - plain run / field run: concrete inputs, world kernel, logging hooks;
    - dynamic analysis: symbolic inputs, branch-labelling hooks;
    - replay: symbolic inputs, log-driven hooks that may abort the run.

    Using the same semantics for recording and replay is what guarantees
    that a fully-logged execution replays along the identical path.

    Each linked program is compiled once, on its first run, into OCaml
    closures over the run state (DESIGN.md §5n): a node's shape — which
    slot a variable names, which operator a binop applies, whether a loop
    body can [break] — is settled at compile time instead of on every
    step.  The compiled code is kept on the {!Minic.Program.t} and shared
    read-only by every later run, on any domain.  Every cost charge, hook
    call, [cur_loc] update, step count and block allocation happens in the
    order the source prescribes, so compiling changes only the wall
    clock. *)

open Minic

(** Access to a running program's global variables, handed to the
    checkpoint hook so checkpoint/restore machinery can snapshot or rewrite
    global state without reaching into evaluator internals. *)
type global_access = {
  list_globals : unit -> (string * int) list;  (** name and cell count *)
  read_global : string -> int -> Value.t option;
  write_global : string -> int -> Value.t -> bool;
}

(** Access to a running program's live input-derived state, handed to
    the hooks that ask for it when the run starts, so guided replay can
    move a run onto a new solver model in place (DESIGN.md §5m). *)
type live_access = {
  unpinned : unit -> (Solver.Expr.t * int) list;
      (** input-derived values the run used concretely without pinning them
          through [on_concretize], newest first, each with the value it had *)
  reconcretize :
    changed:int list -> old:(int -> int) -> fresh:(int -> int) -> bool;
      (** move every shadowed memory cell and argv byte from the variable
          assignment [old] to [fresh] *)
}

type hooks = {
  on_branch : bid:int -> iter:int -> taken:bool -> cond:Value.t -> bool;
      (** called at every executed branch, before entering the arm; returns
          the direction to follow ([taken] unless the hook moved the run
          onto a new model) and may raise {!Abort_run}.  [iter] counts
          condition evaluations of the current execution of the enclosing
          statement: always [0] for [if], and [0, 1, 2, ...] across one run
          of a [while] (so [iter = 0] marks a fresh loop entry — the
          suppression reconstruction keys on it) *)
  on_concretize : Solver.Expr.t -> int -> unit;
      (** a symbolic value was forced to its concrete value (array index,
          pointer arithmetic, syscall argument) *)
  on_checkpoint : global_access -> unit;
      (** the program executed the [checkpoint()] builtin *)
  on_start : (live_access -> unit) option;
      (** called once, as the run is about to enter [main]; only a run
          that asks for its live state records unpinned uses *)
}

let no_hooks =
  {
    on_branch = (fun ~bid:_ ~iter:_ ~taken ~cond:_ -> taken);
    on_concretize = (fun _ _ -> ());
    on_checkpoint = (fun _ -> ());
    on_start = None;
  }

exception Abort_run of string
(** Raised by hooks to abandon the current run (replay divergence). *)

(* Internal control-flow exceptions. *)
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc
exception Crash_exc of Crash.t
exception Exit_exc of int
exception Budget_exc

(* Cooperative threads (§6 multithreading) are built on OCaml effects: each
   MiniC thread is a fiber; [spawn]/[yield]/[join] perform effects handled
   by the scheduler trampoline in {!run}.  System calls are implicit yield
   points (the blocking points of a real kernel). *)
type _ Effect.t +=
  | Yield_eff : unit Effect.t
  | Spawn_eff : (string * Value.t) -> int Effect.t
  | Join_eff : int -> Value.t Effect.t
  | My_tid_eff : int Effect.t

type state = {
  code : Resolved.t;
  mem : Memory.t;
  globals : int array;  (** block id of each global slot *)
  lits : Value.t array;
      (** pointer to each interned string literal; [Value.zero] until the
          literal is first evaluated, so block ids follow evaluation order *)
  inputs : Inputs.t;
  kernel : Kernel.t;
  hooks : hooks;
  cost : Cost.t;
  max_steps : int;
  out : Buffer.t;
  mutable frame : int array;  (** block id of each slot of the running call *)
  mutable depth : int;
  mutable steps : int;
  mutable cur_loc : Loc.t;
  mutable cur_func : string;
  live : bool;  (** the hooks asked for the live state ([on_start]) *)
  mutable unpinned : (Solver.Expr.t * int) list;
      (** see {!live_access}: recorded only when [live], and only for
          values with a shadow *)
  mutable lv_base : int;
  mutable lv_off : int;
      (** the block and offset the last computed lvalue designates *)
}

let max_depth = 2000
let cstring_scan_limit = 65536

let[@inline never] crash st kind =
  raise (Crash_exc { Crash.kind; loc = st.cur_loc; in_func = st.cur_func })

(* The per-node and per-statement charges and the small-integer values
   live here rather than behind calls into [Cost] and [Value]: the
   compiled code runs them on every node. *)
let[@inline] charge st n =
  let c = st.cost in
  c.instr <- c.instr + n

let[@inline] node st = charge st Cost.expr_node

let[@inline] step st =
  st.steps <- st.steps + 1;
  charge st Cost.stmt;
  if st.steps > st.max_steps then raise Budget_exc

(* [Value.int_]'s shared byte-sized integers. *)
let small = Array.init 256 Value.int_

let[@inline] int_ n =
  if n land 0xff = n then Array.unsafe_get small n
  else { Value.conc = Int n; sym = None }

let[@inline] bool_ b = Array.unsafe_get small (Bool.to_int b)
let[@inline] ptr base off = { Value.conc = Ptr { base; off }; sym = None }
let[@inline] truthy (v : Value.t) = match v.conc with Int 0 -> false | _ -> true

let load st base off =
  try Memory.load st.mem ~base ~off
  with Memory.Fault f -> crash st (Memory.fault_to_crash_kind f)

let store st base off v =
  try Memory.store st.mem ~base ~off v
  with Memory.Fault f -> crash st (Memory.fault_to_crash_kind f)

(* ------------------------------------------------------------------ *)
(* Concretization of symbolic values used in concrete positions *)

let[@inline] concretize st (v : Value.t) : int =
  match v with
  | { conc = Int n; sym = None } -> n
  | { conc = Int n; sym = Some e } ->
      st.hooks.on_concretize e n;
      n
  | { conc = Ptr _; _ } -> crash st Crash.Invalid_pointer

(* An input-derived value whose concrete value the run used without a
   constraint pinning it.  A plain run carries no shadows, and a run whose
   hooks did not ask for its live state keeps no record. *)
let[@inline] unpinned st (v : Value.t) =
  match v with
  | { sym = Some e; conc = Int n } when st.live ->
      st.unpinned <- (e, n) :: st.unpinned
  | _ -> ()

(* A truth test the run made on [v] without a branch. *)
let unpinned_truth st (v : Value.t) =
  match v.sym with
  | Some e when st.live ->
      let truth = Solver.Expr.Binop (Ne, e, Const 0) in
      st.unpinned <- (truth, if Value.truthy v then 1 else 0) :: st.unpinned
  | _ -> ()

let expect_ptr st (v : Value.t) : int * int =
  match v.conc with
  | Ptr { base; off } -> (base, off)
  | Int 0 -> crash st Crash.Null_deref
  | Int _ -> crash st Crash.Invalid_pointer

(* ------------------------------------------------------------------ *)
(* String literals *)

let intern_string st i s =
  match st.lits.(i).conc with
  | Ptr _ -> st.lits.(i)
  | Int _ ->
      let b = Memory.alloc st.mem ~size:(String.length s + 1) in
      String.iteri
        (fun j c -> Memory.store st.mem ~base:b ~off:j (Value.int_ (Char.code c)))
        s;
      st.lits.(i) <- Value.ptr ~base:b ~off:0;
      st.lits.(i)

(* ------------------------------------------------------------------ *)
(* Operators *)

let op_to_expr : Ast.binop -> Solver.Expr.binop = function
  | Add -> Solver.Expr.Add
  | Sub -> Solver.Expr.Sub
  | Mul -> Solver.Expr.Mul
  | Div -> Solver.Expr.Div
  | Mod -> Solver.Expr.Mod
  | Eq -> Solver.Expr.Eq
  | Ne -> Solver.Expr.Ne
  | Lt -> Solver.Expr.Lt
  | Le -> Solver.Expr.Le
  | Gt -> Solver.Expr.Gt
  | Ge -> Solver.Expr.Ge
  | Land -> Solver.Expr.Land
  | Lor -> Solver.Expr.Lor
  | Band -> Solver.Expr.Band
  | Bor -> Solver.Expr.Bor
  | Bxor -> Solver.Expr.Bxor
  | Shl -> Solver.Expr.Shl
  | Shr -> Solver.Expr.Shr

let unop_to_expr : Ast.unop -> Solver.Expr.unop = function
  | Neg -> Solver.Expr.Neg
  | Lognot -> Solver.Expr.Lognot
  | Bitnot -> Solver.Expr.Bitnot

(* A partial operation on an input-derived right operand [sb]: its
   definedness is a fact about the input that no constraint records. *)
let partial_operand st (op : Ast.binop) sb =
  let defined e = st.unpinned <- (e, 1) :: st.unpinned in
  match op with
  | Div | Mod -> defined (Solver.Expr.Binop (Ne, sb, Const 0))
  | Shl | Shr ->
      defined
        (Solver.Expr.Binop
           (Land, Binop (Ge, sb, Const 0), Binop (Le, sb, Const 62)))
  | _ -> ()

(* The shadow of a defined integer operation.  A partial one's
   definedness is recorded here, off the concrete-only path. *)
let shadow_binop st op (a : Value.t) (b : Value.t) : Solver.Expr.t option =
  if not (Value.is_symbolic a || Value.is_symbolic b) then None
  else begin
    (match b.sym with
    | Some sb when st.live -> partial_operand st op sb
    | _ -> ());
    match Value.sym_or_const a, Value.sym_or_const b with
    | Some sa, Some sb -> Some (Solver.Expr.Binop (op_to_expr op, sa, sb))
    | _ -> None
  end

(* Every case of a unary operator.  Compiled code handles an unshadowed
   integer itself and calls this for the rest. *)
let unop st (op : Ast.unop) (va : Value.t) : Value.t =
  match va.conc with
  | Int n ->
      let r = Solver.Expr.eval_unop (unop_to_expr op) n in
      let sym = Option.map (fun s -> Solver.Expr.Unop (unop_to_expr op, s)) va.sym in
      { Value.conc = Int r; sym }
  | Ptr _ -> (
      (* only !p is meaningful on pointers *)
      match op with
      | Lognot -> int_ 0
      | Neg | Bitnot -> crash st Crash.Invalid_pointer)

(* Every case of a binary operator on evaluated operands.  Compiled code
   handles two unshadowed integers itself and calls this for the rest:
   pointers, shadows and undefined operations. *)
let binop st (op : Ast.binop) (a : Value.t) (b : Value.t) : Value.t =
  match a.conc, b.conc, op with
  (* pointer arithmetic *)
  | Ptr p, Int _, (Add | Sub) ->
      let n = concretize st b in
      let off = if op = Add then p.off + n else p.off - n in
      ptr p.base off
  | Int _, Ptr p, Add ->
      let n = concretize st a in
      ptr p.base (p.off + n)
  | Ptr p, Ptr q, Sub ->
      if p.base = q.base then int_ (p.off - q.off)
      else crash st Crash.Invalid_pointer
  (* pointer comparisons; a null pointer is integer 0 *)
  | Ptr p, Ptr q, (Eq | Ne | Lt | Le | Gt | Ge) ->
      let r =
        if p.base = q.base then
          Solver.Expr.eval_binop (op_to_expr op) p.off q.off
        else
          match op with
          | Eq -> 0
          | Ne -> 1
          | _ -> crash st Crash.Invalid_pointer
      in
      int_ r
  | Ptr _, Int n, (Eq | Ne) | Int n, Ptr _, (Eq | Ne) ->
      unpinned st a;
      unpinned st b;
      if n = 0 then int_ (if op = Eq then 0 else 1)
      else crash st Crash.Invalid_pointer
  (* pointers as booleans *)
  | Ptr _, _, (Land | Lor) | _, Ptr _, (Land | Lor) ->
      unpinned_truth st a;
      unpinned_truth st b;
      let tr v = Value.truthy v in
      let r =
        match op with
        | Land -> tr a && tr b
        | Lor -> tr a || tr b
        | _ -> assert false
      in
      int_ (if r then 1 else 0)
  | Int x, Int y, _ -> (
      match Solver.Expr.eval_binop (op_to_expr op) x y with
      | r -> { Value.conc = Int r; sym = shadow_binop st op a b }
      | exception Solver.Expr.Undefined -> crash st Crash.Div_by_zero)
  | _ -> crash st Crash.Invalid_pointer

(* Read a NUL-terminated concrete string at [v]. *)
let read_cstring st (v : Value.t) : string =
  let base, off = expect_ptr st v in
  let buf = Buffer.create 32 in
  let rec go off n =
    if n > cstring_scan_limit then crash st Crash.Out_of_bounds
    else
      let v = load st base off in
      unpinned st v;
      match v.conc with
      | Int 0 -> ()
      | Int c ->
          Buffer.add_char buf (Char.chr (c land 0xff));
          go (off + 1) (n + 1)
      | Ptr _ -> crash st Crash.Invalid_pointer
  in
  go off 0;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Builtins *)

let do_syscall st (req : Osmodel.Sysreq.req) : Kernel.reply =
  (* system calls are scheduling points when other threads are ready *)
  Effect.perform Yield_eff;
  Cost.charge_syscall st.cost;
  st.kernel req

let builtin_call st name (args : Value.t list) : Value.t =
  match name, args with
  | "argc", [] -> Value.int_ (Inputs.arg_count st.inputs)
  | "arg", [ i; buf; cap ] ->
      let i = concretize st i in
      let cap = concretize st cap in
      let pbase, poff = expect_ptr st buf in
      if i < 0 || i >= Inputs.arg_count st.inputs || cap <= 0 then Value.int_ (-1)
      else begin
        let a = Inputs.arg st.inputs i in
        let n = min (Array.length a.bytes) (cap - 1) in
        for j = 0 to n - 1 do
          store st pbase (poff + j) { Value.conc = Int a.bytes.(j); sym = a.syms.(j) }
        done;
        store st pbase (poff + n) Value.zero;
        Value.int_ n
      end
  | "read", [ fd; buf; count ] ->
      let fd = concretize st fd in
      let count = concretize st count in
      let pbase, poff = expect_ptr st buf in
      let reply = do_syscall st (Osmodel.Sysreq.Read { fd; count }) in
      let ret =
        match reply.res with
        | Osmodel.Sysreq.R_read { count = n; data } ->
            for j = 0 to n - 1 do
              let sym =
                if j < Array.length reply.data_sym then reply.data_sym.(j)
                else None
              in
              store st pbase (poff + j) { Value.conc = Int data.(j); sym }
            done;
            n
        | Osmodel.Sysreq.R_int n -> n
      in
      { Value.conc = Int ret; sym = reply.ret_sym }
  | "write", [ fd; buf; count ] ->
      let fd = concretize st fd in
      let count = concretize st count in
      let pbase, poff = expect_ptr st buf in
      let data =
        Array.init (max count 0) (fun j ->
            let v = load st pbase (poff + j) in
            unpinned st v;
            match v.conc with
            | Int n -> n land 0xff
            | Ptr _ -> crash st Crash.Invalid_pointer)
      in
      let reply = do_syscall st (Osmodel.Sysreq.Write { fd; data }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "open", [ path; flags ] ->
      let path = read_cstring st path in
      let flags = concretize st flags in
      let reply = do_syscall st (Osmodel.Sysreq.Open { path; flags }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "close", [ fd ] ->
      let fd = concretize st fd in
      let reply = do_syscall st (Osmodel.Sysreq.Close { fd }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "select", [] ->
      let reply = do_syscall st Osmodel.Sysreq.Select in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "ready_fd", [ index ] ->
      let index = concretize st index in
      let reply = do_syscall st (Osmodel.Sysreq.Ready_fd { index }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "accept", [] ->
      let reply = do_syscall st Osmodel.Sysreq.Accept in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "listen", [ port ] ->
      let port = concretize st port in
      let reply = do_syscall st (Osmodel.Sysreq.Listen { port }) in
      { Value.conc = Int (Osmodel.Sysreq.res_int reply.res); sym = reply.ret_sym }
  | "print_int", [ v ] ->
      Buffer.add_string st.out (string_of_int (concretize st v));
      Value.zero
  | "print_str", [ v ] ->
      Buffer.add_string st.out (read_cstring st v);
      Value.zero
  | "exit", [ code ] -> raise (Exit_exc (concretize st code))
  | "crash", [] -> crash st Crash.Explicit_crash
  | "checkpoint", [] ->
      (* snapshots list globals in this table's fold order *)
      let by_name = Hashtbl.create 32 in
      Array.iteri
        (fun i (g : Resolved.global) -> Hashtbl.replace by_name g.gname st.globals.(i))
        st.code.globals;
      let access =
        {
          list_globals =
            (fun () ->
              Hashtbl.fold
                (fun name b acc ->
                  match Memory.size st.mem b with
                  | Some n -> (name, n) :: acc
                  | None -> acc)
                by_name []);
          read_global =
            (fun name off ->
              match Memory.load st.mem ~base:(Hashtbl.find by_name name) ~off with
              | v -> Some v
              | exception (Not_found | Memory.Fault _) -> None);
          write_global =
            (fun name off v ->
              match Memory.store st.mem ~base:(Hashtbl.find by_name name) ~off v with
              | () -> true
              | exception (Not_found | Memory.Fault _) -> false);
        }
      in
      st.hooks.on_checkpoint access;
      Value.zero
  | "assert", [ v ] ->
      unpinned_truth st v;
      if Value.truthy v then Value.zero else crash st Crash.Assert_failure
  | "spawn", [ name; arg ] ->
      let fname = read_cstring st name in
      (* held in the new thread's closure until it first runs *)
      unpinned st arg;
      Value.int_ (Effect.perform (Spawn_eff (fname, arg)))
  | "yield", [] ->
      Effect.perform Yield_eff;
      Value.zero
  | "join", [ tid ] -> Effect.perform (Join_eff (concretize st tid))
  | "my_tid", [] -> Value.int_ (Effect.perform My_tid_eff)
  | _ ->
      invalid_arg
        (Printf.sprintf "builtin %s: bad arity %d" name (List.length args))

(* ------------------------------------------------------------------ *)
(* Compilation *)

(* A compiled expression evaluates its node, charges included. *)
type cexpr = state -> Value.t

(* A compiled lvalue: a variable's slot, settled at compile time, or code
   that leaves the block and offset in [st.lv_base] and [st.lv_off]. *)
type clval = Local of int | Global of int | Computed of (state -> unit)

type cfunc = {
  name : string;
  nparams : int;
  sizes : int array;  (** cells of each slot: parameters, then locals *)
  body : state -> unit;
}

let set_lval st base off =
  st.lv_base <- base;
  st.lv_off <- off

let set_ptr st (v : Value.t) =
  match v.conc with
  | Ptr { base; off } -> set_lval st base off
  | Int 0 -> crash st Crash.Null_deref
  | Int _ -> crash st Crash.Invalid_pointer

(* The lvalue as code that leaves its block and offset in [st]. *)
let computed = function
  | Local i -> fun st -> set_lval st st.frame.(i) 0
  | Global i -> fun st -> set_lval st st.globals.(i) 0
  | Computed l -> l

(* An unshadowed integer operand takes the operator's own case. *)
let compile_unop (op : Ast.unop) (ca : cexpr) : cexpr =
  match op with
  | Neg -> (
      fun st ->
        node st;
        match ca st with
        | { conc = Int n; sym = None } -> int_ (-n)
        | va -> unop st op va)
  | Lognot -> (
      fun st ->
        node st;
        match ca st with
        | { conc = Int n; sym = None } -> bool_ (n = 0)
        | va -> unop st op va)
  | Bitnot -> (
      fun st ->
        node st;
        match ca st with
        | { conc = Int n; sym = None } -> int_ (lnot n)
        | va -> unop st op va)

(* Two unshadowed integer operands take the operator's own case, which
   [Solver.Expr.eval_binop] defines; everything else goes to [binop]. *)
let compile_binop (op : Ast.binop) (ca : cexpr) (cb : cexpr) : cexpr =
  match op with
  | Add -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> int_ (x + y)
        | _ -> binop st op a b)
  | Sub -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> int_ (x - y)
        | _ -> binop st op a b)
  | Mul -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> int_ (x * y)
        | _ -> binop st op a b)
  | Div -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } when y <> 0 ->
            int_ (x / y)
        | _ -> binop st op a b)
  | Mod -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } when y <> 0 ->
            int_ (x mod y)
        | _ -> binop st op a b)
  | Eq -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> bool_ (x = y)
        | _ -> binop st op a b)
  | Ne -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> bool_ (x <> y)
        | _ -> binop st op a b)
  | Lt -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> bool_ (x < y)
        | _ -> binop st op a b)
  | Le -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> bool_ (x <= y)
        | _ -> binop st op a b)
  | Gt -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> bool_ (x > y)
        | _ -> binop st op a b)
  | Ge -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> bool_ (x >= y)
        | _ -> binop st op a b)
  | Land -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } ->
            bool_ (x <> 0 && y <> 0)
        | _ -> binop st op a b)
  | Lor -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } ->
            bool_ (x <> 0 || y <> 0)
        | _ -> binop st op a b)
  | Band -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> int_ (x land y)
        | _ -> binop st op a b)
  | Bor -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> int_ (x lor y)
        | _ -> binop st op a b)
  | Bxor -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None } -> int_ (x lxor y)
        | _ -> binop st op a b)
  | Shl -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None }
          when y >= 0 && y <= 62 ->
            int_ (x lsl y)
        | _ -> binop st op a b)
  | Shr -> (
      fun st ->
        node st;
        let a = ca st in
        let b = cb st in
        match a, b with
        | { conc = Int x; sym = None }, { conc = Int y; sym = None }
          when y >= 0 && y <= 62 ->
            int_ (x asr y)
        | _ -> binop st op a b)

let rec compile_lval (lv : Resolved.lval) : clval =
  match lv with
  | Var (Local i) -> Local i
  | Var (Global i) -> Global i
  | Var (Unbound x) -> Computed (fun _ -> invalid_arg ("unbound variable " ^ x))
  | Elem (b, idx) -> (
      let ci = compile_expr idx in
      match compile_lval b with
      | Local i ->
          Computed
            (fun st ->
              let base = st.frame.(i) in
              set_lval st base (concretize st (ci st)))
      | Global i ->
          Computed
            (fun st ->
              let base = st.globals.(i) in
              set_lval st base (concretize st (ci st)))
      | Computed l ->
          Computed
            (fun st ->
              l st;
              let base = st.lv_base and off = st.lv_off in
              set_lval st base (off + concretize st (ci st))))
  | Ptr_elem (b, idx) ->
      let cb = computed (compile_lval b) and ci = compile_expr idx in
      Computed
        (fun st ->
          cb st;
          let base = st.lv_base and off = st.lv_off in
          let n = concretize st (ci st) in
          set_ptr st (load st base off);
          st.lv_off <- st.lv_off + n)
  | Star e ->
      let ce = compile_expr e in
      Computed (fun st -> set_ptr st (ce st))

and compile_expr (e : Resolved.expr) : cexpr =
  match e with
  | Cint n ->
      let v = Value.int_ n in
      fun st ->
        node st;
        v
  | Cstr (i, s) ->
      fun st ->
        node st;
        intern_string st i s
  | Load lv -> (
      match compile_lval lv with
      | Local i ->
          fun st ->
            node st;
            load st st.frame.(i) 0
      | Global i ->
          fun st ->
            node st;
            load st st.globals.(i) 0
      | Computed l ->
          fun st ->
            node st;
            l st;
            load st st.lv_base st.lv_off)
  | Addr lv -> (
      match compile_lval lv with
      | Local i ->
          fun st ->
            node st;
            ptr st.frame.(i) 0
      | Global i ->
          fun st ->
            node st;
            ptr st.globals.(i) 0
      | Computed l ->
          fun st ->
            node st;
            l st;
            ptr st.lv_base st.lv_off)
  | Unop (op, a) -> compile_unop op (compile_expr a)
  | Binop (op, a, b) -> compile_binop op (compile_expr a) (compile_expr b)
  | Ecall f ->
      fun st ->
        node st;
        invalid_arg ("call to " ^ f ^ " in expression position")

(* Store [v] where a compiled lvalue designates. *)
let assign st (lv : clval) v =
  match lv with
  | Local i -> store st st.frame.(i) 0 v
  | Global i -> store st st.globals.(i) 0 v
  | Computed l ->
      l st;
      store st st.lv_base st.lv_off v

(* Does [b] hold a [break] (resp. [continue]) that leaves the loop whose
   body it is?  An inner loop catches its own; type checking rejects one
   outside any loop. *)
let rec jumps ~break (b : Resolved.block) =
  List.exists
    (fun (s : Resolved.stmt) ->
      match s.desc with
      | Break -> break
      | Continue -> not break
      | If (_, _, t, e) -> jumps ~break t || jumps ~break e
      | Block b -> jumps ~break b
      | Assign _ | Call _ | While _ | Return _ -> false)
    b

(* Leave a call: the caller's frame and function come back and the
   callee's slots die. *)
let leave st frame saved_frame saved_func =
  st.frame <- saved_frame;
  for j = 0 to Array.length frame - 1 do
    Memory.kill st.mem (Array.unsafe_get frame j)
  done;
  st.depth <- st.depth - 1;
  st.cur_func <- saved_func

(* Enter [fn] with its evaluated arguments, run its body and leave it. *)
let call_func st (fn : cfunc) (args : Value.t array) : Value.t =
  charge st Cost.call_overhead;
  st.depth <- st.depth + 1;
  if st.depth > max_depth then crash st Crash.Stack_overflow;
  if Array.length args <> fn.nparams then
    invalid_arg (Printf.sprintf "arity mismatch calling %s" fn.name);
  (* one block per slot, parameters first, in declaration order *)
  let nslots = Array.length fn.sizes in
  let frame = Array.make nslots 0 in
  for j = 0 to nslots - 1 do
    frame.(j) <- Memory.alloc st.mem ~size:(Array.unsafe_get fn.sizes j)
  done;
  for j = 0 to Array.length args - 1 do
    Memory.store st.mem ~base:frame.(j) ~off:0 args.(j)
  done;
  let saved_frame = st.frame and saved_func = st.cur_func in
  st.frame <- frame;
  st.cur_func <- fn.name;
  match fn.body st with
  | () ->
      leave st frame saved_frame saved_func;
      Value.zero
  | exception Return_exc v ->
      leave st frame saved_frame saved_func;
      v
  | exception e ->
      leave st frame saved_frame saved_func;
      raise e

(* Evaluate call arguments left to right. *)
let eval_args st (cargs : cexpr array) =
  let vs = Array.make (Array.length cargs) Value.zero in
  for j = 0 to Array.length cargs - 1 do
    vs.(j) <- cargs.(j) st
  done;
  vs

(* [funcs] (a program's compiled functions, indexed like
   [Resolved.t.funcs]) is filled in after every body is compiled, so
   calls find their callee through it at run time. *)
let rec compile_stmt (funcs : cfunc array) (s : Resolved.stmt) : state -> unit =
  let loc = s.loc in
  match s.desc with
  | Assign (lv, e) -> (
      let ce = compile_expr e in
      match compile_lval lv with
      | Local i ->
          fun st ->
            st.cur_loc <- loc;
            step st;
            let v = ce st in
            store st st.frame.(i) 0 v
      | Global i ->
          fun st ->
            st.cur_loc <- loc;
            step st;
            let v = ce st in
            store st st.globals.(i) 0 v
      | Computed l ->
          fun st ->
            st.cur_loc <- loc;
            step st;
            let v = ce st in
            l st;
            store st st.lv_base st.lv_off v)
  | Call (lvo, callee, args) -> (
      let cargs = List.map compile_expr args in
      let call : state -> Value.t =
        match callee with
        | Func i ->
            let cargs = Array.of_list cargs in
            fun st -> call_func st funcs.(i) (eval_args st cargs)
        | Builtin name ->
            fun st ->
              let vs = List.map (fun c -> c st) cargs in
              charge st Cost.call_overhead;
              builtin_call st name vs
        | Unknown name ->
            fun st ->
              List.iter (fun c -> ignore (c st)) cargs;
              charge st Cost.call_overhead;
              invalid_arg ("call to unknown function " ^ name)
      in
      match lvo with
      | None ->
          fun st ->
            st.cur_loc <- loc;
            step st;
            ignore (call st);
            st.cur_loc <- loc
      | Some lv ->
          let clv = compile_lval lv in
          fun st ->
            st.cur_loc <- loc;
            step st;
            let ret = call st in
            st.cur_loc <- loc;
            assign st clv ret)
  | If (bid, cond, then_b, else_b) ->
      let cc = compile_expr cond
      and ct = compile_block funcs then_b
      and ce = compile_block funcs else_b in
      fun st ->
        st.cur_loc <- loc;
        step st;
        let v = cc st in
        let taken = truthy v in
        Cost.charge_branch st.cost;
        if st.hooks.on_branch ~bid ~iter:0 ~taken ~cond:v then ct st else ce st
  | While (bid, cond, body) ->
      let cc = compile_expr cond and cb = compile_block funcs body in
      (* a body with no [continue] needs no handler around each pass,
         and a loop with no [break] none around the whole loop *)
      let cb =
        if jumps ~break:false body then fun st ->
          try cb st with Continue_exc -> ()
        else cb
      in
      (* the statement's own step, then one per condition evaluation *)
      let loop st =
        st.cur_loc <- loc;
        step st;
        let iter = ref 0 and running = ref true in
        while !running do
          st.cur_loc <- loc;
          step st;
          let v = cc st in
          let taken = truthy v in
          Cost.charge_branch st.cost;
          if st.hooks.on_branch ~bid ~iter:!iter ~taken ~cond:v then begin
            cb st;
            incr iter
          end
          else running := false
        done
      in
      if jumps ~break:true body then fun st ->
        try loop st with Break_exc -> ()
      else loop
  | Return None ->
      fun st ->
        st.cur_loc <- loc;
        step st;
        raise (Return_exc Value.zero)
  | Return (Some e) ->
      let ce = compile_expr e in
      fun st ->
        st.cur_loc <- loc;
        step st;
        raise (Return_exc (ce st))
  | Break ->
      fun st ->
        st.cur_loc <- loc;
        step st;
        raise Break_exc
  | Continue ->
      fun st ->
        st.cur_loc <- loc;
        step st;
        raise Continue_exc
  | Block b ->
      let cb = compile_block funcs b in
      fun st ->
        st.cur_loc <- loc;
        step st;
        cb st

and compile_block funcs (b : Resolved.block) : state -> unit =
  match List.map (compile_stmt funcs) b with
  | [] -> fun _ -> ()
  | [ s ] -> s
  | [ s1; s2 ] ->
      fun st ->
        s1 st;
        s2 st
  | l ->
      let ss = Array.of_list l in
      fun st ->
        for j = 0 to Array.length ss - 1 do
          (Array.unsafe_get ss j) st
        done

let compile (prog : Program.t) : cfunc array =
  let placeholder = { name = ""; nparams = 0; sizes = [||]; body = ignore } in
  let funcs = Array.make (Array.length prog.code.funcs) placeholder in
  Array.iteri
    (fun i (f : Resolved.func) ->
      funcs.(i) <-
        {
          name = f.name;
          nparams = f.nparams;
          sizes = f.sizes;
          body = compile_block funcs f.body;
        })
    prog.code.funcs;
  funcs

type Program.compiled += Compiled of cfunc array

(* The program's compiled functions, compiled on its first run.  Two
   domains starting the same program at once may both compile it; the
   first to publish wins and both run its code. *)
let compiled (prog : Program.t) : cfunc array =
  match Atomic.get prog.compiled with
  | Some (Compiled funcs) -> funcs
  | _ -> (
      let funcs = compile prog in
      ignore (Atomic.compare_and_set prog.compiled None (Some (Compiled funcs)));
      match Atomic.get prog.compiled with Some (Compiled won) -> won | _ -> funcs)

type config = {
  inputs : Inputs.t;
  kernel : Kernel.t;
  hooks : hooks;
  max_steps : int;
  scheduler : (int list -> int) option;
      (** thread-scheduling policy: given the ready thread ids (in queue
          order), return the one to run.  Consulted only when two or more
          threads are ready; [None] = run the first (round-robin).  The
          field run logs these decisions; replay replays them.  May raise
          {!Abort_run} on schedule divergence. *)
}

let default_config =
  {
    inputs = Inputs.of_strings [];
    kernel = (fun _ -> Kernel.concrete_reply (Osmodel.Sysreq.R_int (-1)));
    hooks = no_hooks;
    max_steps = 10_000_000;
    scheduler = None;
  }

type result = {
  outcome : Crash.outcome;
  cost : Cost.t;
  output : string;  (** text printed via print_int / print_str *)
  steps : int;
}

let init_state (prog : Program.t) (cfg : config) : state =
  let code = prog.code in
  let st =
    {
      code;
      mem = Memory.create ~index_shadows:(Option.is_some cfg.hooks.on_start) ();
      globals = Array.make (Array.length code.globals) 0;
      lits = Array.make code.nlits Value.zero;
      inputs = cfg.inputs;
      kernel = cfg.kernel;
      hooks = cfg.hooks;
      cost = Cost.create ();
      max_steps = cfg.max_steps;
      out = Buffer.create 256;
      frame = [||];
      depth = 0;
      steps = 0;
      cur_loc = Loc.none;
      cur_func = "<toplevel>";
      live = Option.is_some cfg.hooks.on_start;
      unpinned = [];
      lv_base = 0;
      lv_off = 0;
    }
  in
  Array.iteri
    (fun i (g : Resolved.global) ->
      let b = Memory.alloc st.mem ~size:g.size in
      st.globals.(i) <- b;
      let init v = try Memory.store st.mem ~base:b ~off:0 v with Memory.Fault _ -> () in
      match g.init with
      | None -> ()
      | Some (Cint n) -> init (Value.int_ n)
      | Some (Unop (Neg, Cint n)) -> init (Value.int_ (-n))
      | Some (Cstr (l, s)) -> init (intern_string st l s)
      | Some _ -> invalid_arg ("unsupported global initialiser for " ^ g.gname))
    code.globals;
  st

(* Every input-derived value of a run lives in a shadowed memory cell or
   argv byte, or was recorded as an unpinned use: MiniC is CIL-normalised,
   so at a branch no half-evaluated operand sits on the evaluator's stack.
   [reconcretize] checks every cell it must before it writes any.  A clean
   cell whose shadow mentions no changed variable needs no check: the last
   accepted move left it at its shadow's value under [old], which [fresh]
   keeps; an argv byte likewise (see eval.mli). *)
let live_access st =
  let eval env e =
    match Solver.Expr.eval env e with
    | v -> Some v
    | exception (Solver.Expr.Undefined | Not_found) -> None
  in
  let reconcretize ~changed ~old ~fresh =
    let moves = ref [] and consistent = ref true in
    Memory.iter_changed st.mem ~changed (fun ~base ~off (v : Value.t) ->
        match v with
        | { sym = Some e; conc = Int n } when !consistent -> (
            match eval fresh e with
            | Some f when f = n -> ()
            | Some f when eval old e = Some n ->
                moves := (base, off, { v with conc = Int f }) :: !moves
            | _ -> consistent := false)
        | _ -> ());
    !consistent
    &&
    match Inputs.reconcretize st.inputs ~changed (Solver.Expr.eval fresh) with
    | () ->
        List.iter (fun (base, off, v) -> Memory.store st.mem ~base ~off v) !moves;
        Memory.mark_clean st.mem;
        true
    | exception (Solver.Expr.Undefined | Not_found) -> false
  in
  { unpinned = (fun () -> st.unpinned); reconcretize }

(* Saved per-thread execution context, swapped at scheduling points. *)
type saved_ctx = {
  s_frame : int array;
  s_depth : int;
  s_func : string;
  s_loc : Loc.t;
}

let capture_ctx st =
  { s_frame = st.frame; s_depth = st.depth; s_func = st.cur_func; s_loc = st.cur_loc }

let restore_ctx st s =
  st.frame <- s.s_frame;
  st.depth <- s.s_depth;
  st.cur_func <- s.s_func;
  st.cur_loc <- s.s_loc

(** Run [prog]'s [main] under the given configuration.

    The scheduler trampoline below also hosts the cooperative threads of
    the §6 multithreading extension: [main] is thread 0; [spawn] adds
    fibers; [yield], [join] and every system call are scheduling points.  A
    crash in any thread crashes the program (as a signal would). *)
let run (prog : Program.t) (cfg : config) : result =
  let funcs = compiled prog in
  let st = init_state prog cfg in
  Option.iter (fun f -> f (live_access st)) cfg.hooks.on_start;
  let open Effect.Deep in
  let ready : (int * (unit -> unit)) list ref = ref [] in
  let results : (int, Value.t) Hashtbl.t = Hashtbl.create 8 in
  let waiters : (int, (int * (Value.t -> unit)) list) Hashtbl.t = Hashtbl.create 8 in
  let next_tid = ref 1 in
  let current_tid = ref 0 in
  let main_value = ref None in
  let enqueue tid f = ready := !ready @ [ (tid, f) ] in
  let rec remove_tid tid = function
    | [] -> []
    | (t, _) :: rest when t = tid -> rest
    | x :: rest -> x :: remove_tid tid rest
  in
  let pick () =
    match !ready with
    | [] -> None
    | [ (tid, f) ] ->
        ready := [];
        Some (tid, f)
    | l -> (
        let tids = List.map fst l in
        let chosen =
          match cfg.scheduler with Some policy -> policy tids | None -> List.hd tids
        in
        match List.assoc_opt chosen l with
        | Some f ->
            ready := remove_tid chosen l;
            Some (chosen, f)
        | None -> raise (Abort_run "scheduler chose a thread that is not ready"))
  in
  let wake tid v =
    match Hashtbl.find_opt waiters tid with
    | None -> ()
    | Some ws ->
        Hashtbl.remove waiters tid;
        List.iter (fun (wtid, resume) -> enqueue wtid (fun () -> resume v)) ws
  in
  let rec run_fiber tid (body : unit -> Value.t) : unit =
    match_with body ()
      {
        retc =
          (fun v ->
            (* a thread's result waits outside memory for its joiner *)
            unpinned st v;
            Hashtbl.replace results tid v;
            if tid = 0 then main_value := Some v;
            wake tid v);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield_eff ->
                Some
                  (fun (k : (a, _) continuation) ->
                    if !ready = [] then continue k () (* nothing to switch to *)
                    else begin
                      let saved = capture_ctx st in
                      enqueue tid (fun () ->
                          restore_ctx st saved;
                          continue k ())
                    end)
            | Spawn_eff (fname, arg) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    let tid' = !next_tid in
                    incr next_tid;
                    (match Resolved.find st.code fname with
                    | Some i when st.code.funcs.(i).nparams = 1 ->
                        enqueue tid' (fun () ->
                            st.frame <- [||];
                            st.depth <- 0;
                            st.cur_func <- fname;
                            st.cur_loc <- st.code.funcs.(i).floc;
                            run_fiber tid' (fun () -> call_func st funcs.(i) [| arg |]))
                    | Some _ ->
                        invalid_arg
                          (Printf.sprintf "spawn: %s must take one int argument"
                             fname)
                    | None -> invalid_arg ("spawn: unknown function " ^ fname));
                    continue k tid')
            | Join_eff t ->
                Some
                  (fun (k : (a, _) continuation) ->
                    match Hashtbl.find_opt results t with
                    | Some v -> continue k v
                    | None ->
                        let saved = capture_ctx st in
                        let ws =
                          match Hashtbl.find_opt waiters t with
                          | Some l -> l
                          | None -> []
                        in
                        Hashtbl.replace waiters t
                          (( tid,
                             fun v ->
                               restore_ctx st saved;
                               continue k v )
                          :: ws))
            | My_tid_eff ->
                Some (fun (k : (a, _) continuation) -> continue k !current_tid)
            | _ -> None);
      }
  in
  let rec spin () =
    if !main_value <> None then ()
    else
      match pick () with
      | None ->
          if !main_value = None then
            raise (Abort_run "deadlock: all threads blocked")
      | Some (tid, f) ->
          current_tid := tid;
          f ();
          spin ()
  in
  let outcome =
    match
      enqueue 0 (fun () ->
          let main = Option.get (Resolved.find st.code "main") in
          run_fiber 0 (fun () -> call_func st funcs.(main) [||]));
      spin ()
    with
    | () -> (
        match !main_value with
        | Some v ->
            let code =
              match v.Value.conc with Value.Int n -> n | Value.Ptr _ -> 0
            in
            Crash.Exit code
        | None -> Crash.Aborted "main never completed")
    | exception Exit_exc code -> Crash.Exit code
    | exception Crash_exc c -> Crash.Crash c
    | exception Budget_exc -> Crash.Budget_exhausted
    | exception Abort_run why -> Crash.Aborted why
  in
  { outcome; cost = st.cost; output = Buffer.contents st.out; steps = st.steps }
