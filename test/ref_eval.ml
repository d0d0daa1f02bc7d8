(** The reference evaluator: the AST walker that {!Interp.Eval} replaced.

    It walks each {!Minic.Resolved} body node by node on every step, under
    the same hooks, configuration and result types as {!Interp.Eval}, with
    the same cost charges, hook calls and block-allocation order.  The
    differential test in [test_interp.ml] runs both on generated programs
    and requires identical observations; keep this file's semantics frozen
    unless the evaluator's are meant to change too. *)

open Minic
open Interp
open Interp.Eval

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
}

let max_depth = 2000
let cstring_scan_limit = 65536

let crash st kind =
  raise (Crash_exc { Crash.kind; loc = st.cur_loc; in_func = st.cur_func })

let step st =
  st.steps <- st.steps + 1;
  Cost.charge st.cost Cost.stmt;
  if st.steps > st.max_steps then raise Budget_exc

let var_block st : Resolved.var -> int = function
  | Local i -> st.frame.(i)
  | Global i -> st.globals.(i)
  | Unbound x -> invalid_arg ("unbound variable " ^ x)

let load st base off =
  try Memory.load st.mem ~base ~off
  with Memory.Fault f -> crash st (Memory.fault_to_crash_kind f)

let store st base off v =
  try Memory.store st.mem ~base ~off v
  with Memory.Fault f -> crash st (Memory.fault_to_crash_kind f)

(* ------------------------------------------------------------------ *)
(* Concretization of symbolic values used in concrete positions *)

let concretize st (v : Value.t) : int =
  match v.conc with
  | Int n ->
      (match v.sym with Some e -> st.hooks.on_concretize e n | None -> ());
      n
  | Ptr _ -> crash st Crash.Invalid_pointer

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
(* Expression evaluation *)

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

let rec eval_expr st (e : Resolved.expr) : Value.t =
  Cost.charge st.cost Cost.expr_node;
  match e with
  | Cint n -> Value.int_ n
  | Cstr (i, s) -> intern_string st i s
  | Load (Var x) -> load st (var_block st x) 0
  | Load lv ->
      let base, off = lval st lv in
      load st base off
  | Addr lv ->
      let base, off = lval st lv in
      Value.ptr ~base ~off
  | Unop (op, a) -> (
      let va = eval_expr st a in
      match va.conc with
      | Int n ->
          let r =
            match op with
            | Neg -> -n
            | Lognot -> if n = 0 then 1 else 0
            | Bitnot -> lnot n
          in
          let sym =
            Option.map (fun s -> Solver.Expr.Unop (unop_to_expr op, s)) va.sym
          in
          { Value.conc = Int r; sym }
      | Ptr _ -> (
          (* only !p is meaningful on pointers *)
          match op with
          | Lognot -> Value.int_ 0
          | Neg | Bitnot -> crash st Crash.Invalid_pointer))
  | Binop (op, a, b) -> eval_binop st op a b
  | Ecall f -> invalid_arg ("call to " ^ f ^ " in expression position")

and eval_binop st op a_e b_e : Value.t =
  let a = eval_expr st a_e in
  let b = eval_expr st b_e in
  match a.conc, b.conc, op with
  (* pointer arithmetic *)
  | Ptr p, Int _, (Add | Sub) ->
      let n = concretize st b in
      let off = if op = Add then p.off + n else p.off - n in
      Value.ptr ~base:p.base ~off
  | Int _, Ptr p, Add ->
      let n = concretize st a in
      Value.ptr ~base:p.base ~off:(p.off + n)
  | Ptr p, Ptr q, Sub ->
      if p.base = q.base then Value.int_ (p.off - q.off)
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
      Value.int_ r
  | Ptr _, Int n, (Eq | Ne) | Int n, Ptr _, (Eq | Ne) ->
      unpinned st a;
      unpinned st b;
      if n = 0 then Value.int_ (if op = Eq then 0 else 1)
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
      Value.int_ (if r then 1 else 0)
  | Int x, Int y, _ -> (
      match Solver.Expr.eval_binop (op_to_expr op) x y with
      | r -> { Value.conc = Int r; sym = shadow_binop st op a b }
      | exception Solver.Expr.Undefined -> crash st Crash.Div_by_zero)
  | _ -> crash st Crash.Invalid_pointer

(* The block and offset an lvalue designates. *)
and lval st (lv : Resolved.lval) : int * int =
  match lv with
  | Var x -> (var_block st x, 0)
  | Elem (b, idx) ->
      let base, off = lval st b in
      let n = concretize st (eval_expr st idx) in
      (base, off + n)
  | Ptr_elem (b, idx) ->
      let base, off = lval st b in
      let n = concretize st (eval_expr st idx) in
      let pbase, poff = expect_ptr st (load st base off) in
      (pbase, poff + n)
  | Star e -> expect_ptr st (eval_expr st e)

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
        let a = st.inputs.args.(i) in
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
(* Statements *)

let rec exec_stmt st (s : Resolved.stmt) : unit =
  st.cur_loc <- s.loc;
  step st;
  match s.desc with
  | Assign (lv, e) ->
      let v = eval_expr st e in
      let base, off = lval st lv in
      store st base off v
  | Call (lvo, callee, args) -> (
      let vs = List.map (eval_expr st) args in
      let ret = call st callee vs in
      st.cur_loc <- s.loc;
      match lvo with
      | None -> ()
      | Some lv ->
          let base, off = lval st lv in
          store st base off ret)
  | If (bid, cond, then_b, else_b) ->
      let v = eval_expr st cond in
      let taken = Value.truthy v in
      Cost.charge_branch st.cost;
      exec_block st
        (if st.hooks.on_branch ~bid ~iter:0 ~taken ~cond:v then then_b
         else else_b)
  | While (bid, cond, body) -> (
      let rec loop iter =
        st.cur_loc <- s.loc;
        step st;
        let v = eval_expr st cond in
        let taken = Value.truthy v in
        Cost.charge_branch st.cost;
        if st.hooks.on_branch ~bid ~iter ~taken ~cond:v then begin
          (try exec_block st body with Continue_exc -> ());
          loop (iter + 1)
        end
      in
      try loop 0 with Break_exc -> ())
  | Return None -> raise (Return_exc Value.zero)
  | Return (Some e) -> raise (Return_exc (eval_expr st e))
  | Break -> raise Break_exc
  | Continue -> raise Continue_exc
  | Block b -> exec_block st b

and exec_block st = function
  | [] -> ()
  | s :: rest ->
      exec_stmt st s;
      exec_block st rest

and call st (callee : Resolved.callee) (args : Value.t list) : Value.t =
  Cost.charge st.cost Cost.call_overhead;
  match callee with
  | Builtin name -> builtin_call st name args
  | Unknown name -> invalid_arg ("call to unknown function " ^ name)
  | Func i -> (
      let fn = st.code.funcs.(i) in
      st.depth <- st.depth + 1;
      if st.depth > max_depth then crash st Crash.Stack_overflow;
      if List.length args <> fn.nparams then
        invalid_arg (Printf.sprintf "arity mismatch calling %s" fn.name);
      (* one block per slot, parameters first, in declaration order *)
      let frame = Array.map (fun size -> Memory.alloc st.mem ~size) fn.sizes in
      List.iteri (fun i v -> Memory.store st.mem ~base:frame.(i) ~off:0 v) args;
      let saved_frame = st.frame and saved_func = st.cur_func in
      st.frame <- frame;
      st.cur_func <- fn.name;
      let cleanup () =
        st.frame <- saved_frame;
        Array.iter (Memory.kill st.mem) frame;
        st.depth <- st.depth - 1;
        st.cur_func <- saved_func
      in
      match exec_block st fn.body with
      | () ->
          cleanup ();
          Value.zero
      | exception Return_exc v ->
          cleanup ();
          v
      | exception e ->
          cleanup ();
          raise e)

(* ------------------------------------------------------------------ *)
(* Program entry *)

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
   cell whose shadow is a bare [Var x] of an unchanged [x] needs no check:
   the last accepted move left it at [x]'s value, which [fresh] keeps; an
   argv byte likewise (see eval.mli). *)
let live_access st =
  let eval env e =
    match Solver.Expr.eval env e with
    | v -> Some v
    | exception (Solver.Expr.Undefined | Not_found) -> None
  in
  let reconcretize ~changed ~old ~fresh =
    let moves = ref [] and consistent = ref true in
    Memory.iter_shadowed st.mem (fun ~base ~off ~dirty (v : Value.t) ->
        match v with
        | { sym = Some (Var x); _ } when (not dirty) && not (changed x) -> ()
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
                            run_fiber tid' (fun () -> call st (Func i) [ arg ]))
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
          run_fiber 0 (fun () -> call st (Func (Option.get (Resolved.find st.code "main"))) []));
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
