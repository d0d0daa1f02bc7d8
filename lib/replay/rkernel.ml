(** The developer-site kernel used during replay.

    There is no real environment behind it: system-call results come either
    from the shipped syscall log (replayed verbatim, §3.3) or from symbolic
    models (a fresh symbolic variable per call occurrence, constrained to
    the call's feasible result range), and all input data bytes are
    symbolic variables whose concrete values come from the current solver
    model, falling back to a per-variable deterministic pseudo-random
    default (the paper's "initial run with random inputs"). *)

type stream = { name : string; cap : int; mutable pos : int }

type t = {
  vars : Solver.Symvars.t;
  mutable model : Solver.Model.t;
      (** replaced when a guided run resumes under a new model *)
  sys_vars : (int, unit) Hashtbl.t;
      (** every system-call result variable created so far *)
  mutable unclamped : int list;
      (** system-call result variables created since the last [set_model]
          whose clamped value differs from their binding in [model] *)
  shape : Concolic.Scenario.shape;
  sys_reader : Instrument.Syscall_log.Reader.t option;
  seed : int;
  counters : (string, int) Hashtbl.t;
  fd_table : (int, stream) Hashtbl.t;
  mutable next_fd : int;
  mutable accepted : int;
  mutable listening : bool;
  mutable active : bool;
      (** checkpointed replay: before the first [checkpoint()] the shipped
          logs do not apply, so syscalls answer with plain defaults and no
          symbolic variables are created *)
  observe : int -> int -> unit;  (** effective value of each created variable *)
}

let create ?(observe = fun (_ : int) (_ : int) -> ()) ?(active = true) ~vars
    ~model ~(shape : Concolic.Scenario.shape)
    ~(syscall_log : Instrument.Syscall_log.log option) ~seed () : t =
  {
    vars;
    model;
    sys_vars = Hashtbl.create 8;
    unclamped = [];
    shape;
    sys_reader = Option.map Instrument.Syscall_log.Reader.create syscall_log;
    seed;
    counters = Hashtbl.create 8;
    fd_table = Hashtbl.create 8;
    next_fd = 4;
    accepted = 0;
    listening = false;
    active;
    observe;
  }

let activate t = t.active <- true

(* Deterministic per-name default byte: stable across runs, varies with the
   replay seed (the "random initial input"). *)
let default_for t name range_lo range_hi =
  let h = Hashtbl.hash (name, t.seed) in
  if range_hi <= range_lo then range_lo else range_lo + (h mod (range_hi - range_lo + 1))

let next_index t kind =
  let i = match Hashtbl.find_opt t.counters kind with Some i -> i | None -> 0 in
  Hashtbl.replace t.counters kind (i + 1);
  i

exception Log_mismatch of string

(* Result of a loggable syscall: logged value if a log is present, else a
   symbolic variable with a model/default concrete value. *)
let syscall_result t ~kind ~lo ~hi ~default : int * Solver.Expr.t option =
  if not t.active then (max lo (min hi default), None)
  else
  match t.sys_reader with
  | Some reader -> (
      match Instrument.Syscall_log.Reader.next reader ~kind with
      | Ok (Some v) -> (v, None)
      | Ok None ->
          (* log exhausted (crash truncated it): fall back to the model *)
          let index = next_index t kind in
          let id =
            Concolic.Names.sys_var t.vars ~kind ~index ~dom:{ Solver.Symvars.lo; hi }
          in
          let conc =
            match Solver.Model.find_opt id t.model with
            | Some v -> v
            | None -> default
          in
          Hashtbl.replace t.sys_vars id ();
          t.observe id conc;
          (conc, Some (Solver.Expr.Var id))
      | Error msg -> raise (Log_mismatch msg))
  | None ->
      let index = next_index t kind in
      let id =
        Concolic.Names.sys_var t.vars ~kind ~index ~dom:{ Solver.Symvars.lo; hi }
      in
      let conc =
        match Solver.Model.find_opt id t.model with
        | Some v when v < lo || v > hi ->
            t.unclamped <- id :: t.unclamped;
            max lo (min hi v)
        | Some v -> v
        | None -> max lo (min hi default)
      in
      Hashtbl.replace t.sys_vars id ();
      t.observe id conc;
      (conc, Some (Solver.Expr.Var id))

let alloc_fd t stream =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.fd_table fd stream;
  fd

(* Symbolic data bytes for [count] bytes of [stream] starting at its current
   position. *)
let stream_bytes t (s : stream) count =
  if not t.active then begin
    let data =
      Array.init count (fun j ->
          default_for t (Concolic.Names.stream_byte ~stream:s.name ~pos:(s.pos + j)) 0 255)
    in
    s.pos <- s.pos + count;
    (data, [||])
  end
  else
  let data =
    Array.init count (fun j ->
        let pos = s.pos + j in
        let name = Concolic.Names.stream_byte ~stream:s.name ~pos in
        let id = Concolic.Names.stream_var t.vars ~stream:s.name ~pos in
        let v =
          match Solver.Model.find_opt id t.model with
          | Some v -> v land 0xff
          | None -> default_for t name 0 255
        in
        t.observe id v;
        v)
  in
  let data_sym =
    Array.init count (fun j ->
        Some
          (Solver.Expr.Var
             (Concolic.Names.stream_var t.vars ~stream:s.name ~pos:(s.pos + j))))
  in
  s.pos <- s.pos + count;
  (data, data_sym)

let do_read t fd requested : Interp.Kernel.reply =
  (* the program may read an fd the replay kernel has not seen allocated —
     e.g. a connection accepted before a checkpoint, whose fd number comes
     from the syscall log.  Conjure a stream for it: its contents are
     symbolic input like any other. *)
  (if fd >= 4 && not (Hashtbl.mem t.fd_table fd) then begin
     Hashtbl.replace t.fd_table fd
       { name = Printf.sprintf "fd%d" fd; cap = t.shape.conn_cap; pos = 0 };
     t.next_fd <- max t.next_fd (fd + 1)
   end);
  match Hashtbl.find_opt t.fd_table fd with
  | None -> Interp.Kernel.concrete_reply (Osmodel.Sysreq.R_int (-1))
  | Some s ->
      let room = max 0 (s.cap - s.pos) in
      let feasible = min requested room in
      let count, ret_sym =
        syscall_result t ~kind:"read" ~lo:(-1) ~hi:feasible ~default:feasible
      in
      let count = max (-1) (min count feasible) in
      if count <= 0 then
        { Interp.Kernel.res = Osmodel.Sysreq.R_read { count = max count 0; data = [||] };
          ret_sym; data_sym = [||] }
      else
        let data, data_sym = stream_bytes t s count in
        { Interp.Kernel.res = Osmodel.Sysreq.R_read { count; data }; ret_sym; data_sym }

let do_accept t : Interp.Kernel.reply =
  let can_accept = t.accepted < t.shape.n_conns in
  let default = if can_accept then t.next_fd else -1 in
  let v, ret_sym = syscall_result t ~kind:"accept" ~lo:(-1) ~hi:1024 ~default in
  let fd =
    if v < 0 then -1
    else if can_accept then begin
      let stream =
        { name = Printf.sprintf "net%d" t.accepted; cap = t.shape.conn_cap; pos = 0 }
      in
      t.accepted <- t.accepted + 1;
      (* honour the logged fd number if present, else allocate *)
      if Hashtbl.mem t.fd_table v || v <= 3 then alloc_fd t stream
      else begin
        Hashtbl.replace t.fd_table v stream;
        t.next_fd <- max t.next_fd (v + 1);
        v
      end
    end
    else -1
  in
  { Interp.Kernel.res = Osmodel.Sysreq.R_int fd; ret_sym; data_sym = [||] }

let do_ready_fd t index : Interp.Kernel.reply =
  (* default: report connection fds round-robin, then the listener *)
  let known = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.fd_table [] in
  let known = List.sort Int.compare known in
  let default =
    match List.nth_opt known index with
    | Some fd -> fd
    | None -> if t.listening && t.accepted < t.shape.n_conns then 3 else -1
  in
  let v, ret_sym = syscall_result t ~kind:"ready_fd" ~lo:(-1) ~hi:1024 ~default in
  { Interp.Kernel.res = Osmodel.Sysreq.R_int v; ret_sym; data_sym = [||] }

let do_select t : Interp.Kernel.reply =
  let remaining =
    Hashtbl.fold (fun _ (s : stream) n -> if s.pos < s.cap then n + 1 else n)
      t.fd_table 0
  in
  let backlog = if t.accepted < t.shape.n_conns then 1 else 0 in
  let default = min (remaining + backlog) (max 1 backlog) in
  let v, ret_sym =
    syscall_result t ~kind:"select" ~lo:0 ~hi:(t.shape.n_conns + 1) ~default
  in
  { Interp.Kernel.res = Osmodel.Sysreq.R_int v; ret_sym; data_sym = [||] }

(** The kernel function handed to the evaluator during replay runs. *)
let kernel (t : t) : Interp.Kernel.t =
 fun req ->
  match req with
  | Osmodel.Sysreq.Listen _ ->
      t.listening <- true;
      Interp.Kernel.concrete_reply (Osmodel.Sysreq.R_int 3)
  | Osmodel.Sysreq.Open { path; _ } ->
      let fd =
        alloc_fd t { name = "file:" ^ path; cap = t.shape.file_cap; pos = 0 }
      in
      Interp.Kernel.concrete_reply (Osmodel.Sysreq.R_int fd)
  | Osmodel.Sysreq.Close { fd } ->
      Hashtbl.remove t.fd_table fd;
      Interp.Kernel.concrete_reply (Osmodel.Sysreq.R_int 0)
  | Osmodel.Sysreq.Write { data; _ } ->
      Interp.Kernel.concrete_reply (Osmodel.Sysreq.R_int (Array.length data))
  | Osmodel.Sysreq.Read { fd; count } -> do_read t fd count
  | Osmodel.Sysreq.Accept -> do_accept t
  | Osmodel.Sysreq.Ready_fd { index } -> do_ready_fd t index
  | Osmodel.Sysreq.Select -> do_select t

(** Symbolic argv for replay: capacities come from the report's shape;
    concrete bytes from the model, else seeded defaults. *)
let symbolic_args (t : t) : Interp.Inputs.t =
  let concrete_byte ~arg ~pos =
    let name = Concolic.Names.arg_byte ~arg ~pos in
    let id = Concolic.Names.arg_var t.vars ~arg ~pos in
    match Solver.Model.find_opt id t.model with
    | Some v -> v land 0xff
    | None -> default_for t name 0 255
  in
  Interp.Inputs.symbolic ~observe:t.observe ~vars:t.vars ~caps:t.shape.arg_caps
    ~concrete_byte ()

(* Every variable the kernel creates is an input byte (argv or stream,
   read as [v land 0xff]) or a system-call result, and its observed value
   is its binding in [t.model] ([land 0xff] for a byte), or its default when
   unbound — except the [unclamped] results.  [model] binds every other
   observed variable as [solved] or [t.model] does, else at its observed
   value, so only [solved] and [unclamped] can move. *)
let changed_inputs t ~solved model ~observed =
  let exception Sys_result_moves in
  let change id =
    match Solver.Model.find_opt id observed, Solver.Model.find_opt id model with
    | None, _ | _, None -> None
    | Some v, Some v' when v' = v -> None
    | Some _, Some _ when Hashtbl.mem t.sys_vars id -> raise Sys_result_moves
    | Some v, Some v' -> if v' land 0xff <> v then Some (id, v' land 0xff) else None
  in
  (* an unclamped result either moves (and refuses the model) or stays: it
     never adds a change, so the list keeps [solved]'s increasing order *)
  let candidates = t.unclamped @ List.map fst (Solver.Model.bindings solved) in
  match List.filter_map change candidates with
  | changes -> Some changes
  | exception Sys_result_moves -> None

let set_model t model =
  t.model <- model;
  t.unclamped <- []
