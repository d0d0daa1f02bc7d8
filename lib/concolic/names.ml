(** Stable names for symbolic input variables.

    Variable identity must survive across concolic runs (a solver model
    produced from run N parameterises run N+1), so names are derived from
    the input source, never from runtime ids:

    - ["arg<i>[<j>]"]: byte [j] of argument [i];
    - ["<stream>[<j>]"]: byte [j] of stream ["file:<path>"] or ["net<k>"];
    - ["sys:<kind>#<n>"]: result of the [n]-th system call of that kind.

    Each input source is one {!Solver.Symvars.family}, keyed by its name's
    prefix (["arg<i>"], ["<stream>"], ["sys:<kind>"]; a stream name never
    starts with ["arg"] or ["sys:"]), so the kernels intern a source's
    variables by position once per registry: a byte or result costs one
    array read, and its name is built only when it is first registered. *)

let arg_byte ~arg ~pos = Interp.Inputs.var_name ~arg ~pos

let stream_byte ~stream ~pos = stream ^ "[" ^ string_of_int pos ^ "]"

let sys_result ~kind ~index = "sys:" ^ kind ^ "#" ^ string_of_int index

let stream_family vars ~stream =
  Solver.Symvars.family vars ~key:stream (fun pos -> stream_byte ~stream ~pos)

let sys_family vars ~kind =
  Solver.Symvars.family vars ~key:("sys:" ^ kind) (fun index ->
      sys_result ~kind ~index)

(** Register (or find) the variable for a stream byte. *)
let stream_var vars ~stream ~pos =
  Solver.Symvars.member (stream_family vars ~stream) pos
    ~dom:Solver.Symvars.byte_domain

let arg_var vars ~arg ~pos =
  Solver.Symvars.member (Interp.Inputs.arg_family vars ~arg) pos
    ~dom:Solver.Symvars.byte_domain

let sys_var vars ~kind ~index ~dom =
  Solver.Symvars.member (sys_family vars ~kind) index ~dom

(* per kind: its results' family and the index of the next call *)
type sys_results = {
  reg : Solver.Symvars.t;
  by_kind : (string, Solver.Symvars.family * int ref) Hashtbl.t;
}

let sys_results vars = { reg = vars; by_kind = Hashtbl.create 8 }

let next_sys_var r ~kind ~dom =
  let family, next =
    match Hashtbl.find_opt r.by_kind kind with
    | Some source -> source
    | None ->
        let source = (sys_family r.reg ~kind, ref 0) in
        Hashtbl.replace r.by_kind kind source;
        source
  in
  let index = !next in
  next := index + 1;
  Solver.Symvars.member family index ~dom
