(** Kernel wrapper used during concolic execution (dynamic analysis).

    Wraps the simulated OS so that
    - every byte delivered by [read] carries a symbolic shadow named after
      its stream position, with its concrete value overridable by the
      current solver model (this is how a negated path constraint about an
      input byte takes effect on the next run);
    - the numeric results of the non-deterministic system calls ([read]
      count, [select] count, [ready_fd], [accept]) carry symbolic shadows
      too, so branches that test them are correctly labelled symbolic — they
      cannot be predicted at the developer site without logging (§2.3). *)

type t = {
  vars : Solver.Symvars.t;
  model : Solver.Model.t;  (** concrete overrides for input bytes *)
  world : Osmodel.World.t;
  handle : Osmodel.Sysreq.req -> Osmodel.Sysreq.res;
  sym_results : bool;  (** shadow syscall results (not just data)? *)
  sys : Names.sys_results;
  observe : int -> int -> unit;  (** effective value of each created variable *)
}

let create ?(observe = fun (_ : int) (_ : int) -> ()) ~vars ~model
    ~(world : Osmodel.World.t)
    ~(handle : Osmodel.Sysreq.req -> Osmodel.Sysreq.res) ~sym_results () : t =
  { vars; model; world; handle; sym_results; sys = Names.sys_results vars; observe }

let result_shadow t ~kind ~lo ~hi ~conc : Solver.Expr.t option =
  if not t.sym_results then None
  else
    let id = Names.next_sys_var t.sys ~kind ~dom:{ Solver.Symvars.lo; hi } in
    t.observe id conc;
    Some (Solver.Expr.Var id)

(** The kernel function to pass to the evaluator. *)
let kernel (t : t) : Interp.Kernel.t =
 fun req ->
  let res = t.handle req in
  match req, res with
  | Osmodel.Sysreq.Read { count = requested; _ }, Osmodel.Sysreq.R_read { count; data }
    ->
      let stream = Osmodel.World.(t.world.last_read) in
      let data, data_sym =
        match stream with
        | Some (stream, start) ->
            let family = Names.stream_family t.vars ~stream in
            let ids =
              Array.init (Array.length data) (fun j ->
                  Solver.Symvars.member family (start + j)
                    ~dom:Solver.Symvars.byte_domain)
            in
            let data =
              Array.mapi
                (fun j b ->
                  let v =
                    match Solver.Model.find_opt ids.(j) t.model with
                    | Some v -> v land 0xff
                    | None -> b
                  in
                  t.observe ids.(j) v;
                  v)
                data
            in
            let data_sym =
              Array.init count (fun j ->
                  Some
                    (Solver.Expr.Var
                       (Solver.Symvars.member family (start + j)
                          ~dom:Solver.Symvars.byte_domain)))
            in
            (data, data_sym)
        | None -> (data, [||])
      in
      let ret_sym =
        result_shadow t ~kind:"read" ~lo:(-1) ~hi:(max requested 0) ~conc:count
      in
      { Interp.Kernel.res = Osmodel.Sysreq.R_read { count; data }; ret_sym; data_sym }
  | (Osmodel.Sysreq.Select | Osmodel.Sysreq.Ready_fd _ | Osmodel.Sysreq.Accept), _ ->
      let kind = Osmodel.Sysreq.req_name req in
      let ret_sym =
        result_shadow t ~kind ~lo:(-1) ~hi:256 ~conc:(Osmodel.Sysreq.res_int res)
      in
      { Interp.Kernel.res; ret_sym; data_sym = [||] }
  | ( ( Osmodel.Sysreq.Read _ | Osmodel.Sysreq.Write _ | Osmodel.Sysreq.Open _
      | Osmodel.Sysreq.Close _ | Osmodel.Sysreq.Listen _ ),
      _ ) ->
      Interp.Kernel.concrete_reply res

(** Symbolic arguments for a scenario: every argv byte becomes a variable;
    concrete values come from the model when present, else from the
    scenario's actual argument strings (padded buffers use NUL). *)
let symbolic_args ?observe ~vars ~model (sc : Scenario.t) ~(caps : int list) :
    Interp.Inputs.t =
  let base = Array.of_list sc.args in
  let concrete_byte ~arg ~pos id =
    match Solver.Model.find_opt id model with
    | Some v -> v land 0xff
    | None ->
        if arg < Array.length base && pos < String.length base.(arg) then
          Char.code base.(arg).[pos]
        else 0
  in
  Interp.Inputs.symbolic ?observe ~vars ~caps ~concrete_byte ()
