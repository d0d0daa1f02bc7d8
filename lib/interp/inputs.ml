(** Program arguments presented to the evaluator.

    Each argument is a byte string with an optional symbolic shadow per
    byte.  The field run uses plain concrete arguments; concolic stages
    shadow every byte with a {!Solver.Expr.Var} whose concrete value comes
    from the current solver model. *)

type arg = { bytes : int array; syms : Solver.Expr.t option array }

type t = {
  args : arg array;
  mutable by_var : (int, arg * int) Hashtbl.t option;
      (** every shadowed byte under each variable of its shadow; built by
          the first {!reconcretize} *)
}

let arg t i = t.args.(i)

let of_strings (ss : string list) : t =
  let mk s =
    {
      bytes = Array.init (String.length s) (fun i -> Char.code s.[i]);
      syms = Array.make (String.length s) None;
    }
  in
  { args = Array.of_list (List.map mk ss); by_var = None }

let arg_count t = Array.length t.args

(** Naming scheme for argument input bytes; shared with the concolic layer
    so that variable identities stay stable across runs. *)
let var_name ~arg ~pos = "arg" ^ string_of_int arg ^ "[" ^ string_of_int pos ^ "]"

let arg_family vars ~arg =
  Solver.Symvars.family vars ~key:("arg" ^ string_of_int arg) (fun pos ->
      var_name ~arg ~pos)

(** Build symbolic arguments: each has [cap] fully symbolic bytes whose
    concrete values are taken from [concrete_byte ~arg ~pos id], [id] being
    the byte's variable (typically its binding in the previous model, or a
    seeded random source).  Variables are registered argument by argument,
    in position order.  [observe] is told the effective concrete value of
    every variable created, so the exploration engine can seed the next
    solver call with the full input (not only the bytes an earlier model
    happened to mention). *)
let symbolic ?(observe = fun (_ : int) (_ : int) -> ()) ~(vars : Solver.Symvars.t)
    ~(caps : int list) ~(concrete_byte : arg:int -> pos:int -> int -> int) () : t =
  let mk argi cap =
    let family = arg_family vars ~arg:argi in
    let ids =
      Array.init cap (fun pos ->
          Solver.Symvars.member family pos ~dom:Solver.Symvars.byte_domain)
    in
    let bytes =
      Array.init cap (fun pos ->
          let b = concrete_byte ~arg:argi ~pos ids.(pos) in
          observe ids.(pos) b;
          b)
    in
    { bytes; syms = Array.map (fun id -> Some (Solver.Expr.Var id)) ids }
  in
  { args = Array.of_list (List.mapi mk caps); by_var = None }

let by_var t =
  match t.by_var with
  | Some ix -> ix
  | None ->
      let ix = Hashtbl.create 64 in
      Array.iter
        (fun a ->
          Array.iteri
            (fun j -> function
              | Some e ->
                  List.iter (fun x -> Hashtbl.add ix x (a, j)) (Solver.Expr.vars e)
              | None -> ())
            a.syms)
        t.args;
      t.by_var <- Some ix;
      ix

(** Set every shadowed byte whose shadow mentions a [changed] variable to
    [f] of its shadow: the others already hold it.  Every shadow is
    evaluated before any byte is written, so an exception from [f] leaves
    [t] unchanged. *)
let reconcretize t ~changed f =
  let ix = by_var t in
  let moves =
    List.concat_map
      (fun x ->
        List.map
          (fun (a, j) -> (a.bytes, j, f (Option.get a.syms.(j))))
          (Hashtbl.find_all ix x))
      changed
  in
  List.iter (fun (bytes, j, v) -> bytes.(j) <- v) moves
