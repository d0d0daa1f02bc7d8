(** Program arguments presented to the evaluator.

    Each argument is a byte string with an optional symbolic shadow per
    byte.  The field run uses plain concrete arguments; concolic stages
    shadow every byte with a {!Solver.Expr.Var} whose concrete value comes
    from the current solver model. *)

type arg = { bytes : int array; syms : Solver.Expr.t option array }

type t = { args : arg array }

let of_strings (ss : string list) : t =
  let mk s =
    {
      bytes = Array.init (String.length s) (fun i -> Char.code s.[i]);
      syms = Array.make (String.length s) None;
    }
  in
  { args = Array.of_list (List.map mk ss) }

let arg_count t = Array.length t.args

(** Naming scheme for argument input bytes; shared with the concolic layer
    so that variable identities stay stable across runs. *)
let var_name ~arg ~pos = Printf.sprintf "arg%d[%d]" arg pos

(** Build symbolic arguments: each has [cap] fully symbolic bytes whose
    concrete values are taken from [concrete_byte ~arg ~pos] (typically the
    previous model or a seeded random source).  [observe] is told the
    effective concrete value of every variable created, so the exploration
    engine can seed the next solver call with the full input (not only the
    bytes an earlier model happened to mention). *)
let symbolic ?(observe = fun (_ : int) (_ : int) -> ()) ~(vars : Solver.Symvars.t)
    ~(caps : int list) ~(concrete_byte : arg:int -> pos:int -> int) () : t =
  let mk argi cap =
    let bytes = Array.init cap (fun pos -> concrete_byte ~arg:argi ~pos) in
    {
      bytes;
      syms =
        Array.init cap (fun pos ->
            let name = var_name ~arg:argi ~pos in
            let id =
              Solver.Symvars.lookup vars ~name ~dom:Solver.Symvars.byte_domain
            in
            observe id bytes.(pos);
            Some (Solver.Expr.Var id));
    }
  in
  { args = Array.of_list (List.mapi mk caps) }

(** Set every shadowed byte to [f] of its shadow, skipping the bytes whose
    shadow is a bare [Var x] with [x] not [changed]: their value already
    is [f (Var x)].  Every shadow is evaluated before any byte is written,
    so an exception from [f] leaves [t] unchanged. *)
let reconcretize t ~changed f =
  let moves = ref [] in
  Array.iter
    (fun a ->
      Array.iteri
        (fun j -> function
          | Some (Solver.Expr.Var x) when not (changed x) -> ()
          | Some e -> moves := (a.bytes, j, f e) :: !moves
          | None -> ())
        a.syms)
    t.args;
  List.iter (fun (bytes, j, v) -> bytes.(j) <- v) !moves
