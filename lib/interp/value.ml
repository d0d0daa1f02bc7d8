(** Runtime values: a concrete part plus an optional symbolic shadow.

    This is what makes one evaluator serve every stage of the paper's
    pipeline: a plain field run carries no shadows; dynamic analysis, replay
    and any other concolic run shadow each input-derived value with a
    {!Solver.Expr.t}.  Pointers are never symbolic — program input consists
    of bytes, and pointer-typed computations are concretised. *)

type conc =
  | Int of int
  | Ptr of { base : int; off : int }  (** block id and cell offset *)

type t = { conc : conc; sym : Solver.Expr.t option }

(* Byte-sized integers are shared, so evaluating them allocates nothing. *)
let byte_values = Array.init 256 (fun n -> { conc = Int n; sym = None })
let int_ n = if n land 0xff = n then Array.unsafe_get byte_values n else { conc = Int n; sym = None }
let ptr ~base ~off = { conc = Ptr { base; off }; sym = None }
let with_sym v sym = { v with sym }
let zero = int_ 0
let one = int_ 1

let is_symbolic v = Option.is_some v.sym

(** Concrete truth value (C semantics: nonzero / non-null). *)
let truthy v = match v.conc with Int 0 -> false | Int _ -> true | Ptr _ -> true

(** The symbolic shadow of [v], or the constant embedding of its concrete
    value; [None] if the value is a pointer. *)
let sym_or_const v =
  match v.sym with
  | Some e -> Some e
  | None -> ( match v.conc with Int n -> Some (Solver.Expr.Const n) | Ptr _ -> None)

let to_string v =
  let c =
    match v.conc with
    | Int n -> string_of_int n
    | Ptr { base; off } -> Printf.sprintf "&%d[%d]" base off
  in
  match v.sym with
  | None -> c
  | Some e -> Printf.sprintf "%s{%s}" c (Solver.Expr.to_string e)
