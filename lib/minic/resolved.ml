(** Name-resolved function bodies, built once by {!Program.link}.

    The evaluator compiles these instead of the {!Ast}: every variable is a
    frame or global slot, every call site is bound to a builtin, a function
    index or an unknown name, every string literal has a program-wide
    index, and the static types the evaluator needs (array decay, indexing
    through an array or a pointer) are settled here.  The result is
    immutable, so one linked program can run on many domains at once.

    Type checking runs before resolution, so [Unbound], [Unknown] and
    [Ecall] never occur in a linked program; they keep the evaluator's
    run-time errors should that ever change. *)

type var = Local of int | Global of int | Unbound of string

type expr =
  | Cint of int
  | Cstr of int * string  (** literal index and bytes *)
  | Load of lval  (** read of a non-array lvalue *)
  | Addr of lval  (** [&lv], and an array lvalue decayed to a pointer *)
  | Unop of Ast.unop * expr
  | Binop of Ast.binop * expr * expr
  | Ecall of string  (** a call left in expression position *)

and lval =
  | Var of var
  | Elem of lval * expr  (** [a[i]] on an array: [i] cells into its block *)
  | Ptr_elem of lval * expr  (** [p[i]] through the pointer stored at [p] *)
  | Star of expr

type callee = Builtin of string | Func of int | Unknown of string

type stmt = { loc : Loc.t; desc : desc }

and desc =
  | Assign of lval * expr
  | Call of lval option * callee * expr list
  | If of int * expr * block * block  (** branch id, condition, arms *)
  | While of int * expr * block
  | Return of expr option
  | Break
  | Continue
  | Block of block

and block = stmt list

type func = {
  name : string;
  nparams : int;
  sizes : int array;  (** cells of each slot: parameters, then locals *)
  body : block;
  floc : Loc.t;
}

type global = { gname : string; size : int; init : expr option }

type t = {
  funcs : func array;  (** in link order; [Func i] calls [funcs.(i)] *)
  globals : global array;  (** in declaration order; [Global i] *)
  nlits : int;  (** distinct string literals *)
  index : (string, int) Hashtbl.t;  (** function name to index *)
}

let find t name = Hashtbl.find_opt t.index name
let size_of (ty : Types.t) = match ty with Tarr (_, n) -> n | _ -> 1

let resolve ~(globals : Ast.var_decl list) ~(funcs : Ast.func list) : t =
  let slots l =
    let h = Hashtbl.create 64 in
    List.iteri (fun i (x, ty) -> Hashtbl.replace h x (i, ty)) l;
    h
  in
  let gslots = slots (List.map (fun (d : Ast.var_decl) -> (d.vname, d.vtyp)) globals) in
  let index = Hashtbl.create 64 in
  List.iteri (fun i (f : Ast.func) -> Hashtbl.replace index f.fname i) funcs;
  let lits = Hashtbl.create 32 in
  let lit s =
    match Hashtbl.find_opt lits s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length lits in
        Hashtbl.replace lits s i;
        i
  in
  (* Each resolver returns the node and its static type; types decide
     array decay and whether an index goes through a pointer. *)
  let rec lval locals (lv : Ast.lval) : lval * Types.t =
    match lv with
    | Var x -> (
        match Hashtbl.find_opt locals x with
        | Some (i, ty) -> (Var (Local i), ty)
        | None -> (
            match Hashtbl.find_opt gslots x with
            | Some (i, ty) -> (Var (Global i), ty)
            | None -> (Var (Unbound x), Types.Tint)))
    | Index (b, i) -> (
        let rb, tb = lval locals b in
        let ri, _ = expr locals i in
        match tb with
        | Tarr (el, _) -> (Elem (rb, ri), el)
        | Tptr el -> (Ptr_elem (rb, ri), el)
        | Tvoid | Tint -> (Ptr_elem (rb, ri), Types.Tint))
    | Star e ->
        let re, te = expr locals e in
        (Star re, Option.value (Types.element te) ~default:Types.Tint)
  and expr locals (e : Ast.expr) : expr * Types.t =
    match e with
    | Cint n -> (Cint n, Types.Tint)
    | Cstr s -> (Cstr (lit s, s), Types.Tptr Types.Tint)
    | Lval lv -> (
        match lval locals lv with
        | r, Tarr (el, _) -> (Addr r, Types.Tptr el)
        | r, ty -> (Load r, ty))
    | Addr lv ->
        let r, ty = lval locals lv in
        (Addr r, Types.Tptr ty)
    | Unop (op, a) -> (Unop (op, fst (expr locals a)), Types.Tint)
    | Binop (op, a, b) ->
        let ra, ta = expr locals a in
        let rb, tb = expr locals b in
        let ty =
          match op with
          | (Add | Sub) when Types.is_pointer ta -> ta
          | (Add | Sub) when Types.is_pointer tb -> tb
          | _ -> Types.Tint
        in
        (Binop (op, ra, rb), ty)
    | Ecall (f, _) -> (Ecall f, Types.Tint)
  in
  let rec stmt locals (s : Ast.stmt) : stmt =
    let ex e = fst (expr locals e) and lv l = fst (lval locals l) in
    let desc =
      match s.sdesc with
      | Sassign (l, e) -> Assign (lv l, ex e)
      | Scall (lvo, f, args) ->
          let callee =
            if Builtin.is_builtin f then Builtin f
            else
              match Hashtbl.find_opt index f with
              | Some i -> Func i
              | None -> Unknown f
          in
          Call (Option.map lv lvo, callee, List.map ex args)
      | Sif (br, c, t, e) -> If (br.bid, ex c, block locals t, block locals e)
      | Swhile (br, c, b) -> While (br.bid, ex c, block locals b)
      | Sreturn e -> Return (Option.map ex e)
      | Sbreak -> Break
      | Scontinue -> Continue
      | Sblock b -> Block (block locals b)
    in
    { loc = s.sloc; desc }
  and block locals b = List.map (stmt locals) b in
  let func (f : Ast.func) =
    let vars =
      f.fparams @ List.map (fun (d : Ast.var_decl) -> (d.vname, d.vtyp)) f.flocals
    in
    {
      name = f.fname;
      nparams = List.length f.fparams;
      sizes = Array.of_list (List.map (fun (_, ty) -> size_of ty) vars);
      body = block (slots vars) f.fbody;
      floc = f.floc;
    }
  in
  let no_locals = Hashtbl.create 1 in
  let global (d : Ast.var_decl) =
    {
      gname = d.vname;
      size = size_of d.vtyp;
      init = Option.map (fun e -> fst (expr no_locals e)) d.vinit;
    }
  in
  let funcs = Array.of_list (List.map func funcs) in
  let globals = Array.of_list (List.map global globals) in
  { funcs; globals; nlits = Hashtbl.length lits; index }
