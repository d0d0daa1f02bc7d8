(** Linked MiniC programs.

    [link] combines an application unit with runtime-library units (the
    paper merges all C files into one before analysis, §4), normalises calls
    out of expressions, type checks, and numbers every branch location
    program-wide.  The result is the immutable artifact every later stage
    (static analysis, concolic execution, instrumentation, replay) works
    on. *)

exception Link_error of string

type compiled = ..

type t = {
  name : string;
  globals : Ast.var_decl list;
  funcs : Ast.func list;
  fun_tbl : (string, Ast.func) Hashtbl.t;
  branches : Number.info array;
  code : Resolved.t;
  compiled : compiled option Atomic.t;
}

let nbranches p = Array.length p.branches

let branch_info p bid =
  if bid < 0 || bid >= Array.length p.branches then
    invalid_arg (Printf.sprintf "branch_info: bad branch id %d" bid)
  else p.branches.(bid)

let find_func p name = Hashtbl.find_opt p.fun_tbl name

let app_branch_count p =
  Array.fold_left (fun n (b : Number.info) -> if b.bis_lib then n else n + 1) 0 p.branches

let lib_branch_count p = nbranches p - app_branch_count p

(** Branch ids belonging to application (non-library) code. *)
let app_branch_ids p =
  Array.to_list p.branches
  |> List.filter_map (fun (b : Number.info) -> if b.bis_lib then None else Some b.bid)

let lib_branch_ids p =
  Array.to_list p.branches
  |> List.filter_map (fun (b : Number.info) -> if b.bis_lib then Some b.bid else None)

(* Deep-copy a function body so that linking never aliases parsed units
   (normalisation and numbering mutate the AST). *)
let rec copy_stmt (s : Ast.stmt) : Ast.stmt =
  let sdesc : Ast.stmt_desc =
    match s.sdesc with
    | Sassign (lv, e) -> Sassign (lv, e)
    | Scall (lvo, f, args) -> Scall (lvo, f, args)
    | Sif (br, c, t, e) ->
        Sif ({ br with bid = -1 }, c, copy_block t, copy_block e)
    | Swhile (br, c, b) -> Swhile ({ br with bid = -1 }, c, copy_block b)
    | Sreturn e -> Sreturn e
    | Sbreak -> Sbreak
    | Scontinue -> Scontinue
    | Sblock b -> Sblock (copy_block b)
  in
  { s with sdesc }

and copy_block b = List.map copy_stmt b

let copy_func (f : Ast.func) : Ast.func =
  { f with flocals = f.flocals; fbody = copy_block f.fbody }

(** Link [app] with the given library units into a checked, normalised,
    branch-numbered program.  Raises {!Link_error} on structural problems
    (missing [main], normalisation bugs) and lets {!Typecheck.Error}
    propagate so callers can distinguish type errors. *)
let link ?(name = "program") ~(app : Ast.unit_) ~(libs : Ast.unit_ list) () : t =
  let units = app :: libs in
  let globals = List.concat_map (fun (u : Ast.unit_) -> u.u_globals) units in
  let funcs =
    List.concat_map (fun (u : Ast.unit_) -> List.map copy_func u.u_funcs) units
  in
  if not (List.exists (fun (f : Ast.func) -> String.equal f.fname "main") funcs)
  then raise (Link_error "program has no 'main' function");
  List.iter Normalize.func funcs;
  List.iter
    (fun (f : Ast.func) ->
      if not (Normalize.block_is_normalised f.fbody) then
        raise
          (Link_error (Printf.sprintf "internal: '%s' not normalised" f.fname)))
    funcs;
  Typecheck.check ~globals ~funcs;
  let branches = Number.number funcs in
  let fun_tbl = Hashtbl.create 64 in
  List.iter (fun (f : Ast.func) -> Hashtbl.replace fun_tbl f.fname f) funcs;
  {
    name;
    globals;
    funcs;
    fun_tbl;
    branches;
    code = Resolved.resolve ~globals ~funcs;
    compiled = Atomic.make None;
  }

(** Convenience: parse and link from source strings. *)
let of_sources ?(name = "program") ~app ~libs () : t =
  let app_unit = Parser.parse_unit ~file:(name ^ ".c") app in
  let lib_units =
    List.mapi
      (fun i src -> Parser.parse_unit ~is_lib:true ~file:(Printf.sprintf "lib%d.c" i) src)
      libs
  in
  link ~name ~app:app_unit ~libs:lib_units ()
