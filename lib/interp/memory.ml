(** Block-based memory.

    Every variable owns a block (scalars have size 1, arrays their declared
    size); pointers are (block, offset) pairs.  Out-of-bounds offsets,
    dangling blocks (frame popped) and unknown blocks fault — giving MiniC
    programs memory-safety crashes at well-defined source locations, which
    is exactly the crash behaviour the paper reproduces.

    Blocks live in a growable array indexed by block id.  Ids are never
    reused; a killed block's slot points at one shared sentinel, so a dead
    block costs one word. *)

type fault = Oob | Dead_block | Unknown_block

exception Fault of fault

(* The shadow index, kept only for a run whose live state may be moved.
   A cell's flag says where it is listed: [unlisted]; [dirty], stored since
   the last [mark_clean] and listed once in [dirty]; or clean since
   generation [g >= first_gen], listed with stamp [g] under every variable
   of the shadow it held then.  A store moves a listed cell to [dirty]; the
   entries it leaves under its variables go stale (their stamp no longer
   matches the flag) and are dropped when their variable is next walked.  A
   block's flags are allocated at its first shadowed store; killing the
   block drops them, which stales every entry of its cells. *)
let unlisted = 0
let dirty = 1
let first_gen = 2

(* a growable list of (base, off, stamp) triples *)
type cells = { mutable a : int array; mutable n : int }

type index = {
  mutable flags : int array array;  (** per block id; empty until needed *)
  dirty_cells : cells;  (** (base, off, 0) of every dirty cell *)
  mutable by_var : cells array;  (** clean cells by variable id *)
  mutable gen : int;  (** the stamp of the next [mark_clean] *)
}

let no_cells = { a = [||]; n = 0 }

let push c base off stamp =
  if c.n + 3 > Array.length c.a then begin
    let grown = Array.make (max 24 (2 * Array.length c.a)) 0 in
    Array.blit c.a 0 grown 0 c.n;
    c.a <- grown
  end;
  c.a.(c.n) <- base;
  c.a.(c.n + 1) <- off;
  c.a.(c.n + 2) <- stamp;
  c.n <- c.n + 3

type t = {
  mutable blocks : Value.t array array;
  mutable next : int;
  index : index option;
}

let dead : Value.t array = [| Value.zero |]

let create ?(index_shadows = false) () =
  {
    blocks = Array.make 256 dead;
    next = 1;
    index =
      (if index_shadows then
         Some
           { flags = Array.make 256 [||]; dirty_cells = { a = [||]; n = 0 };
             by_var = [||]; gen = first_gen }
       else None);
  }

(** Allocate a zero-initialised block; returns its id. *)
let alloc t ~size =
  let bid = t.next in
  if bid = Array.length t.blocks then begin
    let grown = Array.make (2 * bid) dead in
    Array.blit t.blocks 0 grown 0 bid;
    t.blocks <- grown;
    Option.iter
      (fun ix ->
        let grown = Array.make (2 * bid) [||] in
        Array.blit ix.flags 0 grown 0 bid;
        ix.flags <- grown)
      t.index
  end;
  t.blocks.(bid) <- Array.make (max size 0) Value.zero;
  t.next <- bid + 1;
  bid

(** Mark a block dead (its id is never reused, so later accesses fault with
    [Dead_block] — a use-after-free detector for free). *)
let kill t bid =
  if bid > 0 && bid < t.next then begin
    t.blocks.(bid) <- dead;
    match t.index with Some ix -> ix.flags.(bid) <- [||] | None -> ()
  end

let cells t base =
  if base >= t.next then raise (Fault Unknown_block)
  else if base < 1 || t.blocks.(base) == dead then raise (Fault Dead_block)
  else t.blocks.(base)

let size t bid = match cells t bid with b -> Some (Array.length b) | exception Fault _ -> None

let load t ~base ~off =
  let b = cells t base in
  if off < 0 || off >= Array.length b then raise (Fault Oob) else Array.unsafe_get b off

(* A store into a listed cell dirties it; a shadowed store into an
   unlisted one lists it, dirty. *)
let note ix ~base ~off ~size (v : Value.t) =
  let fl = ix.flags.(base) in
  if Array.length fl > 0 && Array.unsafe_get fl off <> unlisted then begin
    if Array.unsafe_get fl off <> dirty then begin
      Array.unsafe_set fl off dirty;
      push ix.dirty_cells base off 0
    end
  end
  else if Option.is_some v.sym then begin
    let fl =
      if Array.length fl > 0 then fl
      else begin
        let fl = Array.make size unlisted in
        ix.flags.(base) <- fl;
        fl
      end
    in
    Array.unsafe_set fl off dirty;
    push ix.dirty_cells base off 0
  end

let store t ~base ~off v =
  let b = cells t base in
  if off < 0 || off >= Array.length b then raise (Fault Oob)
  else begin
    Array.unsafe_set b off v;
    match t.index with
    | None -> ()
    | Some ix -> note ix ~base ~off ~size:(Array.length b) v
  end

let the_index t =
  match t.index with
  | Some ix -> ix
  | None -> invalid_arg "Memory: created without ~index_shadows"

let var_cells ix x =
  if x < Array.length ix.by_var then ix.by_var.(x) else no_cells

(* The shadow of a listed cell, if it still holds one. *)
let shadow t ~base ~off =
  (Array.unsafe_get t.blocks.(base) off : Value.t).sym

(* [e] mentions a variable of [xs] *)
let rec mentions xs (e : Solver.Expr.t) =
  match e with
  | Var x -> List.mem x xs
  | Const _ -> false
  | Unop (_, a) -> mentions xs a
  | Binop (_, a, b) -> mentions xs a || mentions xs b

(** [iter_changed t ~changed f]: the dirty cells that hold a shadow, then,
    for each variable [x] of [changed] in order, the live clean cells listed
    under [x], skipping a cell whose shadow also mentions a variable
    earlier in [changed] (visited there).  Stale entries of [x] are dropped
    on the way. *)
let iter_changed t ~changed f =
  let ix = the_index t in
  let d = ix.dirty_cells in
  let r = ref 0 in
  while !r < d.n do
    let base = d.a.(!r) and off = d.a.(!r + 1) in
    (if Array.length ix.flags.(base) > 0 then
       match shadow t ~base ~off with
       | Some _ -> f ~base ~off (Array.unsafe_get t.blocks.(base) off)
       | None -> ());
    r := !r + 3
  done;
  let walk earlier x =
    let c = var_cells ix x in
    let w = ref 0 and r = ref 0 in
    while !r < c.n do
      let base = c.a.(!r) and off = c.a.(!r + 1) and stamp = c.a.(!r + 2) in
      let fl = ix.flags.(base) in
      if Array.length fl > 0 && Array.unsafe_get fl off = stamp then begin
        c.a.(!w) <- base;
        c.a.(!w + 1) <- off;
        c.a.(!w + 2) <- stamp;
        w := !w + 3;
        let v = Array.unsafe_get t.blocks.(base) off in
        match v.Value.sym with
        | Some (Solver.Expr.Var _) -> f ~base ~off v
        | Some e -> if not (mentions earlier e) then f ~base ~off v
        | None -> ()
      end;
      r := !r + 3
    done;
    c.n <- !w
  in
  ignore
    (List.fold_left
       (fun earlier x ->
         walk earlier x;
         x :: earlier)
       [] changed)

(** Mark every dirty cell that holds a shadow clean, listed under the
    variables of its shadow; the others leave the index. *)
let mark_clean t =
  let ix = the_index t in
  let stamp = ix.gen in
  ix.gen <- stamp + 1;
  let list_under x base off =
    if x >= Array.length ix.by_var then begin
      let grown = Array.make (max 64 (2 * (x + 1))) no_cells in
      Array.blit ix.by_var 0 grown 0 (Array.length ix.by_var);
      ix.by_var <- grown
    end;
    let c =
      match ix.by_var.(x) with
      | c when c == no_cells ->
          let c = { a = [||]; n = 0 } in
          ix.by_var.(x) <- c;
          c
      | c -> c
    in
    push c base off stamp
  in
  let d = ix.dirty_cells in
  let r = ref 0 in
  while !r < d.n do
    let base = d.a.(!r) and off = d.a.(!r + 1) in
    let fl = ix.flags.(base) in
    if Array.length fl > 0 then begin
      match shadow t ~base ~off with
      | None -> Array.unsafe_set fl off unlisted
      | Some e -> (
          Array.unsafe_set fl off stamp;
          match e with
          | Solver.Expr.Var x -> list_under x base off
          | e -> List.iter (fun x -> list_under x base off) (Solver.Expr.vars e))
    end;
    r := !r + 3
  done;
  d.n <- 0

let fault_to_crash_kind = function
  | Oob -> Crash.Out_of_bounds
  | Dead_block -> Crash.Use_after_free
  | Unknown_block -> Crash.Invalid_pointer
