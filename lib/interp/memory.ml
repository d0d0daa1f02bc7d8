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

(* The shadow index lists, once each, every cell that held a shadowed
   value at the last walk or was given one since.  A cell's flag byte says
   whether it is listed and whether it was stored since the last
   [mark_clean]; a block's flag bytes are allocated at its first shadowed
   store. *)
let unlisted = '\000'
let clean = '\001'
let dirty = '\002'

type index = {
  mutable flags : Bytes.t array;  (** per block id; empty until needed *)
  mutable listed : int array;  (** (base, off) pairs *)
  mutable len : int;  (** ints used in [listed] *)
}

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
         Some { flags = Array.make 256 Bytes.empty; listed = Array.make 64 0; len = 0 }
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
        let grown = Array.make (2 * bid) Bytes.empty in
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
    match t.index with Some ix -> ix.flags.(bid) <- Bytes.empty | None -> ()
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
  if Bytes.length fl > 0 && Bytes.unsafe_get fl off <> unlisted then
    Bytes.unsafe_set fl off dirty
  else if Option.is_some v.sym then begin
    let fl =
      if Bytes.length fl > 0 then fl
      else begin
        let fl = Bytes.make size unlisted in
        ix.flags.(base) <- fl;
        fl
      end
    in
    Bytes.unsafe_set fl off dirty;
    if ix.len = Array.length ix.listed then begin
      let grown = Array.make (2 * ix.len) 0 in
      Array.blit ix.listed 0 grown 0 ix.len;
      ix.listed <- grown
    end;
    ix.listed.(ix.len) <- base;
    ix.listed.(ix.len + 1) <- off;
    ix.len <- ix.len + 2
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

(** [iter_shadowed t f] calls [f] on every live cell whose value carries a
    symbolic shadow, and compacts the index as it goes: cells of dead
    blocks and cells no longer shadowed leave it. *)
let iter_shadowed t f =
  let ix = the_index t in
  let w = ref 0 in
  for r = 0 to (ix.len / 2) - 1 do
    let base = ix.listed.(2 * r) and off = ix.listed.((2 * r) + 1) in
    let b = t.blocks.(base) in
    if b != dead then begin
      let v = Array.unsafe_get b off in
      let fl = ix.flags.(base) in
      match v.Value.sym with
      | None -> Bytes.unsafe_set fl off unlisted
      | Some _ ->
          ix.listed.(!w) <- base;
          ix.listed.(!w + 1) <- off;
          w := !w + 2;
          f ~base ~off ~dirty:(Bytes.unsafe_get fl off = dirty) v
    end
  done;
  ix.len <- !w

(** Mark every listed cell clean: until its next store, a walk reports it
    with [~dirty:false]. *)
let mark_clean t =
  let ix = the_index t in
  for r = 0 to (ix.len / 2) - 1 do
    let base = ix.listed.(2 * r) in
    if t.blocks.(base) != dead then
      Bytes.unsafe_set ix.flags.(base) ix.listed.((2 * r) + 1) clean
  done

let fault_to_crash_kind = function
  | Oob -> Crash.Out_of_bounds
  | Dead_block -> Crash.Use_after_free
  | Unknown_block -> Crash.Invalid_pointer
