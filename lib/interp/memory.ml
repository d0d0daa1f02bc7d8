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

type t = { mutable blocks : Value.t array array; mutable next : int }

let dead : Value.t array = [| Value.zero |]
let create () = { blocks = Array.make 256 dead; next = 1 }

(** Allocate a zero-initialised block; returns its id. *)
let alloc t ~size =
  let bid = t.next in
  if bid = Array.length t.blocks then begin
    let grown = Array.make (2 * bid) dead in
    Array.blit t.blocks 0 grown 0 bid;
    t.blocks <- grown
  end;
  t.blocks.(bid) <- Array.make (max size 0) Value.zero;
  t.next <- bid + 1;
  bid

(** Mark a block dead (its id is never reused, so later accesses fault with
    [Dead_block] — a use-after-free detector for free). *)
let kill t bid = if bid > 0 && bid < t.next then t.blocks.(bid) <- dead

let cells t base =
  if base >= t.next then raise (Fault Unknown_block)
  else if base < 1 || t.blocks.(base) == dead then raise (Fault Dead_block)
  else t.blocks.(base)

let size t bid = match cells t bid with b -> Some (Array.length b) | exception Fault _ -> None

let load t ~base ~off =
  let b = cells t base in
  if off < 0 || off >= Array.length b then raise (Fault Oob) else Array.unsafe_get b off

let store t ~base ~off v =
  let b = cells t base in
  if off < 0 || off >= Array.length b then raise (Fault Oob) else Array.unsafe_set b off v

(** [iter_symbolic t f] calls [f] on every cell of a live block whose value
    carries a symbolic shadow. *)
let iter_symbolic t f =
  for base = 1 to t.next - 1 do
    let b = t.blocks.(base) in
    if b != dead then
      for off = 0 to Array.length b - 1 do
        let v = Array.unsafe_get b off in
        match v.Value.sym with Some _ -> f ~base ~off v | None -> ()
      done
  done

let fault_to_crash_kind = function
  | Oob -> Crash.Out_of_bounds
  | Dead_block -> Crash.Use_after_free
  | Unknown_block -> Crash.Invalid_pointer
