(** Block-based memory.

    Every variable owns a block (scalars have size 1, arrays their declared
    size); pointers are (block, offset) pairs.  Out-of-bounds offsets,
    dangling blocks and unknown blocks fault, giving MiniC programs
    memory-safety crashes at well-defined source locations.  Blocks are
    indexed by id in a growable array; a dead block costs one word. *)

type fault = Oob | Dead_block | Unknown_block

(** Raised by {!load} and {!store} on a faulting access. *)
exception Fault of fault

type t

val create : unit -> t

(** Allocate a zero-initialised block; returns its id. *)
val alloc : t -> size:int -> int

(** Mark a block dead; ids are never reused, so later accesses fault with
    [Dead_block] — a use-after-free detector for free. *)
val kill : t -> int -> unit

(** Cell count of a live block. *)
val size : t -> int -> int option

val load : t -> base:int -> off:int -> Value.t
val store : t -> base:int -> off:int -> Value.t -> unit

(** [iter_symbolic t f] calls [f ~base ~off v] on every cell of a live
    block whose value [v] carries a symbolic shadow. *)
val iter_symbolic : t -> (base:int -> off:int -> Value.t -> unit) -> unit

val fault_to_crash_kind : fault -> Crash.kind
