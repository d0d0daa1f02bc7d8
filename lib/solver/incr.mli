(** Retired.  Pendings are solved through {!Cache} (or plain {!Solve});
    this empty handle is kept only so existing callers of
    [Concolic.Engine.explore ~incr] keep compiling.  Nothing reads it. *)

type t

val create : unit -> t
