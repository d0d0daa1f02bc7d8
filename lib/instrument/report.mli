(** The bug report shipped from the user site to the developer.

    Deliberately excludes program input: it carries only the branch
    direction bits, optional system-call results, the crash site and the
    input *shape* (argument count and buffer capacities, stream counts) —
    never content. *)

(** The branch-direction bits in whichever form the field run shipped
    them: the raw packed log (wire v1–v3, or a v4 raw payload from an
    older writer) or the online-encoded stream (wire v4's native
    payload).  Consumers that
    only need the bits should go through {!reader}/{!read_next} and stay
    representation-agnostic. *)
type payload = Raw of Branch_log.log | Encoded of Codec.encoded

type t = {
  program : string;  (** program name, identifies the retained plan *)
  method_used : Methods.t;
  cohort : string option;
      (** adaptive-deployment cohort of the plan that instrumented this
          run; [None] for fleet-wide (non-adaptive) plans *)
  branch_log : payload;
  syscall_log : Syscall_log.log option;
  schedule_log : Schedule_log.log option;
      (** thread-scheduling decisions (§6 multithreading); [None] or empty
          for single-threaded programs *)
  crash : Interp.Crash.t;
  shape : Concolic.Scenario.shape;
  suppression : (int * Staticanalysis.Suppression.rule) list;
      (** probe-elision table the field run applied ([[]] when none);
          replay must reconstruct the elided bits with exactly these
          rules, and must verify them before trusting the log *)
}

(** Branch bits carried by the payload. *)
val nbits : t -> int

(** Log-buffer flushes the field run performed (over the encoded stream
    for an encoded payload). *)
val flushes : t -> int

(** Shipped size of the branch payload in bytes. *)
val payload_bytes : t -> int

(** The exact byte string the wire ships for the branch payload. *)
val payload_data : t -> string

(** The raw packed log, decoding an encoded payload.  Total on any payload
    that came through the wire reader; raises [Invalid_argument] on a
    hand-built invalid encoding. *)
val raw_log : t -> Branch_log.log

(** Streaming bit reader over either payload. *)
type reader

val reader : t -> reader

(** Next bit, or [None] when the log is exhausted. *)
val read_next : reader -> bool option

(** Bits delivered so far. *)
val read_pos : reader -> int

(** Assemble a report from a crashed field run; [None] if the run did not
    crash.  Always ships the encoded stream the probes wrote. *)
val of_field_run :
  sc:Concolic.Scenario.t -> plan:Plan.t -> Field_run.result -> t option

val transfer_bytes : t -> int
val describe : t -> string
