(** Crash-report fingerprints for duplicate clustering.

    A fingerprint is the identity under which reports are deduplicated:
    the crash site (kind, location, function — the paper's notion of bug
    identity), the instrumentation method, and a cheap sketch of the
    branch bitvector — a hash of the log's byte prefix plus a quantized
    bit-count histogram — so that the same bug reached along visibly
    different paths keeps distinct clusters while byte-identical and
    near-identical logs collapse into one.  WER-style bucketing: the
    sketch is heuristic, but it only controls *which* reports share a
    replay — every cluster is still replayed against its own recorded
    crash site. *)

type t = {
  program : string;
  cohort : string option;
      (** adaptive-deployment cohort, when the report's plan carried one:
          part of the identity, so each cluster belongs to exactly one
          cohort and refinement decisions never mix fleets *)
  crash_key : string;  (** canonical [kind@file:line:col#func] *)
  method_code : string;
  log_bucket : int;  (** bit length of [nbits + 1]: order-of-magnitude *)
  prefix_hash : int;  (** hash of the first 32 log bytes *)
  histogram : int array;  (** 8 chunks of the bit range, popcount / 8 each *)
}

val of_report : Instrument.Report.t -> t

(** The canonical [kind@file:line:col#func] key of a crash site: the
    [crash_key] field of {!of_report}, without sketching the log. *)
val crash_key : Interp.Crash.t -> string

(** Stable string form; equal fingerprints have equal keys, and keys sort
    deterministically (used as the cluster ordering everywhere). *)
val key : t -> string

val equal : t -> t -> bool
