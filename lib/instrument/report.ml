(** The bug report shipped from the user site to the developer.

    Deliberately excludes program input: it carries only the branch
    direction bits, optional system-call results, the crash site (the
    WER-style "where it died" datum) and the input *shape* (argument count
    and buffer capacities, stream counts) — never content. *)

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

let nbits t =
  match t.branch_log with
  | Raw l -> l.Branch_log.nbits
  | Encoded e -> e.Codec.nbits

let flushes t =
  match t.branch_log with
  | Raw l -> l.Branch_log.flushes
  | Encoded e -> e.Codec.flushes

(** Shipped size of the branch payload in bytes. *)
let payload_bytes t =
  match t.branch_log with
  | Raw l -> Branch_log.size_bytes l
  | Encoded e -> Codec.size_bytes e

(** The exact byte string the wire ships for the branch payload. *)
let payload_data t =
  match t.branch_log with
  | Raw l -> l.Branch_log.bytes
  | Encoded e -> e.Codec.data

(** The raw packed log, decoding an encoded payload.  Total on any payload
    that came through the wire reader (which validates the token stream);
    raises [Invalid_argument] on a hand-built invalid encoding. *)
let raw_log t =
  match t.branch_log with
  | Raw l -> l
  | Encoded e -> (
      match Codec.decode e with
      | Ok l -> l
      | Error m -> invalid_arg ("Report.raw_log: " ^ m))

(** Streaming bit reader over either payload: replay and fingerprinting
    consume bits in order without materializing the decoded log. *)
type reader = Raw_reader of Branch_log.Reader.t | Enc_reader of Codec.Reader.t

let reader t =
  match t.branch_log with
  | Raw l -> Raw_reader (Branch_log.Reader.create l)
  | Encoded e -> Enc_reader (Codec.Reader.create e)

let read_next = function
  | Raw_reader r -> Branch_log.Reader.next r
  | Enc_reader r -> Codec.Reader.next r

let read_pos = function
  | Raw_reader r -> Branch_log.Reader.pos r
  | Enc_reader r -> Codec.Reader.pos r

(** Assemble a report from a crashed field run.  Returns [None] if the run
    did not crash (nothing to report).  Ships the encoded stream the
    probes wrote. *)
let of_field_run ~(sc : Concolic.Scenario.t) ~(plan : Plan.t)
    (r : Field_run.result) : t option =
  match r.outcome with
  | Interp.Crash.Crash crash ->
      Some
        {
          program = sc.name;
          method_used = plan.meth;
          cohort = plan.Plan.cohort;
          branch_log = Encoded r.encoded_log;
          syscall_log = r.syscall_log;
          schedule_log = r.schedule_log;
          crash;
          shape = Concolic.Scenario.shape_of sc;
          suppression = Plan.suppression_table plan;
        }
  | Interp.Crash.Exit _ | Interp.Crash.Budget_exhausted | Interp.Crash.Aborted _ ->
      None

let transfer_bytes t =
  payload_bytes t
  + (match t.syscall_log with Some l -> Syscall_log.size_bytes l | None -> 0)
  + match t.schedule_log with Some l -> Schedule_log.size_bytes l | None -> 0

let describe t =
  let sched =
    match t.schedule_log with
    | Some l when Schedule_log.length l > 0 ->
        Printf.sprintf ", %d schedule entries" (Schedule_log.length l)
    | _ -> ""
  in
  Printf.sprintf "%s: %s [%s; %d branch bits, %d syscall entries%s]" t.program
    (Interp.Crash.to_string t.crash)
    (Methods.to_string t.method_used)
    (nbits t)
    (match t.syscall_log with Some l -> Syscall_log.length l | None -> 0)
    sched
