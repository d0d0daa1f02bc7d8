(** Seeded crash-report load generator: a fleet of crashing clients.

    The streaming triage service ({!Triage.Service} — not a dependency
    of this library) ingests crash reports "from millions of users"; this
    module simulates that fleet deterministically.  A handful of genuine
    crash reports are recorded once — the coreutils demo bugs plus
    µServer request-stream crashes ({!Userver.experiments}, the clients'
    traffic shape coming from {!Http_gen}-style request streams) — and a
    seeded stream of [n] reports is synthesized over them: duplicates
    dominate (the WER premise), each report is attributed to one of
    [clients] simulated clients, and a seeded fraction arrives torn
    mid-branch-log, exactly as a crashing process tearing its own log
    buffer would leave it.  Same (seed, clients, torn_pct, n) — same
    byte-identical stream. *)

type t

(** [make ~config ()] prepares the generator lazily; nothing is analyzed
    or run until first use.  [quick] records 3 bases instead of 6. *)
val make : ?quick:bool -> config:Bugrepro.Pipeline.Config.t -> unit -> t

(** The (program, method) bases backing the stream, in recording order.
    Program names are wire-form names ("mkdir", "userver-exp1", ...). *)
val bases : t -> (string * Instrument.Methods.t) list

(** A report's (program, method) resolved through {!Catalog.find} to its
    analyzed program and the {!Catalog.plan} for that method, memoized
    under the generator's config; callers wrap this into a
    {!Triage.Sched.resolve}. *)
val plan_for :
  t ->
  program:string ->
  meth:Instrument.Methods.t ->
  (Minic.Program.t * Instrument.Plan.t, string) result

type report = {
  client : int;  (** simulated client id in [0, clients) *)
  path : string;  (** synthetic provenance, e.g. "client-0007/r00042.report" *)
  wire : string;  (** wire text; torn mid-hex when [torn] *)
  torn : bool;
}

(** [stream t ~seed ~clients ~torn_pct n] synthesizes [n] reports.
    Records the base crashes on first call (the expensive step: one
    analysis + field run per base); every subsequent call reuses them. *)
val stream :
  t -> seed:int -> clients:int -> torn_pct:float -> int -> report list

(** [tear rng wire] cuts a wire text inside the tail of its branch
    payload (97–99% of the hex, seeded): strictly malformed, always
    salvageable — the shape a crashing process tearing its own log
    buffer leaves.  [cut_pct] (clamped to 1..99) pins the cut depth as a
    fraction instead.  [lost_hex] (takes precedence) drops an {e
    absolute} tail of that many hex chars — the realistic model: a
    crashing process loses its fixed-size unflushed buffer tail whatever
    the instrumentation density, so a denser log loses a {e shorter}
    execution suffix.  Exposed for fleet simulations that tear their own
    streams (the adaptive deployment loop). *)
val tear : ?cut_pct:int -> ?lost_hex:int -> Osmodel.Rng.t -> string -> string

(** Resolve a program name with {!Catalog.find} to its analyzed program,
    the plan compiled for [meth] and a {e fresh} crash scenario of the
    experiment that name denotes (the entry's first one when the name
    denotes none).  The adaptive deployment loop's entry point: it re-runs
    a cohort's field workload under successively refined plans, so the
    requested method need not be the one the base was recorded with.
    Memoized like {!plan_for}. *)
val crash_base :
  t ->
  program:string ->
  meth:Instrument.Methods.t ->
  (Minic.Program.t * Instrument.Plan.t * Concolic.Scenario.t, string) result
