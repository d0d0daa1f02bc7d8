(** Streaming triage service: long-running ingestion, incremental
    clustering, eager budgeted replay, restart-safe crash buckets.

    A fleet does not crash in batches, so a {!t} is a long-lived handle:
    reports are {!submit}ted as they arrive, buffered in a bounded
    ingest queue, clustered incrementally ({!Cluster.builder}) on every
    {!tick}, appended to a persistent fingerprint index ({!Index}) so
    buckets survive restarts, observed by sliding-window analytics
    ({!Window}), and — while the queue is shallow — replayed eagerly, a
    ladder rung or two at a time ({!Sched.course_step}), so answers are
    already in hand when the operator finally {!drain}s.  A one-shot
    batch (the CLI's [triage] command) uses the same handle once: open it
    with a queue sized to the batch, {!submit_item} every report,
    {!drain}, {!close}.

    {b Determinism.}  The summary a {!drain} renders is byte-identical
    (in the [~timing:false] form) for the same accepted report set
    whatever its arrival order, wherever the ticks fall, and across a
    {!close} and a re-{!open_} over the same index: clustering is
    insertion-order independent, per-cluster replay seeds derive from
    (policy seed, fingerprint), and splitting a ladder climb across
    ticks does not change its outcome (see {!Sched.course_step}).
    Overload shedding is the one sanctioned divergence — and it is
    itself deterministic for a given submission sequence, because
    {!Sample} draws from an {!Osmodel.Rng} seeded by the policy seed.

    {b Backpressure.}  The ingest queue holds at most
    [config.queue_capacity] parsed reports.  A submission that finds it
    full is resolved by [config.drop]: rejected outright
    ({!Reject_new}), admitted by evicting the oldest queued report
    ({!Drop_oldest}), or admitted with probability [p] — evicting the
    oldest — and shed otherwise ({!Sample}).  Every shed report is
    counted ([triage.service.dropped]) and visible in {!snapshot};
    nothing is ever silently lost. *)

type drop_policy =
  | Reject_new  (** a full queue refuses new submissions *)
  | Drop_oldest  (** a full queue evicts its oldest unprocessed report *)
  | Sample of float
      (** admit with probability [p] (evicting the oldest), shed with
          probability [1 - p]; seeded, so deterministic per stream *)

type config = {
  policy : Sched.policy;  (** replay policy; its [seed] also seeds {!Sample} *)
  queue_capacity : int;  (** parsed reports buffered between ticks *)
  drop : drop_policy;
  burst : int;  (** reports clustered per {!tick} *)
  window : int;  (** sliding analytics ring size *)
  window_k : int;  (** top-K crashers per cohort *)
  eager : bool;
      (** climb replay ladders during ticks, queue pressure permitting
          ({!Sched.rungs_for_pressure}); off = replay only at drain *)
  wall_rungs : bool;
      (** [false] (the default): ladder rungs are {e run-bounded} — each
          rung's wall-clock limit is stripped at open, so a borderline
          cluster's reproduced-vs-timed_out verdict depends only on its
          replay-run budget, never on a shared core being slow during an
          eager tick.  [true] restores the wall-clock ladder and bounds
          each climb by [policy.deadline_s] (the CLI's one-shot
          batches opt in, keeping --deadline/--timeout in seconds). *)
  index_dir : string option;  (** persistent index directory, if any *)
  index_shards : int;  (** shard count for a {e fresh} index *)
}

(** {!Sched.default_policy}, capacity 256, {!Reject_new}, burst 32,
    window 256, k 5, eager, run-bounded rungs, no index (shards 16 when
    one is given). *)
val default_config : config

type t

type outcome =
  | Queued  (** accepted (under {!Drop_oldest}/{!Sample} possibly by
                evicting an older queued report) *)
  | Dropped of string  (** shed by the overload policy; human reason *)
  | Rejected of Instrument.Wire.error
      (** unparseable even by salvage, or an unknown wire version *)

(** Open a service.  When [config.index_dir] names an existing index,
    every record is reloaded — in (shard, record) order — through the
    normal clustering path, so buckets, representative election, salvage
    flags and window analytics are rebuilt exactly as the previous
    incarnation left them.  A torn index tail (a kill mid-append) is cut
    off and counted in [triage.index.truncated_bytes]; any other index
    damage fails the reload closed.  [resolve] is consulted lazily, once
    per cluster, and must depend only on the representative's report (it
    may be handed a provisional one-member cluster during eager
    replay). *)
val open_ :
  ?config:config ->
  ?telemetry:Telemetry.t ->
  resolve:Sched.resolve ->
  unit ->
  (t, Index.error) result

(** Submit one report as wire text ([path] is its provenance label).
    Parsing (one wire read, salvaging damage) happens at submission;
    only parseable reports occupy queue slots. *)
val submit : t -> path:string -> string -> outcome

(** Submit an already-ingested item (e.g. from {!Ingest.load_dir}). *)
val submit_item : t -> Ingest.item -> outcome

(** Read and submit one report file ({!Ingest.of_file}). *)
val submit_file : t -> string -> outcome

(** Submit one result of an ingest made elsewhere, such as an entry of
    {!Ingest.poll}: an item as {!submit_item} does, a rejection counted
    as a {!submit} that fails to parse is.  An item withdraws every
    earlier rejection of its path from the rejected list and from the
    [submitted] and [rejected] counts: a scanner offers a rejected name
    again once the file changes, so a report scanned mid-write counts
    only as accepted once it lands intact. *)
val submit_ingested : t -> (Ingest.item, Ingest.rejected) result -> outcome

(** Process up to [config.burst] queued reports — cluster, index,
    window-observe — then, when [config.eager] and pressure allows,
    climb the first unfinished replay course by the allotted rungs.
    Returns the number of reports processed. *)
val tick : t -> int

(** Current queue depth and depth ÷ capacity. *)
val queue_depth : t -> int

val pressure : t -> float

type snapshot = {
  submitted : int;  (** every submission, whatever its outcome *)
  rejected : int;  (** unparseable submissions *)
  dropped : int;  (** shed by the overload policy (incl. evictions) *)
  queued : int;  (** parsed reports awaiting a tick *)
  capacity : int;
  processed : int;  (** clustered reports (incl. reloaded from the index) *)
  clusters : int;
  replayed : int;  (** clusters whose replay course already finished *)
  dedup_ratio : float;  (** clusters ÷ processed; 1.0 when empty *)
  window : Window.stats;
}

(** Instantaneous service state; no wall-clock fields, so two services
    fed the same stream snapshot identically. *)
val snapshot : t -> snapshot

(** Strict JSON rendering of a snapshot. *)
val snapshot_to_json : snapshot -> string

(** Flush the queue completely (no burst bound), finish every cluster's
    replay course on the policy's worker pool under a fresh
    [policy.deadline_s] window, and render the batch-compatible summary.
    [rejected] adds rejections that never went through {!submit} (e.g.
    the ones {!Ingest.load_dir} returned).  The service stays open: later
    submissions extend the same buckets, and a later drain re-renders
    (re-emitting per-cluster status counters for every cluster). *)
val drain : ?rejected:Ingest.rejected list -> t -> Summary.t

(** Per-cluster replay results as of now, in fingerprint order: sticky
    resolve failures, plus every cluster whose course has been opened
    (all of them, once {!drain} has run).  Read-only — never starts
    work.  This is the adaptive loop's feed: per-cohort case counters
    ([log_exhausted], contradictions) and statuses, with the full
    {!Cluster.t} attached so the caller can key on
    [fp.Fingerprint.cohort]. *)
val cluster_results : t -> Sched.cluster_result list

(** Close the persistent index (if any).  Further submissions raise;
    draining a closed service is allowed (it no longer persists). *)
val close : t -> unit
