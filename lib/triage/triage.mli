(** Report triage: streaming ingestion service over salvage, dedup and
    budgeted replay.

    The developer-side ingestion tier for crash-report streams.  See
    DESIGN.md §5f and §5i: {!Ingest} accepts strict or salvaged reports,
    {!Fingerprint}/{!Cluster} deduplicate them WER-style, {!Sched}
    replays one representative per cluster under an escalating-budget
    ladder, and {!Summary} renders the outcome deterministically in text
    and strict JSON.

    The one entry point is {!Service}: a long-running handle that
    ingests reports as they arrive through a bounded backpressured
    queue, clusters them incrementally, persists crash buckets across
    restarts ({!Index}), tracks sliding-window fleet analytics
    ({!Window}) and replays eagerly while ingestion is quiet.

    {b Determinism model.}  For the same accepted report {e set} and the
    same policy seed, a service renders byte-identical summaries in the
    timing-stripped form ([Summary.to_json ~timing:false]) whatever the
    arrival order, wherever its ticks and eager rung climbs fall, and
    across a restart over its persistent index: clustering and
    representative election are insertion-order independent, the index
    reloads every record through the same clustering path, per-cluster
    replay seeds derive from (seed, fingerprint), and pausing/resuming a
    replay ladder between ticks does not change its outcome.  Overload
    shedding ({!Service.drop_policy}) is the one way two submission
    sequences may diverge — deliberately, boundedly, and itself
    deterministically for a given sequence (the {!Service.Sample} policy
    draws from a seeded {!Osmodel.Rng}).  A one-shot batch is a service
    sized to the batch, opened, filled, drained and closed. *)

module Fingerprint = Fingerprint
module Ingest = Ingest
module Cluster = Cluster
module Sched = Sched
module Summary = Summary
module Window = Window
module Index = Index
module Service = Service

type resolve = Sched.resolve
