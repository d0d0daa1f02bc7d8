(** Report triage: streaming ingestion service over salvage, dedup and
    budgeted replay.

    The developer-side ingestion tier for report streams (ROADMAP:
    "heavy traffic from millions of users").  Reports — many duplicates
    of one bug, many torn mid-flush — are ingested leniently ({!Ingest},
    backed by [Wire.deserialize_salvage]), clustered by crash-site
    fingerprint ({!Fingerprint}, {!Cluster}), replayed one
    representative per cluster under escalating budgets ({!Sched}), and
    rendered as a deterministic summary ({!Summary}).  The one entry point
    is the long-running {!Service}; a one-shot batch opens a service sized
    to the batch, submits, drains and closes it. *)

module Fingerprint = Fingerprint
module Ingest = Ingest
module Cluster = Cluster
module Sched = Sched
module Summary = Summary
module Window = Window
module Index = Index
module Service = Service

type resolve = Sched.resolve
