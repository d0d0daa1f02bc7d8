(** Unified telemetry: spans, counters/histograms, pluggable sinks.

    One handle ({!t}) threads through the whole analyze -> plan ->
    field_run -> reproduce pipeline; each stage opens {!Span.with_} spans,
    bumps {!Metrics} counters at run granularity and publishes final
    totals.  {!disabled} (the default everywhere) short-circuits every
    operation on a single field load, so instrumentation stays in the code
    unconditionally — the same bounded-observation-cost discipline the
    paper applies to the branch log itself.  See DESIGN.md §5d. *)

type t = Core.t

(** The shared no-op handle (the default of every [?telemetry] argument). *)
let disabled = Core.disabled

(** An enabled handle over [sink] (default {!Sink.null}: counters
    accumulate, span events are discarded). *)
let create = Core.create

let enabled = Core.enabled

(** Seconds since the handle was created (the trace's time origin). *)
let now = Core.now

(** Flush the handle's sink (does not publish counters — see
    {!Metrics.publish}). *)
let flush = Core.flush

module Event = Event
module Sink = Sink
module Span = Span
module Metrics = Metrics
module Counters = Counters
module Trace = Trace
module Json = Json
