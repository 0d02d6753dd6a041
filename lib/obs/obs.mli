(** Process-wide observability.

    Three layers, one entry module:
    - the {b metric registry} ({!Registry}, re-exported flat here):
      interned counters/gauges/histograms, snapshots,
      {!delta} diffing and the table/JSON reporters;
    - {b query-level tracing} ({!Trace}): hierarchical spans across
      domains, stitched trees, Chrome-trace/Perfetto export and the
      pruning-waterfall solver profile;
    - the {b flight recorder plane}: tail-sampled trace retention
      ({!Flightrec}), the structured JSONL event log ({!Events}) and
      the runtime telemetry sampler ({!Runtime});
    - the {b exposition server} ({!Exposition}): Prometheus text-format
      metrics, retained traces, the event tail and the telemetry
      history over stdlib-[Unix] sockets.

    Metrics, tracing and the flight-recorder modules have independent
    switches ({!set_enabled}, {!Trace.set_enabled},
    {!Flightrec.set_enabled}, {!Events.set_enabled}); all are off by
    default and cost one atomic load per record operation while off.
    See docs/OBSERVABILITY.md. *)

include module type of struct
  include Registry
end

module Trace = Trace
module Flightrec = Flightrec
module Events = Events
module Runtime = Runtime
module Exposition = Exposition
