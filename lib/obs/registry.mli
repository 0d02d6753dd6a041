(** Process-wide observability: registry-based counters, gauges and
    log-bucketed latency histograms.

    The paper's evaluation is entirely about *where time goes* — nodes
    expanded, pruning effectiveness, serving-path latency — so the
    engine and search layers publish their internals here instead of
    through ad-hoc per-call records.

    Design rules:
    - {b Registry-based}: metrics are interned by name ({!counter},
      {!gauge}, {!histogram} return the same object for the same name),
      so any module can reference a metric without threading handles.
    - {b Near-zero cost when disabled}: every record operation first
      reads one atomic flag ({!enabled}) and returns immediately when
      instrumentation is off (the default).  Reads ({!Counter.value},
      {!snapshot}, ...) always work.
    - {b Domain-safe}: counters and gauges are sharded per domain and
      merged at read time; histograms use one atomic per bucket.  No
      locks on the record path.

    Metric values observed concurrently with writers are eventually
    consistent: a {!snapshot} taken while worker domains are recording
    may be mid-update, but every completed record is eventually counted
    exactly once. *)

(** {1 Global switch} *)

(** [set_enabled b] turns instrumentation on or off process-wide.
    Disabled is the default; recording while disabled is a no-op. *)
val set_enabled : bool -> unit

(** Current state of the switch. *)
val enabled : unit -> bool

(** Wall-clock time in nanoseconds (the time base of every histogram
    and span in this module). *)
val now_ns : unit -> float

(** {1 Metric kinds} *)

module Counter : sig
  (** A monotone event counter, sharded per domain. *)

  type t

  (** [make name] builds a counter that is {e not} in the registry —
      for local measurement and tests.  Use {!Obs.counter} for the
      interned variant. *)
  val make : string -> t

  val name : t -> string

  (** [add t n] adds [n] (no-op while disabled).  [n] must be >= 0. *)
  val add : t -> int -> unit

  val incr : t -> unit

  (** Sum over every per-domain shard at call time. *)
  val value : t -> int

  (** The raw shard values whose sum is {!value} — exposed so merge
      associativity is testable (any fold order gives the same total). *)
  val shard_values : t -> int array

  val reset : t -> unit
end

module Gauge : sig
  (** A last-write-wins level with a monotone high-water mark. *)

  type t

  (** Unregistered variant; see {!Obs.gauge}. *)
  val make : string -> t

  val name : t -> string

  (** [set t v] records the current level and raises the high-water
      mark to [v] if it exceeds it (no-op while disabled). *)
  val set : t -> int -> unit

  val value : t -> int

  (** Largest value ever {!set} since the last {!reset}. *)
  val high_water : t -> int

  val reset : t -> unit
end

module Histogram : sig
  (** A log-bucketed (powers of two) histogram of non-negative samples:
      durations in nanoseconds, as every reporter labels them.  Quantile
      estimates return the upper bound of the bucket holding the
      requested rank, clamped to the exact observed maximum — so for all
      [q <= q'], [quantile t q <= quantile t q'],
      [quantile t 1. = max_value t], and every recorded sample is
      [<= quantile t 1.]. *)

  type t

  (** Unregistered variant; see {!Obs.histogram}. *)
  val make : string -> t

  val name : t -> string

  (** [observe t v] records [max v 0.] (no-op while disabled). *)
  val observe : t -> float -> unit

  val count : t -> int

  (** Sum of recorded samples (each truncated to whole ns). *)
  val sum : t -> float

  (** Exact maximum recorded sample, 0 if empty. *)
  val max_value : t -> float

  (** [quantile t q] for [q] in [[0, 1]]; 0 if empty.
      @raise Invalid_argument outside [[0, 1]]. *)
  val quantile : t -> float -> float

  val reset : t -> unit
end

(** {1 External sources}

    Sibling modules of the registry (the tracer) register read hooks at
    module-init time so their totals appear in {!snapshot} and their
    buffers are emptied by {!reset}, without a module cycle. *)

(** [register_counter_source f] merges [f ()]'s name/value pairs into
    the [counters] section of every subsequent snapshot. *)
val register_counter_source : (unit -> (string * int) list) -> unit

(** [register_reset_hook f] runs [f ()] at the end of every {!reset}. *)
val register_reset_hook : (unit -> unit) -> unit

(** {1 Registry} *)

(** [counter name] returns the registered counter for [name], creating
    it on first use.
    @raise Invalid_argument if [name] is registered as another kind. *)
val counter : string -> Counter.t

(** [gauge name] — registered {!Gauge.t} for [name].
    @raise Invalid_argument if [name] is registered as another kind. *)
val gauge : string -> Gauge.t

(** [histogram name] — registered {!Histogram.t} for [name].
    @raise Invalid_argument if [name] is registered as another kind. *)
val histogram : string -> Histogram.t

(** Zero every registered metric and empty the span ring.  Metrics stay
    registered; the enabled flag is untouched. *)
val reset : unit -> unit

(** {1 Timing helper} *)

(** [time_hist h f] runs [f ()] and observes the elapsed nanoseconds in
    [h] (whether [f] returns or raises).  When disabled it is exactly
    [f ()] — no clock reads. *)
val time_hist : Histogram.t -> (unit -> 'a) -> 'a

(** {1 Snapshots and reporters} *)

type histogram_summary = {
  h_count : int;
  h_sum_ns : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_max : float;
}

type gauge_reading = {
  g_value : int;
  g_high_water : int;
}

(** A point-in-time read of every registered metric, each section
    sorted by metric name. *)
type snapshot = {
  counters : (string * int) list;
  gauges : (string * gauge_reading) list;
  histograms : (string * histogram_summary) list;
}

val snapshot : unit -> snapshot

(** [delta older newer] — what happened between two snapshots.
    Counters and histogram [h_count]/[h_sum_ns] are subtracted (clamped
    at 0, so metrics that were reset in between read as 0 rather than
    negative); gauges and histogram quantile estimates are taken
    from [newer] as-is (log buckets cannot be re-quantiled after the
    fact).  Used by [stats serve] and the bench replay to report rates
    instead of monotonically-growing totals. *)
val delta : snapshot -> snapshot -> snapshot

(** Human-readable tables (one per non-empty section). *)
val table : snapshot -> string

(** Stable JSON rendering: objects keyed by metric name, keys sorted,
    integers for counts and whole-ns values. *)
val json : snapshot -> string

(** {1 JSON building blocks} — shared with the trace exporters and the
    bench harness so every emitter escapes identically. *)

(** Backslash-escape for double-quoted JSON string contents (adds no
    surrounding quotes). *)
val json_escape : string -> string

(** [json_object kvs] renders [{"k": v, ...}]; keys are escaped, values
    are spliced verbatim (pre-rendered JSON). *)
val json_object : (string * string) list -> string
