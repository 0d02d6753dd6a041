(** Query-level tracing: hierarchical spans across domains.

    Aggregate metrics ({!Registry}) say {e how much}; spans say {e which
    query} and {e which phase inside one solve}.  Every span carries a
    trace id, its own span id, its parent's span id, a phase name,
    start/duration in wall-clock ns and a key/value attr list.  Spans
    are recorded into per-domain lock-free ring buffers and stitched
    into trees at read time, so the record path never takes a lock.

    Cross-domain propagation is explicit: capture {!current} where work
    is submitted, install it with {!with_ctx} where the work runs
    ([Engine.Pool.submit] does this automatically), and a pooled
    parallel solve yields one tree spanning all worker domains.

    Tracing has its own switch, independent of the metric registry's:
    when disabled, every record operation reads one atomic flag and
    returns — no clock reads, no allocation. *)

(** {1 Switch} *)

val set_enabled : bool -> unit

val enabled : unit -> bool

(** {1 Spans} *)

(** Propagation context: the identity of an open span, safe to send to
    another domain. *)
type ctx = {
  trace_id : int;  (** id of the root span of this trace *)
  span_id : int;
}

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;  (** 0 = root *)
  sp_name : string;
  sp_domain : int;  (** domain id that recorded the span *)
  sp_start_ns : float;
  sp_dur_ns : float;
  sp_attrs : (string * string) list;
}

(** [with_span name f] runs [f ()] inside a new span: a child of the
    innermost open span on this domain, or the root of a fresh trace.
    The span is recorded (return or raise) with the elapsed time and
    any attrs ([?attrs] plus {!add_attrs} calls made inside). *)
val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** The innermost open span on the calling domain, if tracing is on. *)
val current : unit -> ctx option

(** [with_ctx c f] runs [f ()] with [c] installed as the parent for
    spans opened inside — the receiving half of cross-domain
    propagation.  [with_ctx None f] is exactly [f ()]. *)
val with_ctx : ctx option -> (unit -> 'a) -> 'a

(** [add_attrs kvs] appends attrs to the innermost open span (no-op if
    none, or while disabled). *)
val add_attrs : (string * string) list -> unit

(** {1 Reading} *)

(** Buffered span capacity across all per-domain rings; the oldest
    spans of a busy domain are overwritten first (counted in
    [obs.trace.dropped]). *)
val capacity : int

(** Every buffered span, oldest first. *)
val spans : unit -> span list

(** Spans recorded since the last reset, including overwritten ones. *)
val total_recorded : unit -> int

(** Spans lost to ring overwrite since the last reset. *)
val dropped : unit -> int

(** Empty every buffer and zero the totals (also runs on
    [Registry.reset]).  The enabled flag is untouched. *)
val reset : unit -> unit

(** {1 Stitching} *)

type tree = {
  t_span : span;
  t_children : tree list;  (** by start time *)
}

(** [trees spans] stitches a span list into a forest, roots oldest
    first.  A span whose parent is absent (dropped, or still open)
    becomes a root. *)
val trees : span list -> tree list

(** The newest-rooted buffered trace, if any. *)
val last : unit -> tree option

(** {1 Exporters} *)

(** Chrome trace-event JSON, loadable by Perfetto
    ({:https://ui.perfetto.dev}) and chrome://tracing: one complete
    event per span, one process per trace id, one thread per domain;
    span/parent ids and attrs ride in [args]. *)
val chrome_json : span list -> string

(** One stitched trace as nested JSON (the [/trace/last] wire format). *)
val tree_json : tree -> string

(** Human tree rendering, one span per line with duration, domain and
    attrs. *)
val render : tree -> string

(** {1 Pruning waterfall}

    The per-query solver profile, folded out of the search-stat attrs
    [Instr.record_search] attaches to solve spans.  The kernel
    maintains an exact accounting identity over {e examined}
    candidates — see {!waterfall_balanced}. *)

type waterfall = {
  w_solves : int;
  w_nodes : int;
  w_examined : int;  (** candidates considered by the expansion loop *)
  w_included : int;
  w_deferred : int;  (** skipped this relaxation round, re-examined later *)
  w_removed_exterior : int;
  w_removed_interior : int;
  w_removed_temporal : int;
  w_pruned_distance : int;
  w_pruned_acquaintance : int;
  w_pruned_availability : int;
  w_self_ns : (string * float) list;
      (** per-phase self time (span duration minus child durations),
          aggregated by span name, largest first *)
  w_budget_trip : (string * string) option;
      (** (trip reason, checkpoint node count) when a budget tripped *)
}

val waterfall : tree -> waterfall

(** [w_examined = w_included + w_removed_* + w_deferred] — every
    examined candidate is accounted for exactly once. *)
val waterfall_balanced : waterfall -> bool

val render_waterfall : waterfall -> string
