(** Structured JSONL event log.

    One record per completed query (trace id, kind, initiator, params,
    rung, outcome, gap, trip reason, retries, latency, cache hit,
    journalled bytes) plus server-lifecycle, shedding, pool-respawn and
    store-checkpoint records.  Records always land in a fixed-size
    in-memory ring (served by [/events/tail?n=]); with {!configure}d
    directory they are also appended to [events.jsonl] with size-capped
    rotation (fsync → rename to [events-NNNNNN.jsonl] → dir fsync, the
    lib/store durability discipline), and each record is fsynced before
    {!emit} returns.  Totals surface as
    [obs.events.{emitted,dropped,rotations}]; per-record fsync latency
    as the [obs.events.fsync_ns] histogram. *)

(** {1 Switch and sink} *)

val set_enabled : bool -> unit

val enabled : unit -> bool

(** [configure ?dir ?max_bytes ?generations ()] enables the log.
    Without [dir] records stay in-memory only.  [max_bytes] (default
    1 MiB) caps the active file before rotation; [generations]
    (default 4) caps how many rotated files are kept. *)
val configure :
  ?dir:string ->
  ?max_bytes:int ->
  ?generations:int ->
  unit ->
  unit

(** Flush and close the sink, disable the log. *)
val stop : unit -> unit

(** {1 Emitting} *)

(** [emit ~kind fields] appends one record; [fields] values are
    pre-rendered JSON ([Registry.json_object] convention).  [ts_ns] and
    [event] (= [kind]) fields are prepended.  No-op while disabled;
    sink write failures never raise (the ring still holds the
    record). *)
val emit : kind:string -> (string * string) list -> unit

(** The per-query record ([event = "query"]).  [params] are
    name/value pairs such as [("s", 2); ("k", 5)]. *)
val query_completed :
  trace_id:int ->
  kind:string ->
  initiator:int ->
  params:(string * int) list ->
  rung:string ->
  outcome:string ->
  ?gap:float ->
  ?trip:string ->
  retries:int ->
  latency_ns:float ->
  cache_hit:bool ->
  journalled_bytes:int ->
  unit ->
  unit

(** {1 Reading} *)

(** [tail n] — the most recent [n] records, oldest first, each a full
    JSONL line (trailing newline included). *)
val tail : int -> string list

val emitted : unit -> int

val dropped : unit -> int

(** Completed sink rotations. *)
val rotations : unit -> int

(** Empty the ring and zero the totals (also runs on
    [Registry.reset]).  The sink and enabled flag are untouched. *)
val reset : unit -> unit
