(** The binary wire-protocol query server (docs/PROTOCOL.md).

    A stdlib-Unix accept loop that speaks {!Proto} frames and routes
    every request through an existing {!Service}, so per-request
    deadlines, the {!Resilience} degradation ladder, certification and
    {!Obs.Trace} spans all apply to wire queries exactly as they do to
    in-process calls — answers are bit-identical by construction.

    Concurrency model: one background accept domain ({!start}), one
    systhread per connection.  Connection threads do the I/O, admission
    and calendar edits on the accept domain.  With a pooled {!Service}
    (as [stgq serve] builds it) each query runs whole on one pool
    domain, and its connection thread waits on the job's future with
    the runtime lock released; so queries from different connections
    solve in parallel, one domain each.  A calendar edit journals (and
    fsyncs) on its connection thread, never on a pool domain.  A
    handler counts itself out when its connection closes, so the
    listener keeps nothing per closed connection; the
    [server.connections.open] gauge counts the live ones.

    Admission control: a single in-flight counter over all work
    requests (queries and calendar edits).  When [admission_limit]
    requests are already admitted — each query is at most one queued or
    running pool job — new work is shed immediately with a typed
    {!Proto.Overloaded} response carrying the observed depth: the
    connection stays open, and the shed request is never queued.  Sheds
    are counted in [server.sheds]; peak concurrency is the high-water
    mark of the [server.inflight] gauge.

    Calendar edits never wait for queries: {!Service} answers each
    query against the world it read on entry, and an edit publishes the
    next world at once.  A query in flight answers the calendars it
    started with; the next query sees the edit. *)

open Stgq_core

type addr = Tcp of string * int | Unix_path of string

type config = {
  admission_limit : int;
      (** max admitted work requests, queued for a pool domain or
          running *)
  policy : Resilience.policy option;
      (** default solve policy when a request carries none; wire
          policies override its deadline/node-limit/degrade fields *)
  on_admitted : (Proto.request -> unit) option;
      (** test hook, run while the admission slot is held and before
          the solve starts — lets a test pin a request in flight
          deterministically *)
  store : Store.t option;
      (** durable state: when set, every calendar edit is validated,
          journalled to the store's WAL, and only then applied in
          memory — the [Updated] ack means the edit survives a crash.
          Journal + apply run under one mutex so log order equals apply
          order, and the same critical section checkpoints (snapshot +
          WAL truncate) whenever the log outgrows the store's
          threshold. *)
}

(** [admission_limit = 64], no default policy, no hook, no store. *)
val default_config : config

type t

val create : ?config:config -> Service.t -> t

(** [serve t addr] binds, listens and accepts on the calling thread
    until accepting fails (the listening socket is closed or errors).
    It waits for every live handler thread and closes the listener
    before returning. *)
val serve : t -> addr -> unit

(** {1 Background serving} — used by tests, the bench harness and
    anything else that needs the server and clients in one process. *)

type handle

(** [start t addr] binds and spawns the accept loop on a fresh domain.
    [Tcp (host, 0)] binds an ephemeral port; read it back with
    {!bound_addr}. *)
val start : t -> addr -> handle

(** The address actually bound (ephemeral port resolved). *)
val bound_addr : handle -> addr

(** [stop h] closes the listener, shuts down live connections, waits
    for every handler thread to finish and joins the accept domain.  A
    connection accepted meanwhile is closed at once.  Idempotent; the
    server does not serve again. *)
val stop : handle -> unit
