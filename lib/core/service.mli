(** A multi-initiator query service — the deployment the paper closes
    with ("we are now implementing the proposed algorithms in Facebook",
    §6).

    Any member of the dataset may pose queries.  Context construction
    (radius extraction) is the shared prefix of every query an initiator
    poses, so the service memoises {!Engine.Context}s per
    [(initiator, s)] in {!Engine.Cache}'s O(1) LRU.  A miss builds its
    context outside the cache lock, so a cold key, whose build grows
    with its s-hop ball, holds up no other request and no edit.

    With an {!Engine.Pool} attached, each request runs whole, as one job
    on one pool domain: world read, lookups, the ladder, certification
    and publication.  Every rung solves with the sequential kernel
    ({!Sgselect}, {!Stgselect}), so a pooled service answers exactly as
    a pool-less one does, and concurrent requests use one domain each.
    The caller blocks until its job is done.  Without a pool, a request
    runs inline on the caller.  A pooled service must not be called from
    a job running on its own pool: that awaits a future of the pool from
    one of its workers, which {!Engine.Pool} forbids (it can deadlock
    once every worker waits).

    The served graph and calendars are one immutable
    {!Engine.Cache.world}.  Two query functions share one request path:
    an SGQ or an STGQ, each answered through the {!Resilience} ladder and
    certified on every rung.  A request reads the world once, on entry,
    and answers wholly against it, so an edit ({!update_graph},
    {!update_schedule}) publishes the next world without waiting for
    requests in flight: a request sees the state before or after an
    edit, never a mixture, and its certificate checks the state its
    solve read.  A calendar edit keeps every cached context; a graph
    edit drops them all. *)

type t

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

(** [create ?config ?cache_capacity ?pool ti] serves a copy of [ti]'s
    graph and calendars — [cache_capacity] (default 64) bounds the
    number of cached contexts; [pool] (default: none, every request runs
    on its caller) runs each request whole on one of its domains.  The
    instance's [initiator] field is never read, so it is not checked:
    every query names its own initiator.
    @raise Invalid_argument if [cache_capacity < 1], or [ti.schedules]
    has a length other than the vertex count or disagrees on horizon
    (the checks of {!Engine.Cache.create}). *)
val create :
  ?config:Search_core.config -> ?cache_capacity:int -> ?pool:Engine.Pool.t ->
  Query.temporal_instance -> t

(** [sgq_r ?policy ?cancel t ~initiator query] answers an SGQ for any
    member through the {!Resilience} degradation ladder: exact within
    the policy's budget (the default policy's is unlimited, so the answer
    is the exact optimum), else the best anytime incumbent with its gap
    bound, else a budgeted beam heuristic, else a typed error — never a
    hang or a raw exception.  Context construction and certification run
    inside the retried closures, so transient faults at either are
    retried.  Every returned value (any rung) carries a validated
    certificate: it was re-checked against the raw instance by
    {!Validate} before being returned; a failed re-check (a solver bug
    surfacing) is {!Resilience.Unavailable}.

    With a pool, the request is one job on a pool domain.  The policy's
    deadline counts from this call, so the time the job waits in the
    pool's queue spends the first attempt's budget (retries start
    fresh).  The wait is recorded in [service.queue_wait_ns] and as the
    [queue_wait_us] attribute of the [service.sgq] span, and it counts
    in the request's latency ([service.sgq.latency_ns], and the latency
    reported to {!Obs.Flightrec} and {!Obs.Events}).
    @raise Invalid_argument on a malformed query or an initiator outside
    [0 .. n_vertices t - 1], before any context is looked up.
    @raise Engine.Pool.Pool_closed if the service's pool was shut down. *)
val sgq_r :
  ?policy:Resilience.policy -> ?cancel:bool Atomic.t ->
  t -> initiator:int -> Query.sgq ->
  (Query.sg_solution Resilience.answer, Resilience.error) result

(** [stgq_r ?policy ?cancel t ~initiator query] — the temporal analogue
    of {!sgq_r}.  The exact rung always runs {!Stgselect}; with a pool,
    the whole request runs on one pool domain, as for {!sgq_r}.
    {!Parallel}'s pivot buckets are not on this path. *)
val stgq_r :
  ?policy:Resilience.policy -> ?cancel:bool Atomic.t ->
  t -> initiator:int -> Query.stgq ->
  (Query.stg_solution Resilience.answer, Resilience.error) result

(** [cache_stats t] — cumulative context-cache behaviour. *)
val cache_stats : t -> cache_stats

(** [n_vertices t] — members in the served social graph.  Valid
    initiator and calendar-edit vertex ids are [0 .. n_vertices t - 1];
    the wire server uses this to reject an out-of-range calendar edit
    before it reaches the journal. *)
val n_vertices : t -> int

(** [horizon t] — slot horizon shared by every served calendar (the
    horizon a {!update_schedule} replacement must match). *)
val horizon : t -> int

(** [graph t] — the social graph currently served (immutable). *)
val graph : t -> Socgraph.Graph.t

(** [schedules t] — a deep copy of the calendars of the world currently
    served, indexed by vertex.  This is what a durable checkpoint
    snapshots; the copy is the caller's to mutate. *)
val schedules : t -> Timetable.Availability.t array

(** [update_graph t graph] publishes a world with the new social graph
    (same vertex count required) and drops every cached context
    ({!Engine.Cache.set_graph}).  Requests already in flight answer
    against the old graph; it waits for none of them.
    @raise Invalid_argument if the vertex count differs. *)
val update_graph : t -> Socgraph.Graph.t -> unit

(** [update_schedule t ~vertex schedule] publishes a world whose
    calendar of [vertex] is a copy of [schedule] (same horizon
    required); cached contexts are kept ({!Engine.Cache.set_schedule}).
    Requests already in flight answer against the old calendar; it
    waits for none of them.
    @raise Invalid_argument on an out-of-range vertex or a horizon
    mismatch. *)
val update_schedule : t -> vertex:int -> Timetable.Availability.t -> unit
