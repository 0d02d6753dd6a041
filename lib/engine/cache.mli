(** Keyed {!Context} cache with an O(1) LRU — thread-safe, with
    single-flight builds.

    Radius-graph extraction is the shared prefix of every query an
    initiator poses, so the cache memoises full contexts per
    [(initiator, s)].  Recency is an intrusive doubly-linked list —
    lookup, touch and eviction are all O(1) (the seed service re-filtered
    an order list on every access).

    Concurrency: every operation is safe to call from any domain or
    systhread (the wire server answers each connection on its own
    thread).  Builds are
    {e single-flight}: two concurrent misses on the same key run one
    {!Context.build}; the second caller sleeps until the first publishes
    and then takes the shared context (counted by
    [engine.cache.coalesced] and the [coalesced] stat — the waiter's
    find still counts as a hit, so [hits + misses = lookups]).  The
    build itself runs outside the cache lock, so a slow extraction never
    blocks hits on other keys.

    Mutation model: social-graph swaps ({!set_graph}) drop cached
    contexts — every one by default, or, given the delta's [?touched]
    vertices, exactly the contexts whose feasible set meets them (a
    graph edit on edge [{u,v}] can only change a context in which [u]
    or [v] is itself within [s] hops of the initiator).  Calendar edits
    ({!set_schedule}) rewrite the installed schedule's bitset in place,
    which every cached context aliases, so they need no invalidation at
    all.  Both edits wait for in-flight {!with_solves} regions to drain,
    so an edit lands only {e between} solves — a solver that brackets
    its work in {!with_solves} never observes a half-applied calendar.
    Every mutation bumps the cache {!epoch}, so recovery replay can
    assert exactly how many edits landed. *)

type t

type stats = {
  hits : int;
  misses : int;
  coalesced : int;  (** lookups that slept on another caller's build *)
  evictions : int;
  entries : int;
}

(** [create ?capacity ?schedules graph] — [capacity] (default 64) bounds
    the number of live contexts.  The [schedules] array is adopted, not
    copied: pass copies if the caller retains mutable access.  Omit it
    for a social-only (SGQ) cache.  This is where all [n] schedules are
    checked to share one horizon, once: {!set_schedule} keeps that
    invariant edit by edit, so {!Context.build} reads only its ball.
    @raise Invalid_argument if [capacity < 1], or [schedules] has a
    length other than the vertex count or disagrees on horizon. *)
val create :
  ?capacity:int ->
  ?schedules:Timetable.Availability.t array ->
  Socgraph.Graph.t ->
  t

(** The graph contexts are currently built from. *)
val graph : t -> Socgraph.Graph.t

(** Mutation epoch: starts at [0], incremented by every {!set_graph} and
    {!set_schedule}.  WAL replay bumps it once per replayed delta, which
    the recovery differential gate asserts. *)
val epoch : t -> int

(** The outcome of one lookup: the context, and whether it came from
    the table ([hit = false] means this caller built it).  A lookup that
    slept on another caller's in-flight build counts as a hit, matching
    {!stats}. *)
type lookup = { ctx : Context.t; hit : bool }

(** [lookup t ~initiator ~s] returns the cached context for the key,
    building (and possibly evicting the least-recently-used entry)
    on a miss.  Concurrent misses on the same key coalesce onto one
    build. *)
val lookup : t -> initiator:int -> s:int -> lookup

(** [context t ~initiator ~s] is [(lookup t ~initiator ~s).ctx]. *)
val context : t -> initiator:int -> s:int -> Context.t

(** [with_solves t f] runs [f] inside a {e solve region}: {!set_graph}
    and {!set_schedule} block until every open region finishes, so
    answers computed (and certified) inside the region observe one
    consistent graph and schedule snapshot.  Regions are shared — any
    number may be open at once — and writer-preferring: while an edit
    waits for open regions to drain, new regions wait for the edit, so
    overlapping regions cannot starve edits.  The region is released
    when [f] returns or raises.  A region must not nest another region
    or a mutation call: either would wait on an edit that waits on the
    region itself. *)
val with_solves : t -> (unit -> 'a) -> 'a

(** Cumulative cache behaviour. *)
val stats : t -> stats

(** Drop every cached context (counters are kept). *)
val clear : t -> unit

(** [set_graph ?touched t g] swaps the social graph (same vertex count
    required) and invalidates: without [touched], every cached context
    is dropped; with [touched] — the vertices the delta's edges are
    incident to — only contexts whose feasible set contains a touched
    vertex are dropped, which is precise (see the module preamble).
    Waits for open {!with_solves} regions to drain. *)
val set_graph : ?touched:int list -> t -> Socgraph.Graph.t -> unit

(** [set_schedule t ~vertex schedule] rewrites one calendar in place
    (same horizon required); cached contexts see the change immediately.
    Waits for open {!with_solves} regions to drain, so the rewrite never
    interleaves with a solve.
    @raise Invalid_argument on a social-only cache, an out-of-range
    vertex, or a horizon mismatch. *)
val set_schedule : t -> vertex:int -> Timetable.Availability.t -> unit
