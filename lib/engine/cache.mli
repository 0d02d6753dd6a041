(** Keyed {!Context} cache with an O(1) LRU, safe to share between
    threads and domains.

    Radius-graph extraction is the shared prefix of every query an
    initiator poses, so the cache memoises full contexts per
    [(initiator, s)].  Recency is an intrusive doubly-linked list —
    lookup, touch and eviction are all O(1) (the seed service re-filtered
    an order list on every access).

    Concurrency: every operation is safe to call from any domain or
    systhread (the wire server answers each connection on its own
    thread).  One mutex guards the table, regions and edits, and a miss
    releases it while its {!Context.build} runs: a build's cost grows
    with the initiator's s-hop ball, and the wire does not bound s, so
    a cold key holds up no other lookup or {!with_solves} region (an
    edit still waits for the region the build runs in).  Concurrent
    misses on one key may each build it; the first to finish caches
    its context, and every lookup counts as one hit or one miss, so
    [hits + misses = lookups].

    Mutation model: a social-graph swap ({!set_graph}) drops every
    cached context, and a build that read the old graph answers its
    own caller but is not cached.  Calendar edits ({!set_schedule})
    rewrite the installed schedule's bitset in place, which every
    cached context aliases, so they need no invalidation at all.  Both
    edits wait for in-flight
    {!with_solves} regions to drain, so an edit lands only {e between}
    solves — a solver that brackets its work in {!with_solves} never
    observes a half-applied calendar.  Every mutation bumps the cache
    {!epoch}. *)

type t

type stats = {
  hits : int;
  misses : int;
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
    {!set_schedule}, and mirrored in the [engine.cache.epoch] gauge. *)
val epoch : t -> int

(** The outcome of one lookup: the context, and whether it came from
    the table ([hit = false] means this caller built it), matching
    {!stats}. *)
type lookup = { ctx : Context.t; hit : bool }

(** [lookup t ~initiator ~s] returns the cached context for the key.  On
    a miss it builds the context outside the cache lock and then caches
    it (possibly evicting the least-recently-used entry), unless
    another miss cached the key first or {!set_graph} swapped the graph
    meanwhile.  A build that raises counts its miss and caches nothing.
    Inside a {!with_solves} region no swap can land, so the context
    always matches {!graph}; a caller outside any region may be handed
    a context of the graph that a concurrent {!set_graph} replaced. *)
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

(** [set_graph t g] swaps the social graph (same vertex count required)
    and drops every cached context (counters are kept).  Waits for open
    {!with_solves} regions to drain.
    @raise Invalid_argument if the vertex count differs. *)
val set_graph : t -> Socgraph.Graph.t -> unit

(** [set_schedule t ~vertex schedule] rewrites one calendar in place
    (same horizon required); cached contexts see the change immediately.
    Waits for open {!with_solves} regions to drain, so the rewrite never
    interleaves with a solve.
    @raise Invalid_argument on a social-only cache, an out-of-range
    vertex, or a horizon mismatch. *)
val set_schedule : t -> vertex:int -> Timetable.Availability.t -> unit
