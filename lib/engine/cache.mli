(** Keyed {!Context} cache with an O(1) LRU, and the served world it
    builds contexts from; safe to share between threads and domains.

    Radius-graph extraction is the shared prefix of every query an
    initiator poses, so the cache memoises full contexts per
    [(initiator, s)].  Recency is an intrusive doubly-linked list —
    lookup, touch and eviction are all O(1).

    The served state is a {!world}: the social graph, the calendars and
    an epoch, published as one immutable value.  The graph never
    changes; a calendar edit builds the next world and publishes it, and
    nothing ever writes a calendar or a calendar array that a world
    holds.  A reader that takes {!world} once therefore sees one
    consistent calendar state for as long as it holds it, and no edit
    waits for a reader.

    Concurrency: every operation is safe to call from any domain or
    systhread (the wire server answers each connection on its own
    thread).  One mutex guards the table and the publication of a new
    world, so two edits cannot lose one another.  A miss releases it
    while its {!Context.build} runs: a build's cost grows with the
    initiator's s-hop ball, and the wire does not bound s, so a cold
    key holds up no other lookup and no edit.  Concurrent misses on
    one key may each build it; the first to finish caches its context,
    and every lookup counts as one hit or one miss, so
    [hits + misses = lookups].

    Contexts hold only what the graph determines, so a calendar edit
    ({!set_schedule}) keeps every cached context. *)

type t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

(** One published state.  Never mutated: an edit publishes a new one. *)
type world = {
  graph : Socgraph.Graph.t;
  schedules : Timetable.Availability.t array;
      (** by vertex; [[||]] for a social-only cache *)
  epoch : int;  (** [0] at {!create}, one more per edit *)
}

(** [create ?capacity ?schedules graph] — [capacity] (default 64) bounds
    the number of live contexts.  The [schedules] array and its
    calendars are adopted, not copied, and must not be written
    afterwards: pass copies if the caller keeps mutable access.  Omit it
    for a social-only (SGQ) cache.  This is where all [n] schedules are
    checked to share one horizon, once: {!set_schedule} keeps that
    invariant edit by edit, so a solver reads only its ball.
    @raise Invalid_argument if [capacity < 1], or [schedules] has a
    length other than the vertex count or disagrees on horizon. *)
val create :
  ?capacity:int ->
  ?schedules:Timetable.Availability.t array ->
  Socgraph.Graph.t ->
  t

(** The world currently published: one atomic read, no lock. *)
val world : t -> world

(** [(world t).graph]. *)
val graph : t -> Socgraph.Graph.t

(** [(world t).epoch], mirrored in the [engine.cache.epoch] gauge. *)
val epoch : t -> int

(** The outcome of one lookup: the context, and whether it came from
    the table ([hit = false] means this caller built it), matching
    {!stats}. *)
type lookup = { ctx : Context.t; hit : bool }

(** [lookup t world ~initiator ~s] returns the context of the key for
    [world]'s graph, which the caller read with {!world}.  On a miss it
    builds the context outside the cache lock and then caches it
    (possibly evicting the least-recently-used entry), unless another
    miss cached the key first.  A build that raises counts its miss and
    caches nothing. *)
val lookup : t -> world -> initiator:int -> s:int -> lookup

(** [context t ~initiator ~s] is [(lookup t (world t) ~initiator ~s).ctx]. *)
val context : t -> initiator:int -> s:int -> Context.t

(** Cumulative cache behaviour. *)
val stats : t -> stats

(** [set_schedule t ~vertex schedule] publishes a world whose calendar
    of [vertex] is a copy of [schedule] (same horizon required): the
    calendar array is copied and one entry replaced, O(n) pointers,
    under the cache mutex, so lookups wait for that copy.  Cached
    contexts are kept, and a world read before the edit keeps the old
    calendar.  Waits for no reader.
    @raise Invalid_argument on a social-only cache, an out-of-range
    vertex, or a horizon mismatch. *)
val set_schedule : t -> vertex:int -> Timetable.Availability.t -> unit
