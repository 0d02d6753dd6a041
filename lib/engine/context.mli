(** Immutable per-instance query context.

    A context bundles everything the branch-and-bound kernel reads that
    depends only on [(graph, initiator, s)] — not on the per-query
    [p]/[k]/[m] knobs: the feasible subgraph with adjacency bitsets and
    hop-bounded distance table ({!Feasible}), the availability slab
    re-indexed by sub-id, and a memoized pivot index per window length.
    Build once, answer many queries.

    Sharing discipline: the structure is immutable except for the pivot
    memo (an [Atomic] grow-only association list, published with a CAS
    retry loop so domains never lose entries) and the {e bits inside}
    the availability slab.  [avail] aliases the caller's schedule
    objects on purpose — mutating a schedule's bitset in place (as
    {!Cache.set_schedule} and [Planner.update_schedule] do) updates
    every cached context at once, so calendar edits never require
    context invalidation.  Contexts may be read from several domains
    concurrently as long as nobody mutates schedules mid-solve. *)

type t = {
  graph : Socgraph.Graph.t;   (** the full social graph *)
  initiator : int;            (** original vertex id of the activity initiator *)
  s : int;                    (** acquaintance radius the context was built for *)
  fg : Feasible.t;            (** feasible subgraph, distances, adjacency bitsets *)
  horizon : int;              (** number of time slots; [0] for social-only contexts *)
  avail : Timetable.Availability.t array;
      (** availability by sub-id; aliases the source schedules *)
  pivot_memo : (int * int list) list Atomic.t;
      (** window length [m] -> pivot slots, filled on demand *)
}

(** [build ?schedules g ~initiator ~s] extracts the feasible graph and
    assembles the context.  Omit [schedules] for a social-only (SGQ)
    context; temporal accessors then raise.
    Only the feasible members' schedules are read, so the build costs
    what the ball costs; that all [n] share one horizon is the
    installer's check ({!Cache.create}).
    @raise Invalid_argument if [initiator] is out of range, [s < 1],
    [schedules] has a length other than the vertex count, or the
    feasible members' schedules disagree on horizon. *)
val build :
  ?schedules:Timetable.Availability.t array ->
  Socgraph.Graph.t ->
  initiator:int ->
  s:int ->
  t

(** Whether the context was built with schedules (STGQ-capable). *)
val has_schedules : t -> bool

(** [pivots t ~m] returns the Lemma-4 pivot slots for window length [m],
    memoized on the context.
    @raise Invalid_argument on a social-only context or [m < 1]. *)
val pivots : t -> m:int -> int list

(** [ensure_for t ~initiator ~s] checks that a caller-supplied context
    matches the query it is about to answer.
    @raise Invalid_argument on mismatch. *)
val ensure_for : t -> initiator:int -> s:int -> unit
