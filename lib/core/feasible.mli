(** Radius-graph extraction (§3.2.1) — query-typed facade over
    {!Engine.Feasible}.

    The extraction itself lives in the engine layer; this module adapts
    it to the [Query] record types and adds the {!Engine.Context}
    constructors solvers route through.  The type equation below keeps
    the record fields usable from both sides. *)

type t = Engine.Feasible.t = {
  sub : Socgraph.Graph.t;   (** induced feasible graph over sub-ids *)
  of_sub : int array;       (** sub-id -> original vertex, increasing *)
  q : int;                  (** the initiator's sub-id *)
  dist : float array;       (** sub-id -> s-edge minimum distance to q *)
  nbr : Bitset.t array;     (** sub-id -> neighbour bitset in [sub] *)
  by_dist : int array;
      (** every sub-id but [q], by increasing [(dist, sub-id)]: the one
          distance order the solvers filter, sorted once per extraction *)
}

(** [extract instance ~s] builds the feasible graph. *)
val extract : Query.instance -> s:int -> t

val size : t -> int

(** [sub_id fg v] is the sub-id of original vertex [v], or [-1] outside
    the feasible graph (see {!Engine.Feasible.sub_id}). *)
val sub_id : t -> int -> int

(** [adjacent fg u v] is adjacency between sub-ids, O(1) via bitsets. *)
val adjacent : t -> int -> int -> bool

(** [total_distance fg subs] sums [dist] over a sub-id list. *)
val total_distance : t -> int list -> float

(** [originals fg subs] maps sub-ids back to sorted original ids. *)
val originals : t -> int list -> int list

(** [slab fg schedules] is the ball's calendars by sub-id (see
    {!Engine.Feasible.slab}).
    @raise Invalid_argument if a ball member has no schedule or the
    ball's calendars disagree on horizon. *)
val slab : t -> Timetable.Availability.t array -> Timetable.Availability.t array

(** [context_of_instance instance ~s] builds a social-only engine
    context (validating the instance first). *)
val context_of_instance : Query.instance -> s:int -> Engine.Context.t

(** [context_of_temporal ti ~s] builds the same context as
    {!context_of_instance}, after checking the whole temporal instance:
    one schedule per vertex, all on one horizon. *)
val context_of_temporal : Query.temporal_instance -> s:int -> Engine.Context.t

(** [temporal ?ctx ti ~s] is what every temporal solver starts from: a
    context — [ctx], checked against [ti]'s initiator and [s], or a fresh
    one from {!context_of_temporal} — and the ball's calendars read from
    [ti] ({!slab}).  A supplied context was checked when it was made,
    so only its ball's calendars are read.
    @raise Invalid_argument on a context built for another query, or
    calendars that fail {!slab}'s checks. *)
val temporal :
  ?ctx:Engine.Context.t -> Query.temporal_instance -> s:int ->
  Engine.Context.t * Timetable.Availability.t array
