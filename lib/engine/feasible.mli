(** Radius-graph extraction (§3.2.1 of the paper).

    Runs the Definition-1 dynamic program from the initiator over its
    [s]-hop ball ({!Socgraph.Bounded_dist.ball}) and keeps the vertices
    with finite [s]-edge minimum distance, yielding the feasible graph
    [G_F] every query algorithm works on.  Vertices are re-indexed to
    the compact range [0 .. size-1] in increasing original-id order; all
    search code operates on sub-ids and translates back at the boundary.
    Nothing here is sized by the whole graph: a context costs what its
    ball costs.

    Solvers reach it through {!Context}, or call {!extract} directly. *)

type t = {
  sub : Socgraph.Graph.t;   (** induced feasible graph over sub-ids *)
  of_sub : int array;       (** sub-id -> original vertex, increasing *)
  q : int;                  (** the initiator's sub-id *)
  dist : float array;       (** sub-id -> s-edge minimum distance to q *)
  by_dist : int array;
      (** every sub-id but [q], by increasing [(dist, sub-id)]: the one
          distance order the solvers filter, sorted once per extraction *)
}

(** [extract g ~initiator ~s] builds the feasible graph, in time and
    memory that follow the ball's size and degrees, not the vertex count.
    @raise Invalid_argument if [initiator] is out of range or [s < 1]. *)
val extract : Socgraph.Graph.t -> initiator:int -> s:int -> t

val size : t -> int

(** [sub_id fg v] is the sub-id of original vertex [v], or [-1] when [v]
    lies outside the feasible graph (any [v], in range or not) — a
    binary search over [of_sub]. *)
val sub_id : t -> int -> int

(** [adjacent fg u v] is adjacency between sub-ids: a binary search of
    [u]'s row in [sub], O(log deg). *)
val adjacent : t -> int -> int -> bool

(** [total_distance fg subs] sums [dist] over a sub-id list. *)
val total_distance : t -> int list -> float

(** [originals fg subs] maps sub-ids back to sorted original ids. *)
val originals : t -> int list -> int list

(** [slab fg schedules] is the ball's calendars by sub-id, read from
    [schedules] (indexed by original vertex) without copying them.  It
    reads only the ball, so it costs what the ball costs; that all [n]
    calendars share one horizon is
    {!Timetable.Availability.check_schedules}'s job.
    @raise Invalid_argument if a ball member has no schedule or the
    ball's calendars disagree on horizon. *)
val slab : t -> Timetable.Availability.t array -> Timetable.Availability.t array
