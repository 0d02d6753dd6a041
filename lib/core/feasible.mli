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

(** [context_of_instance instance ~s] builds a social-only engine
    context (validating the instance first). *)
val context_of_instance : Query.instance -> s:int -> Engine.Context.t

(** [context_of_temporal ti ~s] builds an STGQ-capable engine context
    whose availability slab aliases [ti.schedules]. *)
val context_of_temporal : Query.temporal_instance -> s:int -> Engine.Context.t
