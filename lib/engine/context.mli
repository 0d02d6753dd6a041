(** Immutable per-instance query context.

    A context bundles everything the branch-and-bound kernel reads that
    the social graph determines for [(initiator, s)] — not the per-query
    [p]/[k]/[m] knobs, and no calendar: the feasible subgraph as CSR
    rows, its hop-bounded distance table and distance order
    ({!Feasible}).
    Build once, answer many SGQs and STGQs.

    A temporal solver reads the ball's calendars from its own instance
    ({!Feasible.slab}), so a context stays valid while calendars change
    and needs no invalidation on a calendar edit.  The served graph
    never changes, so nothing else makes a context stale.  The record
    is never mutated, so any number of domains may read one context at
    once. *)

type t = {
  initiator : int;            (** original vertex id of the activity initiator *)
  s : int;                    (** acquaintance radius the context was built for *)
  fg : Feasible.t;  (** feasible subgraph, distances, distance order *)
}

(** [build g ~initiator ~s] extracts the feasible graph and assembles
    the context, in time and memory that follow the ball, not [n].
    @raise Invalid_argument if [initiator] is out of range or [s < 1]. *)
val build : Socgraph.Graph.t -> initiator:int -> s:int -> t

(** [ensure_for t ~initiator ~s] checks that a caller-supplied context
    matches the query it is about to answer.
    @raise Invalid_argument on mismatch. *)
val ensure_for : t -> initiator:int -> s:int -> unit
