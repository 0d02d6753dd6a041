(** Query and solution records for SGQ and STGQ (§3.1 and §4.1).

    A group always contains the initiator; [p] counts her in.  Distances
    are the [s]-edge minimum distances of Definition 1. *)

(** SGQ(p, s, k): activity size, social radius, acquaintance bound. *)
type sgq = {
  p : int;  (** number of attendees, initiator included; [>= 1] *)
  s : int;  (** max edges on the distance-defining path; [>= 1] *)
  k : int;  (** max unacquainted other attendees per attendee; [>= 0] *)
}

(** STGQ(p, s, k, m) adds the activity length in slots. *)
type stgq = {
  p : int;
  s : int;
  k : int;
  m : int;  (** consecutive slots the whole group must share; [>= 1] *)
}

(** A social instance: who asks, over which network. *)
type instance = {
  graph : Socgraph.Graph.t;
  initiator : int;
}

(** A social-temporal instance adds one availability per vertex
    (all over the same horizon). *)
type temporal_instance = {
  social : instance;
  schedules : Timetable.Availability.t array;
}

type sg_solution = {
  attendees : int list;    (** sorted, includes the initiator *)
  total_distance : float;
}

type stg_solution = {
  st_attendees : int list;
  st_total_distance : float;
  start_slot : int;  (** activity occupies [start_slot .. start_slot+m-1] *)
}

(** [check_sgq q] and [check_stgq q] raise [Invalid_argument] on
    out-of-range parameters. *)
val check_sgq : sgq -> unit

val check_stgq : stgq -> unit

(** [check_instance i] validates the initiator id. *)
val check_instance : instance -> unit

(** [check_temporal_instance ti] additionally requires one schedule per
    vertex, all with equal horizons
    ({!Timetable.Availability.check_schedules}). *)
val check_temporal_instance : temporal_instance -> unit

(** [sg_context ?ctx instance ~s] is the context an SGQ solver answers
    from: [ctx], checked against [instance]'s initiator and [s], or a
    fresh one built from [instance].
    @raise Invalid_argument on a context built for another query, an
    out-of-range initiator or [s < 1]. *)
val sg_context : ?ctx:Engine.Context.t -> instance -> s:int -> Engine.Context.t

(** [stg_context ?ctx ti ~s] is what every temporal solver starts from:
    {!sg_context}'s context and the ball's calendars read from [ti]
    ({!Engine.Feasible.slab}).  A build first checks the whole instance
    ({!check_temporal_instance}); a supplied context was checked when it
    was made, so only its ball's calendars are read.
    @raise Invalid_argument as {!sg_context}, or on calendars that fail
    those checks. *)
val stg_context :
  ?ctx:Engine.Context.t -> temporal_instance -> s:int ->
  Engine.Context.t * Timetable.Availability.t array

(** [sgq_of_stgq q] drops the temporal dimension. *)
val sgq_of_stgq : stgq -> sgq

val pp_sg_solution : Format.formatter -> sg_solution -> unit
val pp_stg_solution : m:int -> Format.formatter -> stg_solution -> unit
