(** Independent solution checking.

    Validators recompute every constraint from the raw instance — they
    share no code with the solvers, so a solver bug cannot hide behind a
    checker bug.  Tests run every solver output through these.

    Distances are recomputed over the initiator's s-hop ball only: a
    breadth-first search bounded to [s] hops, then the synchronous
    Definition-1 DP on arrays indexed by ball position.  A check costs
    what the ball costs, whatever the size of the graph. *)

type violation =
  | Wrong_size of { expected : int; got : int }
  | Missing_initiator
  | Duplicate_attendee of int
  | Unknown_vertex of int
  | Radius_violation of int       (** attendee beyond s edges of q *)
  | Acquaintance_violation of { vertex : int; non_neighbors : int }
  | Distance_mismatch of { reported : float; actual : float }
  | Window_out_of_range
  | Availability_violation of { vertex : int; slot : int }

val pp_violation : Format.formatter -> violation -> unit

(** [check_sg instance query solution] is the (possibly empty) list of
    violated SGQ constraints. *)
val check_sg : Query.instance -> Query.sgq -> Query.sg_solution -> violation list

(** [check_stg ti query solution] additionally checks the availability
    constraint over the reported window. *)
val check_stg :
  Query.temporal_instance -> Query.stgq -> Query.stg_solution -> violation list

(** [is_valid_sg] / [is_valid_stg] — empty-violation shorthands. *)
val is_valid_sg : Query.instance -> Query.sgq -> Query.sg_solution -> bool

val is_valid_stg :
  Query.temporal_instance -> Query.stgq -> Query.stg_solution -> bool

(** Raised by the [certify_*] gates when a solver answer fails
    re-checking — a solver bug surfacing, never user error.  A printer
    is registered, so an escaped exception still names the violations. *)
exception Certificate_failure of violation list

(** [certify_sg instance query solution] passes a valid (or absent)
    solution through unchanged and raises {!Certificate_failure}
    otherwise.  Answer-serving layers ({!Service}, {!Auto},
    {!Stgarrange}) route every solver result through these, so no
    uncertified answer can reach a caller; the [stgq-lint]
    [uncertified-solver] rule checks the routing statically. *)
val certify_sg :
  Query.instance -> Query.sgq -> Query.sg_solution option ->
  Query.sg_solution option

val certify_stg :
  Query.temporal_instance -> Query.stgq -> Query.stg_solution option ->
  Query.stg_solution option
