(** Incremental STGQ maintenance under calendar churn.

    Real schedules change constantly; re-running STGSelect from scratch
    on every calendar edit wastes the pivot decomposition (Lemma 4): a
    changed slot can only affect the pivots whose interval contains it.
    A planner caches the per-pivot optimum and, on a schedule update,
    recomputes exactly the dirtied pivots.

    Social-graph changes are out of scope — rebuild the planner (the
    feasible graph and every pivot would be dirty anyway). *)

type t

type update_stats = {
  pivots_total : int;
  pivots_recomputed : int;  (** by the last [update_schedule] *)
}

(** [create ti query] solves every pivot and caches the results.
    The planner takes its own copy of the schedule array; later edits go
    through {!update_schedule}. *)
val create : Query.temporal_instance -> Query.stgq -> t

(** [solution t] is the current global optimum — always equal to a fresh
    [Stgselect.solve] on the planner's current schedules. *)
val solution : t -> Query.stg_solution option

(** [update_schedule t ~vertex schedule] replaces one person's calendar
    (same horizon required) and refreshes the dirtied pivots. *)
val update_schedule : t -> vertex:int -> Timetable.Availability.t -> update_stats

(** [schedules t] — the planner's current view (copies). *)
val schedules : t -> Timetable.Availability.t array
