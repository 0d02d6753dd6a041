(** The paper's comparison baselines (§5.2).

    - SGQ baseline: enumerate all [C(f-1, p-1)] candidate groups and keep
      the qualified one with minimum total social distance.
    - STGQ baseline: scan every activity period of [m] slots and solve the
      corresponding SGQ independently (the "intuitive approach" of §4).

    [stgq_per_slot] solves each period with SGSelect — isolating the value
    of the temporal strategies; [stgq_brute] uses the brute-force SGQ per
    period and is the fully naive test oracle.

    All baselines are {e total}: exceeding [max_groups] or a {!Budget}
    trip ends the run and is reported in the report's typed
    {!Anytime.outcome} — never an exception.  The group cap is reported
    as {!Budget.Node_limit} (one "node" = one examined group). *)

type sg_report = {
  solution : Query.sg_solution option;
      (** the carried answer ([= Anytime.solution outcome]) *)
  outcome : Query.sg_solution Anytime.outcome;
      (** [Optimal] iff the enumeration ran to completion *)
  groups_examined : int;
  feasible_size : int;
}

(** [sgq_brute ?max_groups ?budget instance query] enumerates candidate
    groups; the cap and the budget both truncate into [outcome]. *)
val sgq_brute :
  ?max_groups:int -> ?budget:Budget.t -> Query.instance -> Query.sgq -> sg_report

type stg_report = {
  st_solution : Query.stg_solution option;
  st_outcome : Query.stg_solution Anytime.outcome;
  windows_scanned : int;  (** windows examined before completion or trip *)
  groups_examined : int;  (** total across windows; [stgq_brute] only *)
}

(** [stgq_per_slot ?budget ti query] — one SGSelect run per
    activity period, as the paper's STGQ baseline. *)
val stgq_per_slot :
  ?budget:Budget.t ->
  Query.temporal_instance -> Query.stgq -> stg_report

(** [stgq_brute ?max_groups ?budget ti query] — brute-force SGQ per
    period; the ground-truth oracle for STGSelect property tests.
    [max_groups] caps cumulatively across periods. *)
val stgq_brute :
  ?max_groups:int -> ?budget:Budget.t ->
  Query.temporal_instance -> Query.stgq -> stg_report
