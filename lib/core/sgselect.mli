(** Algorithm SGSelect (§3.2): optimal Social Group Query processing.

    Builds (or reuses) an engine context, then explores groups by access
    ordering with distance and acquaintance pruning; guaranteed to
    return a group of minimum total social distance satisfying all SGQ
    constraints (Theorem 2, with the Lemma-3 correction of DESIGN.md). *)

type report = {
  solution : Query.sg_solution option;
      (** the carried answer ([= Anytime.solution outcome]) *)
  outcome : Query.sg_solution Anytime.outcome;
      (** exact, anytime-truncated, or exhausted (see {!Anytime}); always
          [Optimal] without a budget *)
  stats : Search_core.stats;
  feasible_size : int;  (** |V_F| after radius extraction *)
}

(** [solve ?config ?ctx instance query] is the optimal group, or [None]
    when no group of [query.p] attendees satisfies the constraints.
    [ctx] supplies a pre-built engine context (e.g. from
    {!Engine.Cache}); it must have been built from [instance] with
    [query.s].
    @raise Invalid_argument if [ctx]'s initiator or [s] differs. *)
val solve :
  ?config:Search_core.config -> ?ctx:Engine.Context.t ->
  Query.instance -> Query.sgq -> Query.sg_solution option

(** [solve_report ?config ?ctx ?budget instance query] also exposes
    search-effort counters for the experiment harness.  [budget] bounds
    the solve cooperatively; on a trip the report's [outcome] carries
    the anytime answer instead of raising (see {!Anytime}). *)
val solve_report :
  ?config:Search_core.config -> ?ctx:Engine.Context.t -> ?budget:Budget.t ->
  Query.instance -> Query.sgq -> report
