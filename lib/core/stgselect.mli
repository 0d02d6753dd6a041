(** Algorithm STGSelect (§4.2): optimal Social-Temporal Group Query
    processing.

    Explores only pivot time slots (Lemma 4); per pivot it runs the
    SGSelect search extended with the temporal-extensibility condition and
    availability pruning (Lemma 5).  The incumbent is carried across
    pivots, which only strengthens distance pruning. *)

type report = {
  solution : Query.stg_solution option;
      (** the carried answer ([= Anytime.solution outcome]) *)
  outcome : Query.stg_solution Anytime.outcome;
      (** exact, anytime-truncated, or exhausted (see {!Anytime}); always
          [Optimal] without a budget *)
  stats : Search_core.stats;
  feasible_size : int;
  pivots_scanned : int;
}

(** [solve ?config ?ctx instance query] is the optimal group and
    earliest start slot of a shared [query.m]-slot window, or [None].
    [ctx] supplies a pre-built engine context (see {!Sgselect.solve});
    it must be STGQ-capable (built with schedules). *)
val solve :
  ?config:Search_core.config -> ?ctx:Engine.Context.t -> ?initial_bound:float ->
  Query.temporal_instance -> Query.stgq -> Query.stg_solution option

(** [initial_bound] seeds distance pruning before the first incumbent —
    callers that only care about solutions at most some target distance
    (STGArrange) pass that target, which sharply cuts searches at
    too-small [k].  The returned solution can still exceed the bound and
    must be re-checked.  [budget] bounds the solve cooperatively; on a
    trip the report's [outcome] carries the anytime answer instead of
    raising (see {!Anytime}). *)
val solve_report :
  ?config:Search_core.config -> ?ctx:Engine.Context.t -> ?initial_bound:float ->
  ?budget:Budget.t ->
  Query.temporal_instance -> Query.stgq -> report

(** [convert_outcome fg found] lifts a kernel-level outcome into solution
    space (shared with {!Parallel} and {!Planner}, which merge per-bucket
    and per-pivot results at the [found] level first).  A found group
    missing its window start is an internal invariant violation: it is
    logged and dropped, degrading a [Feasible_best] to [Exhausted]. *)
val convert_outcome :
  Engine.Feasible.t -> Search_core.found Anytime.outcome ->
  Query.stg_solution Anytime.outcome
