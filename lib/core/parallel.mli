(** Multicore STGSelect: pivot time slots fanned out across domains.

    The paper observes (§5.2) that CPLEX exploits its 8 cores while
    SGSelect/STGSelect are single-threaded; pivot slots are embarrassingly
    parallel, so this extension closes that gap.  Each task owns a full
    search state over a disjoint pivot subset (round-robin, so busy
    regions spread out); the engine context is shared read-only.  The
    incumbent bound is not shared across tasks — each explores slightly
    more than the sequential run, the classic work-vs-parallelism trade
    measured by ablation A6.

    Buckets run on a persistent {!Engine.Pool} (the process-wide default
    pool unless one is passed), so repeated queries reuse warm domains
    instead of paying spawn/join per call. *)

type report = {
  solution : Query.stg_solution option;
      (** the carried answer ([= Anytime.solution outcome]) *)
  outcome : Query.stg_solution Anytime.outcome;
      (** merged across buckets: [Optimal] only when every bucket ran to
          completion; otherwise the best answer any bucket delivered,
          with reason and gap (see {!Anytime}) *)
  domains_used : int;
  total_nodes : int;  (** summed across domains *)
}

(** [solve ?config ?domains ?pool ?ctx ?budget ti query] — the bucket
    count defaults to the pool's size (itself defaulting to
    [Domain.recommended_domain_count ()]), capped by the pivot count;
    [domains] overrides it.  [ctx] supplies a pre-built engine context
    (see {!Stgselect.solve}).  Result ties are broken by (distance,
    start slot, attendees), making the outcome deterministic and equal
    in distance to {!Stgselect}.

    One [budget] is shared by every bucket: node charges aggregate
    across domains and the first trip (deadline, node limit, or
    {!Budget.cancel}) latches for all of them, so a cancelled batch
    cannot strand its in-flight sibling buckets. *)
val solve :
  ?config:Search_core.config -> ?domains:int -> ?pool:Engine.Pool.t ->
  ?ctx:Engine.Context.t -> ?budget:Budget.t ->
  Query.temporal_instance -> Query.stgq -> Query.stg_solution option

val solve_report :
  ?config:Search_core.config -> ?domains:int -> ?pool:Engine.Pool.t ->
  ?ctx:Engine.Context.t -> ?budget:Budget.t ->
  Query.temporal_instance -> Query.stgq -> report
