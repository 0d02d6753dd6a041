(** Inexact solvers for instances beyond exact reach.

    SGQ/STGQ are NP-hard; SGSelect/STGSelect are exponential in the worst
    case.  For very large feasible graphs or tight latency budgets a beam
    search trades optimality for a polynomial bound: breadth-first over
    partial groups, it keeps the [width] best per level, scored by their
    distance so far.  It admits a candidate only while the partial group
    satisfies the acquaintance bound (and, temporally, still shares an
    [m]-window), and scans candidates in ascending social distance.  At
    [width = 1] it is the greedy scan: admit the nearest candidate that
    fits, O(f·p) adjacency work per level, and it may fail where a
    solution exists.  A wider beam approaches the optimum; a few dozen is
    usually near-exact.

    Both solvers return constraint-valid solutions only (checked by the
    same monotone feasibility predicates the exact search uses); their
    distance is an upper bound on the optimum — benchmarked against exact
    in the harness's quality table.

    Both accept an optional {!Budget}: polled per pivot slot and beam
    level, a trip ends the scan early and the best answer found so far
    (possibly [None]) is returned — heuristics are best-effort by
    definition, so truncation needs no separate marker. *)

(** [beam_sgq ?width ?ctx instance query] — beam-search SGQ ([width]
    default 32).  [ctx] supplies a pre-built engine context matching
    [instance] and [query.s]. *)
val beam_sgq :
  ?width:int -> ?ctx:Engine.Context.t -> ?budget:Budget.t ->
  Query.instance -> Query.sgq -> Query.sg_solution option

(** [beam_stgq ?width ?ctx ti query] — beam-search STGQ over pivot
    slots; [ctx] as in {!beam_sgq}. *)
val beam_stgq :
  ?width:int -> ?ctx:Engine.Context.t -> ?budget:Budget.t ->
  Query.temporal_instance -> Query.stgq -> Query.stg_solution option
