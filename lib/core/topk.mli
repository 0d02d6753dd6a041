(** Top-N group queries — a natural extension of SGQ/STGQ.

    Instead of the single optimum, return the [n] distinct qualified
    groups of smallest total social distance (an initiator can then pick
    by taste among near-optimal groups, e.g. preferring a morning slot).
    Runs the same pruned branch-and-bound as SGSelect/STGSelect with a
    bounded-heap sink: once [n] groups are held, the search is bounded by
    the worst kept distance, so the overhead over single-best is small.

    The returned list is sorted by ascending distance.  The multiset of
    returned distances is exact (the [n] smallest achievable); when
    several groups tie at the admission threshold, which of the tied
    groups are reported is unspecified. *)

type entry = {
  attendees : int list;     (** sorted original vertex ids, includes q *)
  total_distance : float;
  start_slot : int option;  (** [Some] for STGQ entries *)
}

(** [sgq ?budget ~n instance query] — up to [n] best SGQ groups.
    Under a {!Budget} that trips, the list is best-effort: every entry
    is a valid group, but the n-smallest claim no longer holds. *)
val sgq :
  ?budget:Budget.t -> n:int ->
  Query.instance -> Query.sgq -> entry list

(** [stgq ?budget ~n ti query] — up to [n] best STGQ groups,
    each with the earliest feasible start of the pivot where it was
    first found.  A group feasible in several periods appears once.
    [budget] as in {!sgq}. *)
val stgq :
  ?budget:Budget.t -> n:int ->
  Query.temporal_instance -> Query.stgq -> entry list
