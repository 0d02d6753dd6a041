(** Adaptive solver selection — the "value-added service" wrapper (§6).

    A deployment answering queries for arbitrary users cannot hand every
    request to an exponential exact search: a celebrity initiator with a
    radius-3 egocentric network makes SGSelect's worst case astronomical.
    This module estimates instance hardness from the feasible-graph size
    and picks:

    - [Exact]: SGSelect/STGSelect, when the candidate-group count
      [C(f-1, p-1)] is within [budget] — the answer is provably optimal;
    - [Beam]: the beam-search heuristic otherwise — polynomial, valid,
      possibly suboptimal.

    The returned plan records the decision so callers can report answer
    quality honestly. *)

type choice = Exact | Beam

type plan = {
  choice : choice;
  feasible_size : int;
  log10_groups : float;  (** log10 of C(f-1, p-1) *)
}

(** [plan_sgq ?budget instance query] decides without solving.  [budget]
    (default [1e8]) bounds the acceptable candidate-group count for the
    exact search. *)
val plan_sgq : ?budget:float -> Query.instance -> Query.sgq -> plan

(** [sgq ?budget ?beam_width instance query] plans, solves accordingly.
    Exact or heuristic, the answer is re-checked by {!Validate} before
    being returned ([@raise Validate.Certificate_failure] on a failed
    re-check — a solver bug surfacing). *)
val sgq :
  ?budget:float -> ?beam_width:int -> Query.instance -> Query.sgq ->
  Query.sg_solution option * plan

(** [stgq ?budget ?beam_width ti query] — the temporal analogue; the
    group-count estimate is per pivot. *)
val stgq :
  ?budget:float -> ?beam_width:int -> Query.temporal_instance -> Query.stgq ->
  Query.stg_solution option * plan
