(** The solution-certificate audit (rule [uncertified-solver]).

    The search code is pruning-heavy branch-and-bound: a wrong answer
    looks exactly like a right one unless it is re-checked against the
    raw instance.  The runtime side of that contract is {!Validate};
    this pass is the static side: in every scanned compilation unit,
    each top-level binding that calls a solver entry point (the solve
    functions of [Sgselect], [Stgselect], [Parallel], [Heuristics],
    [Topk], [Baseline] and [Ip_model]) must
    be able to reach a [Validate.check_*] / [is_valid_*] / [certify_*]
    call through the unit's own call graph (a flat approximation over
    the Parsetree: binding → referenced binding).  Producer units —
    the solver modules themselves and [validate.ml] — are exempt. *)

(** Entry-point paths audited, e.g. ["Stgselect.solve"]. *)
val solver_entry_points : string list

val check : Rules.ctx -> Parsetree.structure -> Diag.finding list
