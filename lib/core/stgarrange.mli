(** STGArrange (§5.1): the smallest acquaintance bound beating a target.

    Starting from [k = 0], runs STGSelect with increasing [k] until a
    solution exists whose total social distance is no worse than the
    target (PCArrange's, in the paper's comparison).  The returned [k] is
    the quality measure plotted in Fig. 1(g). *)

type result = {
  k_used : int;
  solution : Query.stg_solution;
}

(** [run ti ~p ~s ~m ~target_distance] — [None] when no [k <= p - 1]
    (beyond which the constraint is vacuous) admits a solution at most
    [target_distance]. *)
val run :
  Query.temporal_instance -> p:int -> s:int -> m:int -> target_distance:float ->
  result option

(** [versus_pcarrange ti ~p ~s ~m] runs PCArrange, then STGArrange
    against its distance — one point of Fig. 1(g)/(h).  [None] when
    PCArrange itself finds no group. *)
val versus_pcarrange :
  Query.temporal_instance -> p:int -> s:int -> m:int ->
  (result * Pcarrange.result) option
