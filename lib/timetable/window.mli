(** Pivot time slots (Lemma 4) and activity-window search.

    The paper indexes slots from 1 and declares slot [i·m] a pivot.  With
    our 0-indexed slots a pivot is any [t] with [(t + 1) mod m = 0].  Every
    window of [m] consecutive slots contains exactly one pivot, and every
    window containing pivot [t] lies inside the interval
    [[t - m + 1, t + m - 1]] — so scanning pivots covers all windows
    exactly once. *)

(** [pivots ~horizon ~m] lists the 0-indexed pivot slots for activity
    length [m] within [0 .. horizon-1], in increasing order.
    @raise Invalid_argument if [m <= 0]. *)
val pivots : horizon:int -> m:int -> int list

(** [interval ~horizon ~m pivot] is the inclusive slot interval
    [(max 0 (pivot-m+1), min (horizon-1) (pivot+m-1))] that any feasible
    window through [pivot] must occupy. *)
val interval : horizon:int -> m:int -> int -> int * int

(** [pivot_of ~m start] is the unique pivot inside the window
    [start .. start+m-1]. *)
val pivot_of : m:int -> int -> int
