(** The branch-and-bound engine behind SGSelect and STGSelect.

    One search node owns an intermediate solution [VS] and a candidate set
    [VA]; at each step the engine picks a candidate by access ordering
    (smallest social distance among those passing the interior
    unfamiliarity / exterior expansibility / temporal extensibility
    conditions at the current [θ]/[φ]), recurses on its inclusion, then
    excludes it — enumerating every group exactly once under the pruning
    lemmas.  {!Sgselect} and {!Stgselect} are thin wrappers. *)

(** Strategy switches.  Defaults run the paper's full algorithm with
    two sound tightenings of its lemmas: the safe form of Lemma 3, and
    Lemma 2 as the sum of the cheapest completion rather than the
    smallest distance times the members missing (docs/LEMMAS.md §2-3);
    neither changes an optimum.  Turning a flag off is the ablation
    study's variant (DESIGN.md A1-A3, A5); every variant stays exact.
    θ and φ start at 2, and the temporal condition's threshold t is 6,
    as in Algorithms 2 and 4. *)
type config = {
  use_access_ordering : bool;
      (** false: candidates in vertex-id order instead of distance order *)
  use_distance_pruning : bool;
      (** Lemma 2, summed, at every node and before every STGSelect
          pivot's setup *)
  use_acquaintance_pruning : bool;  (** Lemma 3, safe form *)
  use_availability_pruning : bool;  (** Lemma 5 *)
}

val default_config : config

(** Search-effort counters, for the experiment harness and the pruning
    waterfall ([Obs.Trace.waterfall]).  The kernel keeps the accounting
    identity [examined = includes + removed_exterior + removed_interior
    + removed_temporal + deferred] exact: every examined candidate ends
    in exactly one bucket (a deferred candidate counts again when a θ/φ
    relaxation round re-examines it).  A candidate u with
    U(VS ∪ {u}) > k or X(VS ∪ {u}) < 0 is in no completion of VS, and
    it leaves VA the first time it is examined, at any θ and φ. *)
type stats = {
  mutable nodes : int;           (** search-tree nodes expanded *)
  mutable examined : int;        (** candidates considered by the node loop *)
  mutable includes : int;        (** include-branches taken *)
  mutable deferred : int;
      (** could still join but fails the current θ or φ condition
          (Definitions 2, 5); re-examined once θ or φ relaxes *)
  mutable pruned_distance : int;
  mutable pruned_acquaintance : int;
  mutable pruned_availability : int;
  mutable removed_exterior : int;
      (** removed: A(VS ∪ {u}) below the members still missing
          (Definition 3) *)
  mutable removed_interior : int;
      (** removed: U(VS ∪ {u}) > k, a stranger count past the bound *)
  mutable removed_temporal : int;
      (** removed: X(VS ∪ {u}) < 0, its run meets TS in fewer than m
          slots *)
}

val fresh_stats : unit -> stats

(** A found optimum, in feasible-graph sub-ids. *)
type found = {
  group : int list;       (** sub-ids in increasing order, includes q *)
  distance : float;       (** [dist] summed over [group] in that order *)
  window_start : int option;  (** [Some start] for STGQ, [None] for SGQ *)
}

(** Where complete qualified groups are delivered.  [offer] receives every
    leaf the search reaches; [bound] feeds distance pruning (Lemma 2) — a
    node is cut when no completion can get strictly below it.  The
    single-best solvers use an incumbent cell; {!Topk} keeps the N best
    and bounds by the current worst kept.

    Contract: [bound ()] may change only through [offer].  The node loop
    reads it when a node starts and after each change to the candidate
    set, not before every candidate (docs/LEMMAS.md §0).  A bound that
    moved by other means would be seen only at the next such change:
    the search would stay exact but prune later, and its counters would
    differ.  Both sinks under lib/ keep the contract. *)
type sink = {
  offer : found -> unit;
  bound : unit -> float;
}

(** [solve_social_out ?eligible ?budget ctx ~p ~k ~config ~stats] runs
    SGSelect's search on an engine context: the optimal group of [p]
    sub-ids containing the initiator minimising total distance under the
    acquaintance bound [k].  [eligible] (default: everyone) restricts the
    candidate set — the per-slot STGQ baseline uses it to keep only the
    attendees available during a window.  Under a cooperative {!Budget}
    the search polls every
    {!Budget.check_interval} node expansions and, instead of raising on
    a trip, reports how far it got as an {!Anytime.outcome} whose gap is
    {!gap}'s.  With the default {!Budget.unlimited} the outcome is
    always [Optimal]. *)
val solve_social_out :
  ?eligible:(int -> bool) -> ?budget:Budget.t ->
  Engine.Context.t -> p:int -> k:int -> config:config -> stats:stats ->
  found Anytime.outcome

(** [pivots avail ~m] — the Lemma-4 pivot slots for window length [m]
    over the horizon of the slab [avail] ({!Engine.Feasible.slab}).
    @raise Invalid_argument if [m < 1]. *)
val pivots : Timetable.Availability.t array -> m:int -> int list

(** [solve_temporal_out ?bound_init ?budget ctx ~avail ~p ~k ~m ~pivots
    ~config ~stats] runs STGSelect's search over [avail], the ball's
    calendars by sub-id ({!Engine.Feasible.slab}); only the given pivot
    slots are explored (Lemma 4).  The best solution across all pivots
    is returned; the incumbent bound is shared between pivots for extra
    pruning (sound: it only tightens Lemma 2).  A pivot reads the other
    members' runs only when the initiator's own run holds [m] slots, and
    builds its search state only when at least [p-1] members are free
    for [m] slots and the [p-1] cheapest of them stay below the bound.
    [bound_init] seeds distance pruning before any solution is found
    (STGArrange passes the PCArrange target); a returned solution may
    exceed the seed and must be re-checked by the caller.  [budget] as
    in {!solve_social_out}. *)
val solve_temporal_out :
  ?bound_init:float -> ?budget:Budget.t ->
  Engine.Context.t ->
  avail:Timetable.Availability.t array ->
  p:int -> k:int -> m:int ->
  pivots:int list ->
  config:config -> stats:stats ->
  found Anytime.outcome

(** Sink-driven variants of the two searches — same exploration and
    pruning, custom solution collection.  The result is the budget trip
    that truncated the search, or [None] for a complete run (always
    [None] under the default {!Budget.unlimited}). *)
val solve_social_sink :
  ?eligible:(int -> bool) -> ?budget:Budget.t ->
  Engine.Context.t -> p:int -> k:int -> config:config -> stats:stats -> sink:sink ->
  Budget.reason option

val solve_temporal_sink :
  ?budget:Budget.t ->
  Engine.Context.t ->
  avail:Timetable.Availability.t array ->
  p:int -> k:int -> m:int ->
  pivots:int list ->
  config:config -> stats:stats -> sink:sink ->
  Budget.reason option

(** [gap ?eligible fg ~p distance] is the anytime gap bound of a group
    of [p] at [distance]: [max 0 (distance - lb)], where [lb], the sum
    of the [p-1] smallest candidate distances among [eligible] (default:
    everyone), is an admissible lower bound on {e any} qualified group
    ([infinity] when fewer than [p-1] candidates are eligible, making
    the gap [0]). *)
val gap : ?eligible:(int -> bool) -> Engine.Feasible.t -> p:int -> float -> float

(** [best_of a b] is the better of two results: the smaller distance,
    then the earlier window start, then the smaller group.  The order is
    total, so merging per-pivot or per-bucket results does not depend on
    their order. *)
val best_of : found option -> found option -> found option
