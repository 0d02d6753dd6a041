type config = {
  use_access_ordering : bool;
  use_distance_pruning : bool;
  use_acquaintance_pruning : bool;
  use_availability_pruning : bool;
}

let default_config =
  {
    use_access_ordering = true;
    use_distance_pruning = true;
    use_acquaintance_pruning = true;
    use_availability_pruning = true;
  }

(* Algorithms 2 and 4 start θ and φ at 2 and relax them by one per
   round; at φ >= the "predetermined threshold t" the temporal
   condition's right-hand side is 0. *)
let theta0 = 2
let phi0 = 2
let phi_threshold = 6

(* Accounting identity (kept exact, tested, and surfaced as the pruning
   waterfall): every [examined] candidate ends in exactly one of
   [includes], [removed_exterior], [removed_interior],
   [removed_temporal] or [deferred].  Only a candidate that could still
   join is deferred (a θ/φ relaxation round skipping it); it counts
   again when re-examined. *)
type stats = {
  mutable nodes : int;
  mutable examined : int;
  mutable includes : int;
  mutable deferred : int;
  mutable pruned_distance : int;
  mutable pruned_acquaintance : int;
  mutable pruned_availability : int;
  mutable removed_exterior : int;
  mutable removed_interior : int;
  mutable removed_temporal : int;
}

let fresh_stats () =
  {
    nodes = 0;
    examined = 0;
    includes = 0;
    deferred = 0;
    pruned_distance = 0;
    pruned_acquaintance = 0;
    pruned_availability = 0;
    removed_exterior = 0;
    removed_interior = 0;
    removed_temporal = 0;
  }

type found = {
  group : int list;
  distance : float;
  window_start : int option;
}

(* Where complete qualified groups are delivered.  [bound] feeds Lemma 2:
   a node is pruned when no completion can get strictly below it. *)
type sink = {
  offer : found -> unit;
  bound : unit -> float;
}

(* Temporal context of the pivot slot currently explored.  [run_lo/run_hi]
   is the member's maximal available run containing the pivot, clipped to
   the pivot interval ([lo > hi] encodes "not available at the pivot");
   [unavail.(t - ilo)] counts VA members unavailable at slot [t];
   [ts_lo..ts_hi] is TS, the common run of the vertices in VS.  Each
   member's busy slots in the interval are read once per pivot into
   [busy]: [words] ints per member, bit [i] of word [j] set when it is
   busy at slot [ilo + j * slots_per_word + i]. *)
type temporal = {
  m : int;
  pivot : int;
  ilo : int;
  ihi : int;
  run_lo : int array;
  run_hi : int array;
  unavail : int array;
  words : int;
  busy : int array;
  mutable ts_lo : int;
  mutable ts_hi : int;
}

type state = {
  fg : Engine.Feasible.t;
  row : int array;      (* [fg.sub]'s CSR, read once per state: the neighbours *)
  adj : int array;      (* of v are adj.(row.(v)) .. adj.(row.(v + 1) - 1), sorted *)
  p : int;
  k : int;
  cfg : config;
  stats : stats;
  order : int array;    (* candidate pick order *)
  by_dist : int array;  (* the same candidates by distance, for Lemmas 2 and 3 *)
  in_va : bool array;
  nbr_vs : int array;   (* per vertex: #neighbours currently in VS *)
  nbr_va : int array;   (* per vertex: #neighbours currently in VA *)
  visited : int array;  (* round id at which the vertex was last examined *)
  mutable round : int;
  mutable vs_size : int;
  mutable va_size : int;
  mutable vs_list : int list;
  mutable td : float;
  mutable sum_nbr_va : int;  (* Σ_{v∈VA} nbr_va(v) = 2|E(VA)|, maintained incrementally *)
  sink : sink;
  temporal : temporal option;
  budget : Budget.t;
}

let eps = 1e-9

(* Raised (no-trace: purely for control flow) when the budget trips at a
   checkpoint.  It unwinds the whole search; the per-solve state is
   discarded, so no undo is needed on this path. *)
exception Stop

(* Monomorphic: [Stdlib.min]/[max] compare through [compare_val]. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

(* ------------------------------------------------------------------ *)
(* State transitions, all O(deg) with exact inverses.  They walk the
   rows as array reads here: a [Socgraph.Graph] call per neighbour would
   not be inlined across modules.                                      *)

(* Slots per busy word: one [free_bits] read fills a word. *)
let slots_per_word = Timetable.Availability.bits_per_word

(* Words per member that hold an interval of [len] slots. *)
let busy_words len = (len + slots_per_word - 1) / slots_per_word

let unavail_adjust tc v delta =
  let base = v * tc.words in
  for j = 0 to tc.words - 1 do
    let bits = ref tc.busy.(base + j) and t = ref (j * slots_per_word) in
    while !bits <> 0 do
      if !bits land 1 <> 0 then tc.unavail.(!t) <- tc.unavail.(!t) + delta;
      bits := !bits lsr 1;
      incr t
    done
  done

(* Σ nbr_va counts each edge of VA twice, and v has nbr_va v of them
   (no self-loops), so moving v out of VA or back changes the sum by
   2 nbr_va v: the row walk needs no test per neighbour (docs/LEMMAS.md
   §1). *)
let remove_from_va st v =
  st.in_va.(v) <- false;
  st.va_size <- st.va_size - 1;
  st.sum_nbr_va <- st.sum_nbr_va - (2 * st.nbr_va.(v));
  for e = st.row.(v) to st.row.(v + 1) - 1 do
    let w = st.adj.(e) in
    st.nbr_va.(w) <- st.nbr_va.(w) - 1
  done;
  match st.temporal with Some tc -> unavail_adjust tc v (-1) | None -> ()

let restore_to_va st v =
  for e = st.row.(v) to st.row.(v + 1) - 1 do
    let w = st.adj.(e) in
    st.nbr_va.(w) <- st.nbr_va.(w) + 1
  done;
  st.in_va.(v) <- true;
  st.va_size <- st.va_size + 1;
  st.sum_nbr_va <- st.sum_nbr_va + (2 * st.nbr_va.(v));
  match st.temporal with Some tc -> unavail_adjust tc v 1 | None -> ()

(* Moves v from VA into VS.  Returns the TS interval to restore on
   undo. *)
let add_to_vs st v =
  remove_from_va st v;
  st.vs_size <- st.vs_size + 1;
  st.vs_list <- v :: st.vs_list;
  st.td <- st.td +. st.fg.dist.(v);
  for e = st.row.(v) to st.row.(v + 1) - 1 do
    let w = st.adj.(e) in
    st.nbr_vs.(w) <- st.nbr_vs.(w) + 1
  done;
  match st.temporal with
  | Some tc ->
      let saved = (tc.ts_lo, tc.ts_hi) in
      tc.ts_lo <- imax tc.ts_lo tc.run_lo.(v);
      tc.ts_hi <- imin tc.ts_hi tc.run_hi.(v);
      saved
  | None -> (0, 0)

(* Undoes [add_to_vs] on the VS side only: v stays out of VA, where the
   node loop's exclusion would put it next anyway (docs/LEMMAS.md §0). *)
let remove_from_vs st v (saved_lo, saved_hi) =
  st.vs_size <- st.vs_size - 1;
  (* [v] was pushed last, so it is the head. *)
  st.vs_list <- (match st.vs_list with _ :: rest -> rest | [] -> assert false);
  st.td <- st.td -. st.fg.dist.(v);
  for e = st.row.(v) to st.row.(v + 1) - 1 do
    let w = st.adj.(e) in
    st.nbr_vs.(w) <- st.nbr_vs.(w) - 1
  done;
  match st.temporal with
  | Some tc ->
      tc.ts_lo <- saved_lo;
      tc.ts_hi <- saved_hi
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Access-ordering measures (Definitions 2, 3, 5).                     *)

(* Whether [u] is in [v]'s sorted row: a binary search, O(log deg). *)
let adjacent st v u =
  let lo = ref st.row.(v) and hi = ref st.row.(v + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if st.adj.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo < st.row.(v + 1) && st.adj.(!lo) = u

(* A member w of VS has nn w = |VS| - 1 - nbr_vs w strangers in VS.  The
   members with the most strangers are those with the fewest VS
   neighbours: [fewest] is that least nbr_vs over [vs] (at most [acc]),
   and [ties] how many members of [vs] have exactly [fewest].  Both
   depend on VS alone. *)
let[@lint.bounded] rec fewest_vs_nbrs st acc = function
  | [] -> acc
  | w :: rest -> fewest_vs_nbrs st (imin acc st.nbr_vs.(w)) rest

let[@lint.bounded] rec ties st fewest acc = function
  | [] -> acc
  | w :: rest -> ties st fewest (if st.nbr_vs.(w) = fewest then acc + 1 else acc) rest

(* Whether some member of [vs] with [fewest] VS neighbours is not
   adjacent to [u]. *)
let[@lint.bounded] rec misses_a_tie st fewest u = function
  | [] -> false
  | w :: rest ->
      (st.nbr_vs.(w) = fewest && not (adjacent st w u)) || misses_a_tie st fewest u rest

(* U(VS ∪ {u}) for a candidate u ∈ VA (Definition 2): the most strangers
   any member of VS ∪ {u} has in it.  u has [own] = |VS| - nbr_vs u.  A
   member of VS gains a stranger exactly when it is not adjacent to u,
   so the members' maximum is [worst] + 1 when some member at [worst]
   misses u and [worst] otherwise (docs/LEMMAS.md §1).  u has nbr_vs u
   neighbours in VS, so more ties than that settle it without an
   adjacency test. *)
let interior_unfamiliarity st ~fewest ~tied u =
  let worst = st.vs_size - 1 - fewest in
  let own = st.vs_size - st.nbr_vs.(u) in
  if own > worst then own
  else if tied > st.nbr_vs.(u) || misses_a_tie st fewest u st.vs_list then worst + 1
  else worst

(* A(VS ∪ {u}) with VA' = VA - {u} (Definition 3): the least slack
   nbr_va' + (k - nn') over VS ∪ {u}.  Moving u out of VA costs a member
   w of VS one VA neighbour when they are adjacent and one unit of its
   stranger quota when not, so w's slack is
   nbr_va w + k - nn w - 1 = nbr_va w + nbr_vs w + k - |VS| either way
   (docs/LEMMAS.md §1): [least_in_play] is the least nbr_va + nbr_vs
   over [vs]. *)
let[@lint.bounded] rec least_in_play st acc = function
  | [] -> acc
  | w :: rest -> least_in_play st (imin acc (st.nbr_va.(w) + st.nbr_vs.(w))) rest

let exterior_expansibility st u =
  let own = st.nbr_va.(u) + st.k - (st.vs_size - st.nbr_vs.(u)) in
  imin own (least_in_play st max_int st.vs_list + st.k - st.vs_size)

(* X(VS ∪ {u}) = |TS ∩ run_u| - m (Definition 5). *)
let temporal_extensibility tc u =
  let lo = imax tc.ts_lo tc.run_lo.(u) in
  let hi = imin tc.ts_hi tc.run_hi.(u) in
  hi - lo + 1 - tc.m

(* The right-hand sides of Definitions 2 and 5 at the current θ/φ.
   Within a node |VS| is fixed, so a node computes each when θ or φ
   moves, with the expression it always had, and compares candidates
   against the stored value. *)
let interior_threshold st theta =
  float_of_int st.k
  *. Float.pow (float_of_int (st.vs_size + 1) /. float_of_int st.p) (float_of_int theta)

let temporal_threshold st phi =
  match st.temporal with
  | Some tc when phi < phi_threshold ->
      float_of_int (tc.m - 1)
      *. Float.pow
           (float_of_int (st.p - (st.vs_size + 1)) /. float_of_int st.p)
           (float_of_int phi)
  | Some _ | None -> 0.

(* ------------------------------------------------------------------ *)
(* Pruning lemmas, evaluated when a node starts and after each change
   to VA.                                                              *)

(* Lemma 2 as a sum.  [cheapest fg order ~needed ok] is the sum of the
   distances of the first [needed] sub-ids of the distance-sorted
   [order] that pass [ok] (the [needed] smallest such distances), or
   [infinity] when fewer pass.  A completion adds [needed] distinct
   passing members, so it costs at least this much. *)
let cheapest (fg : Engine.Feasible.t) order ~needed ok =
  let n = Array.length order in
  let sum = ref 0. and left = ref needed and i = ref 0 in
  while !left > 0 && !i < n do
    let v = order.(!i) in
    if ok v then begin
      sum := !sum +. fg.dist.(v);
      decr left
    end;
    incr i
  done;
  if !left > 0 then infinity else !sum

(* [cheapest] over VA, in the same order, with no closure: the node
   loop asks it after every change to VA. *)
let cheapest_in_va st ~needed =
  let order = st.by_dist in
  let n = Array.length order in
  let sum = ref 0. and left = ref needed and i = ref 0 in
  while !left > 0 && !i < n do
    let v = order.(!i) in
    if st.in_va.(v) then begin
      sum := !sum +. st.fg.dist.(v);
      decr left
    end;
    incr i
  done;
  if !left > 0 then infinity else !sum

(* Lemma 2: no completion of VS gets strictly below the bound.  Ties are
   pruned too; the sinks keep only strictly better groups. *)
let distance_prunes st =
  st.cfg.use_distance_pruning
  &&
  let bound = st.sink.bound () in
  Float.is_finite bound
  && st.td +. cheapest_in_va st ~needed:(st.p - st.vs_size) >= bound -. eps

(* Whether every VA member from position [i] of [by_dist] on has more
   than [threshold] VA neighbours. *)
let[@lint.bounded] rec all_above st threshold i =
  i >= Array.length st.by_dist
  ||
  let v = st.by_dist.(i) in
  (not (st.in_va.(v) && st.nbr_va.(v) <= threshold)) && all_above st threshold (i + 1)

(* Lemma 3 in its safe form (docs/LEMMAS.md §3): the printed bound
   [needed - k] per vertex prunes feasible groups.  The sum of inner
   degrees is maintained incrementally; the minimum is only scanned when
   the sum alone cannot decide, and that scan exits at the first vertex
   disproving the prune. *)
let acquaintance_prunes st =
  st.cfg.use_acquaintance_pruning
  &&
  let needed = st.p - st.vs_size in
  let per_vertex = needed - 1 - st.k in
  per_vertex > 0
  &&
  let rhs = needed * per_vertex in
  st.sum_nbr_va < rhs
  ||
  (* prune <=> sum - (|VA|-needed)·min < rhs <=> min > (sum-rhs)/(|VA|-needed) *)
  st.va_size > needed
  &&
  let threshold = (st.sum_nbr_va - rhs) / (st.va_size - needed) in
  all_above st threshold 0

(* The nearest slot from [t] up (down) at which at least [n] VA members
   are busy, or the first slot past the pivot interval. *)
let[@lint.bounded] rec blocked_up tc n t =
  if t > tc.ihi then tc.ihi + 1
  else if tc.unavail.(t - tc.ilo) >= n then t
  else blocked_up tc n (t + 1)

let[@lint.bounded] rec blocked_down tc n t =
  if t < tc.ilo then tc.ilo - 1
  else if tc.unavail.(t - tc.ilo) >= n then t
  else blocked_down tc n (t - 1)

(* Lemma 5. *)
let availability_prunes st =
  st.cfg.use_availability_pruning
  &&
  match st.temporal with
  | None -> false
  | Some tc ->
      let n = st.va_size - (st.p - st.vs_size) + 1 in
      blocked_up tc n (tc.pivot + 1) - blocked_down tc n (tc.pivot - 1) <= tc.m

(* ------------------------------------------------------------------ *)
(* The node loop (Algorithms 2 and 4).                                 *)

(* The group goes out sorted by sub-id with its distance summed in that
   order, so the reported distance is a function of the group alone,
   whatever path reached it. *)
let record_best st =
  let group = List.sort Int.compare st.vs_list in
  st.sink.offer
    {
      group;
      distance = Engine.Feasible.total_distance st.fg group;
      window_start = (match st.temporal with Some tc -> Some tc.ts_lo | None -> None);
    }

(* The budget checkpoint: one [land] per node, real work only every
   [Budget.check_interval] expansions (clock read, shared-counter
   publish, fault-site poll), so the unbudgeted path stays bit-identical
   and the budgeted path allocates nothing per node. *)
let checkpoint st =
  if st.stats.nodes land (Budget.check_interval - 1) = 0 then begin
    Faultinject.fire Faultinject.Kernel_expansion;
    match Budget.charge st.budget Budget.check_interval with
    | Some reason ->
        (* Trip path, at most once per solve: attribute which checkpoint
           ended the search to the enclosing solve span. *)
        Obs.Trace.add_attrs
          [
            ("budget.trip", Budget.reason_name reason);
            ("budget.checkpoint_nodes", string_of_int st.stats.nodes);
          ];
        raise_notrace Stop
    | None -> ()
  end

(* The position of the first candidate from [i] on in pick order that
   is in VA and not yet examined in [round], or [-1]. *)
let[@lint.bounded] rec next_candidate st round i =
  if i >= Array.length st.order then -1
  else
    let v = st.order.(i) in
    if st.in_va.(v) && st.visited.(v) <> round then i else next_candidate st round (i + 1)

let rec node st =
  st.stats.nodes <- st.stats.nodes + 1;
  checkpoint st;
  (* VS is the same at every iteration of this node's loop (an include
     restores it), so Definition 2's [fewest] and [tied] are too. *)
  let fewest = fewest_vs_nbrs st max_int st.vs_list in
  let tied = ties st fewest 0 st.vs_list in
  let removed = ref [] in
  let theta = ref theta0 in
  let phi = ref phi0 in
  let interior_rhs = ref (interior_threshold st !theta) in
  let temporal_rhs = ref (temporal_threshold st !phi) in
  st.round <- st.round + 1;
  let current_round = ref st.round in
  (* Within one round the pick scan can only move right: a vertex left of
     the cursor is either already examined this round or permanently out
     of this node's VA, so restarting from 0 would be O(f) wasted work in
     the innermost loop. *)
  let cursor = ref 0 in
  let new_round () =
    st.round <- st.round + 1;
    current_round := st.round;
    cursor := 0
  in
  let remove_here v =
    remove_from_va st v;
    removed := v :: !removed
  in
  (* The prune checks read VS, VA, TS and the sink's bound.  Only a
     removal or an include moves them (the bound moves in [offer], inside
     an include's subtree), so they run when the node starts and after
     each removal or include; a deferral or a new round goes straight to
     the next pick (docs/LEMMAS.md §0). *)
  let rec loop () =
    if st.vs_size + st.va_size < st.p then ()
    else if distance_prunes st then
      st.stats.pruned_distance <- st.stats.pruned_distance + 1
    else if acquaintance_prunes st then
      st.stats.pruned_acquaintance <- st.stats.pruned_acquaintance + 1
    else if availability_prunes st then
      st.stats.pruned_availability <- st.stats.pruned_availability + 1
    else pick ()
  and pick () =
    let i = next_candidate st !current_round !cursor in
    if i < 0 then begin
      if !theta > 0 then begin
        decr theta;
        interior_rhs := interior_threshold st !theta;
        new_round ();
        pick ()
      end
      else
        match st.temporal with
        | Some _ when !phi < phi_threshold ->
            incr phi;
            temporal_rhs := temporal_threshold st !phi;
            new_round ();
            pick ()
        | Some _ | None -> ()
    end
    else begin
      cursor := i;
      let u = st.order.(i) in
      st.visited.(u) <- !current_round;
      st.stats.examined <- st.stats.examined + 1;
      let changed =
        if exterior_expansibility st u < st.p - (st.vs_size + 1) then begin
          st.stats.removed_exterior <- st.stats.removed_exterior + 1;
          remove_here u;
          true
        end
        else begin
          let unfamiliar = interior_unfamiliarity st ~fewest ~tied u in
          let extensible =
            match st.temporal with Some tc -> temporal_extensibility tc u | None -> 0
          in
          (* U only grows and X only shrinks as VS grows, so U > k or X < 0
             puts u in no completion of VS: it leaves VA at first sight,
             whatever θ and φ are (docs/LEMMAS.md §1). *)
          if unfamiliar > st.k then begin
            st.stats.removed_interior <- st.stats.removed_interior + 1;
            remove_here u;
            true
          end
          else if extensible < 0 then begin
            st.stats.removed_temporal <- st.stats.removed_temporal + 1;
            remove_here u;
            true
          end
          else if
            float_of_int unfamiliar > !interior_rhs +. 1e-12
            || float_of_int extensible < !temporal_rhs -. 1e-12
          then begin
            (* u could still join: retried once θ or φ relaxes *)
            st.stats.deferred <- st.stats.deferred + 1;
            false
          end
          else begin
            st.stats.includes <- st.stats.includes + 1;
            let saved_ts = add_to_vs st u in
            if st.vs_size = st.p then record_best st else node st;
            (* u left VA in [add_to_vs]; it comes back with the node's
               removals. *)
            remove_from_vs st u saved_ts;
            removed := u :: !removed;
            true
          end
        end
      in
      if changed then loop () else pick ()
    end
  in
  loop ();
  (* Give the removed candidates back to the parent. *)
  List.iter (restore_to_va st) !removed

(* ------------------------------------------------------------------ *)
(* State construction.                                                 *)

(* The sub-ids of [ids] that pass [eligible], in [ids]' order. *)
let filter eligible ids =
  let n = Array.fold_left (fun n v -> if eligible v then n + 1 else n) 0 ids in
  let out = Array.make n 0 and j = ref 0 in
  Array.iter
    (fun v ->
      if eligible v then begin
        out.(!j) <- v;
        incr j
      end)
    ids;
  out

let make_state fg ~p ~k ~cfg ~stats ~eligible ~temporal ~sink ~budget =
  let size = Engine.Feasible.size fg in
  let q = fg.Engine.Feasible.q in
  let by_dist = filter eligible fg.Engine.Feasible.by_dist in
  let order =
    if cfg.use_access_ordering then by_dist
    else filter (fun v -> v <> q && eligible v) (Array.init size Fun.id)
  in
  let in_va = Array.make size false in
  Array.iter (fun v -> in_va.(v) <- true) order;
  let nbr_vs = Array.make size 0 in
  let nbr_va = Array.make size 0 in
  let row, adj = Socgraph.Graph.csr fg.Engine.Feasible.sub in
  for e = row.(q) to row.(q + 1) - 1 do
    nbr_vs.(adj.(e)) <- 1
  done;
  Array.iter
    (fun v ->
      for e = row.(v) to row.(v + 1) - 1 do
        let w = adj.(e) in
        nbr_va.(w) <- nbr_va.(w) + 1
      done)
    order;
  (match temporal with
  | Some tc ->
      (* Unavailability counts of the initial VA over the pivot interval,
         from the busy words that pivot setup read. *)
      Array.iter (fun v -> unavail_adjust tc v 1) order
  | None -> ());
  {
    fg;
    row;
    adj;
    p;
    k;
    cfg;
    stats;
    order;
    by_dist;
    in_va;
    nbr_vs;
    nbr_va;
    visited = Array.make size (-1);
    round = 0;
    vs_size = 1;
    va_size = Array.length order;
    vs_list = [ q ];
    td = 0.;
    sum_nbr_va = Array.fold_left (fun acc v -> acc + nbr_va.(v)) 0 order;
    sink;
    temporal;
    budget;
  }

(* ------------------------------------------------------------------ *)
(* Anytime gap and incumbents.                                         *)

(* Any qualified group is q plus p-1 distinct eligible candidates, so
   its distance is at least the sum of the p-1 smallest candidate
   distances.  Coarse (it ignores acquaintance and availability) but
   sound for every region a truncated search abandoned; computed once
   per truncated solve, never on the per-node path. *)
let gap ?(eligible = fun _ -> true) (fg : Engine.Feasible.t) ~p distance =
  Float.max 0. (distance -. cheapest fg fg.by_dist ~needed:(p - 1) eligible)

let best_of a b =
  match (a, b) with
  | None, f | f, None -> f
  | Some x, Some y ->
      let key (f : found) = (f.distance, f.window_start, f.group) in
      if key y < key x then b else a

(* The single-best sink used by SGSelect/STGSelect: keep the strictly
   better solution, bound the search by the incumbent.  [bound_init]
   (default none) seeds distance pruning before the first solution —
   STGArrange uses the PCArrange distance this way; solutions worse than
   the seed may still surface but never hide a qualifying one. *)
let best_sink ?(bound_init = infinity) cell =
  {
    offer =
      (fun f ->
        match !cell with
        | Some { distance; _ } when f.distance >= distance -. eps -> ()
        | _ -> cell := Some f);
    bound =
      (fun () ->
        match !cell with
        | Some { distance; _ } -> Float.min distance bound_init
        | None -> bound_init);
  }

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let solve_social_sink ?(eligible = fun _ -> true) ?(budget = Budget.unlimited)
    (ctx : Engine.Context.t) ~p ~k ~config ~stats ~sink =
  let fg = ctx.Engine.Context.fg in
  if p = 1 then begin
    sink.offer { group = [ fg.Engine.Feasible.q ]; distance = 0.; window_start = None };
    None
  end
  else if Engine.Feasible.size fg < p then None
  else
    match Budget.check budget with
    | Some _ as stopped -> stopped
    | None -> (
        let st =
          make_state fg ~p ~k ~cfg:config ~stats ~eligible ~temporal:None ~sink
            ~budget
        in
        match (if st.vs_size + st.va_size >= p then node st) with
        | () -> None
        | exception Stop -> Budget.tripped budget)

let solve_social_out ?eligible ?budget ctx ~p ~k ~config ~stats =
  let cell = ref None in
  let completion =
    solve_social_sink ?eligible ?budget ctx ~p ~k ~config ~stats ~sink:(best_sink cell)
  in
  Anytime.make ~completion
    ~gap_of:(fun f -> gap ?eligible ctx.Engine.Context.fg ~p f.distance)
    !cell

(* ------------------------------------------------------------------ *)
(* Pivot setup reads a member's calendar a word at a time.             *)

(* The index of the highest set bit of [x > 0]. *)
let highest_bit x =
  let x = ref x and i = ref 0 in
  if !x lsr 32 <> 0 then begin
    x := !x lsr 32;
    i := 32
  end;
  if !x lsr 16 <> 0 then begin
    x := !x lsr 16;
    i := !i + 16
  end;
  if !x lsr 8 <> 0 then begin
    x := !x lsr 8;
    i := !i + 8
  end;
  if !x lsr 4 <> 0 then begin
    x := !x lsr 4;
    i := !i + 4
  end;
  if !x lsr 2 <> 0 then begin
    x := !x lsr 2;
    i := !i + 2
  end;
  if !x lsr 1 <> 0 then !i + 1 else !i

(* Offsets into a [width]-slot interval whose busy words start at
   [busy.(base)], scanning from word [j], whose bits still in play are
   [x]: the first busy slot from there up, or [width] when there is
   none, and the last busy slot from there down, or [-1]. *)
let[@lint.bounded] rec first_busy busy base ~width j x =
  if x <> 0 then (j * slots_per_word) + highest_bit (x land -x)
  else if (j + 1) * slots_per_word < width then
    first_busy busy base ~width (j + 1) busy.(base + j + 1)
  else width

let[@lint.bounded] rec last_busy busy base j x =
  if x <> 0 then (j * slots_per_word) + highest_bit x
  else if j > 0 then last_busy busy base (j - 1) busy.(base + j - 1)
  else -1

let pivots avail ~m =
  Timetable.Window.pivots ~horizon:(Timetable.Availability.horizon avail.(0)) ~m

let solve_temporal_sink ?(budget = Budget.unlimited) (ctx : Engine.Context.t)
    ~avail ~p ~k ~m ~pivots ~config ~stats ~sink =
  let fg = ctx.Engine.Context.fg in
  let size = Engine.Feasible.size fg in
  let q = fg.Engine.Feasible.q in
  let h = Timetable.Availability.horizon avail.(q) in
  (* Each pivot writes a member's run and busy words before reading them. *)
  let run_lo = Array.make size 1 and run_hi = Array.make size 0 in
  (* A pivot interval spans at most 2m-1 slots of the horizon. *)
  let words = busy_words (imin ((2 * m) - 1) h) in
  let busy = Array.make (size * words) 0 in
  let free v = run_hi.(v) - run_lo.(v) + 1 >= m in
  let explore_pivot pivot =
    let ilo, ihi = Timetable.Window.interval ~horizon:h ~m pivot in
    (* Reads [v]'s calendar over [ilo, ihi] into its busy words, one
       [free_bits] call per word, and takes from them its maximal run
       around the pivot, clipped to the interval. *)
    let set_run v =
      let base = v * words in
      for j = 0 to words - 1 do
        let pos = ilo + (j * slots_per_word) in
        let len = imin slots_per_word (ihi + 1 - pos) in
        busy.(base + j) <-
          (if len > 0 then
             lnot (Timetable.Availability.free_bits avail.(v) ~pos ~len)
             land ((1 lsl len) - 1)
           else 0)
      done;
      (* The pivot is bit [b] of word [j]. *)
      let j = (pivot - ilo) / slots_per_word and b = (pivot - ilo) mod slots_per_word in
      let word = busy.(base + j) in
      if word land (1 lsl b) <> 0 then begin
        run_lo.(v) <- 1;
        run_hi.(v) <- 0
      end
      else begin
        run_lo.(v) <- ilo + 1 + last_busy busy base j (word land ((1 lsl b) - 1));
        run_hi.(v) <-
          ilo - 1
          + first_busy busy base ~width:(ihi - ilo + 1) j (word land lnot ((2 lsl b) - 1))
      end
    in
    (* The initiator's run first: no other member is touched at a pivot
       where the initiator is busy. *)
    set_run q;
    if free q then
      if p = 1 then
        sink.offer { group = [ q ]; distance = 0.; window_start = Some run_lo.(q) }
      else begin
        (* Lemma 2 at the root, before any state is built.  Runs are read
           in distance order and only until the p-1 cheapest free members
           are known; [infinity] means fewer than p-1 are free. *)
        let floor =
          cheapest fg fg.Engine.Feasible.by_dist ~needed:(p - 1) (fun v ->
              set_run v;
              free v)
        in
        if floor = infinity then ()
        else if config.use_distance_pruning && floor >= sink.bound () -. eps then
          stats.pruned_distance <- stats.pruned_distance + 1
        else begin
          (* The search reads every member's run. *)
          for v = 0 to size - 1 do
            if v <> q then set_run v
          done;
          let tc =
            {
              m;
              pivot;
              ilo;
              ihi;
              run_lo;
              run_hi;
              unavail = Array.make (ihi - ilo + 1) 0;
              words;
              busy;
              ts_lo = run_lo.(q);
              ts_hi = run_hi.(q);
            }
          in
          node
            (make_state fg ~p ~k ~cfg:config ~stats ~eligible:free ~temporal:(Some tc)
               ~sink ~budget)
        end
      end
  in
  match Budget.check budget with
  | Some _ as stopped -> stopped
  | None -> (
      match List.iter explore_pivot pivots with
      | () -> None
      | exception Stop -> Budget.tripped budget)

let solve_temporal_out ?bound_init ?budget ctx ~avail ~p ~k ~m ~pivots ~config
    ~stats =
  let cell = ref None in
  let completion =
    solve_temporal_sink ?budget ctx ~avail ~p ~k ~m ~pivots ~config ~stats
      ~sink:(best_sink ?bound_init cell)
  in
  Anytime.make ~completion
    ~gap_of:(fun f -> gap ctx.Engine.Context.fg ~p f.distance)
    !cell
