type config = {
  theta0 : int;
  phi0 : int;
  phi_threshold : int;
  use_access_ordering : bool;
  use_distance_pruning : bool;
  use_acquaintance_pruning : bool;
  unsafe_lemma3 : bool;
  use_availability_pruning : bool;
}

let default_config =
  {
    theta0 = 2;
    phi0 = 2;
    phi_threshold = 6;
    use_access_ordering = true;
    use_distance_pruning = true;
    use_acquaintance_pruning = true;
    unsafe_lemma3 = false;
    use_availability_pruning = true;
  }

(* Accounting identity (kept exact, tested, and surfaced as the pruning
   waterfall): every [examined] candidate ends in exactly one of
   [includes], [removed_exterior], [removed_interior],
   [removed_temporal] or [deferred].  A deferral (a θ/φ relaxation
   round skipping the candidate) counts again when re-examined. *)
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
   [ts_lo..ts_hi] is TS, the common run of the vertices in VS. *)
type temporal = {
  m : int;
  pivot : int;
  ilo : int;
  ihi : int;
  run_lo : int array;
  run_hi : int array;
  unavail : int array;
  av : Timetable.Availability.t array;
  mutable ts_lo : int;
  mutable ts_hi : int;
}

type state = {
  fg : Engine.Feasible.t;
  p : int;
  k : int;
  cfg : config;
  stats : stats;
  order : int array;    (* candidate pick order *)
  by_dist : int array;  (* the same candidates by distance, for Lemmas 2 and 3 *)
  in_vs : bool array;
  in_va : bool array;
  nbr_vs : int array;   (* per vertex: #neighbours currently in VS *)
  nbr_va : int array;   (* per vertex: #neighbours currently in VA *)
  visited : int array;  (* round id at which the vertex was last examined *)
  mutable round : int;
  mutable vs_size : int;
  mutable va_size : int;
  mutable vs_list : int list;
  mutable td : float;
  mutable sum_nbr_va : int;  (* Σ_{v∈VA} nbr_va(v), maintained incrementally *)
  sink : sink;
  temporal : temporal option;
  budget : Budget.t;
}

let eps = 1e-9

(* Raised (no-trace: purely for control flow) when the budget trips at a
   checkpoint.  It unwinds the whole search; the per-solve state is
   discarded, so no undo is needed on this path. *)
exception Stop

(* ------------------------------------------------------------------ *)
(* State transitions, all O(deg) with exact inverses.                  *)

let unavail_adjust tc v delta =
  for t = tc.ilo to tc.ihi do
    if not (Timetable.Availability.available tc.av.(v) t) then
      tc.unavail.(t - tc.ilo) <- tc.unavail.(t - tc.ilo) + delta
  done

let remove_from_va st v =
  st.in_va.(v) <- false;
  st.va_size <- st.va_size - 1;
  st.sum_nbr_va <- st.sum_nbr_va - st.nbr_va.(v);
  Bitset.iter
    (fun w ->
      st.nbr_va.(w) <- st.nbr_va.(w) - 1;
      if st.in_va.(w) then st.sum_nbr_va <- st.sum_nbr_va - 1)
    st.fg.nbr.(v);
  match st.temporal with Some tc -> unavail_adjust tc v (-1) | None -> ()

let restore_to_va st v =
  Bitset.iter
    (fun w ->
      st.nbr_va.(w) <- st.nbr_va.(w) + 1;
      if st.in_va.(w) then st.sum_nbr_va <- st.sum_nbr_va + 1)
    st.fg.nbr.(v);
  st.in_va.(v) <- true;
  st.va_size <- st.va_size + 1;
  st.sum_nbr_va <- st.sum_nbr_va + st.nbr_va.(v);
  match st.temporal with Some tc -> unavail_adjust tc v 1 | None -> ()

(* Returns the TS interval to restore on undo. *)
let add_to_vs st v =
  remove_from_va st v;
  st.in_vs.(v) <- true;
  st.vs_size <- st.vs_size + 1;
  st.vs_list <- v :: st.vs_list;
  st.td <- st.td +. st.fg.dist.(v);
  Bitset.iter (fun w -> st.nbr_vs.(w) <- st.nbr_vs.(w) + 1) st.fg.nbr.(v);
  match st.temporal with
  | Some tc ->
      let saved = (tc.ts_lo, tc.ts_hi) in
      tc.ts_lo <- max tc.ts_lo tc.run_lo.(v);
      tc.ts_hi <- min tc.ts_hi tc.run_hi.(v);
      saved
  | None -> (0, 0)

let remove_from_vs st v (saved_lo, saved_hi) =
  st.in_vs.(v) <- false;
  st.vs_size <- st.vs_size - 1;
  (* [v] was pushed last, so it is the head. *)
  st.vs_list <- (match st.vs_list with _ :: rest -> rest | [] -> assert false);
  st.td <- st.td -. st.fg.dist.(v);
  Bitset.iter (fun w -> st.nbr_vs.(w) <- st.nbr_vs.(w) - 1) st.fg.nbr.(v);
  (match st.temporal with
  | Some tc ->
      tc.ts_lo <- saved_lo;
      tc.ts_hi <- saved_hi
  | None -> ());
  restore_to_va st v

(* ------------------------------------------------------------------ *)
(* Access-ordering measures (Definitions 2, 3, 5).                     *)

(* Non-neighbours of [w] within VS, excluding [w] itself. *)
let nn_vs st w = st.vs_size - (if st.in_vs.(w) then 1 else 0) - st.nbr_vs.(w)

(* U(VS ∪ {u}) for a candidate u ∈ VA. *)
let interior_unfamiliarity st u =
  let adj = Engine.Feasible.adjacent st.fg in
  let worst =
    List.fold_left
      (fun acc w ->
        let nn = nn_vs st w + (if adj w u then 0 else 1) in
        max acc nn)
      0 st.vs_list
  in
  max worst (st.vs_size - st.nbr_vs.(u))

(* A(VS ∪ {u}) with VA' = VA - {u} (Definition 3). *)
let exterior_expansibility st u =
  let adj = Engine.Feasible.adjacent st.fg in
  let of_member w =
    let a = if adj w u then 1 else 0 in
    let in_va' = st.nbr_va.(w) - a in
    let quota = st.k - (nn_vs st w + (1 - a)) in
    in_va' + quota
  in
  let u_val = st.nbr_va.(u) + st.k - (st.vs_size - st.nbr_vs.(u)) in
  List.fold_left (fun acc w -> min acc (of_member w)) u_val st.vs_list

(* X(VS ∪ {u}) = |TS ∩ run_u| - m (Definition 5). *)
let temporal_extensibility tc u =
  let lo = max tc.ts_lo tc.run_lo.(u) in
  let hi = min tc.ts_hi tc.run_hi.(u) in
  hi - lo + 1 - tc.m

(* ------------------------------------------------------------------ *)
(* Pruning lemmas, evaluated at every node-loop iteration.             *)

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

(* Lemma 2: no completion of VS gets strictly below the bound.  Ties are
   pruned too; the sinks keep only strictly better groups. *)
let distance_prunes st =
  st.cfg.use_distance_pruning
  &&
  let bound = st.sink.bound () in
  Float.is_finite bound
  && st.td +. cheapest st.fg st.by_dist ~needed:(st.p - st.vs_size) (fun v -> st.in_va.(v))
     >= bound -. eps

(* Lemma 3, safe form by default (see DESIGN.md).  The sum of inner
   degrees is maintained incrementally; the minimum is only scanned when
   the sum alone cannot decide, and that scan exits at the first vertex
   disproving the prune. *)
let acquaintance_prunes st =
  st.cfg.use_acquaintance_pruning
  &&
  let needed = st.p - st.vs_size in
  let per_vertex =
    if st.cfg.unsafe_lemma3 then needed - st.k else needed - 1 - st.k
  in
  per_vertex > 0
  &&
  let rhs = needed * per_vertex in
  st.sum_nbr_va < rhs
  ||
  (* prune <=> sum - (|VA|-needed)·min < rhs <=> min > (sum-rhs)/(|VA|-needed) *)
  st.va_size > needed
  &&
  let threshold = (st.sum_nbr_va - rhs) / (st.va_size - needed) in
  let n = Array.length st.by_dist in
  let[@lint.bounded] rec all_above i =
    if i >= n then true
    else
      let v = st.by_dist.(i) in
      if st.in_va.(v) && st.nbr_va.(v) <= threshold then false else all_above (i + 1)
  in
  all_above 0

(* Lemma 5. *)
let availability_prunes st =
  st.cfg.use_availability_pruning
  &&
  match st.temporal with
  | None -> false
  | Some tc ->
      let needed = st.p - st.vs_size in
      let n = st.va_size - needed + 1 in
      let blocked t = tc.unavail.(t - tc.ilo) >= n in
      let[@lint.bounded] rec up t = if t > tc.ihi then tc.ihi + 1 else if blocked t then t else up (t + 1) in
      let[@lint.bounded] rec down t = if t < tc.ilo then tc.ilo - 1 else if blocked t then t else down (t - 1) in
      let t_plus = up (tc.pivot + 1) in
      let t_minus = down (tc.pivot - 1) in
      t_plus - t_minus <= tc.m

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

let rec node st =
  st.stats.nodes <- st.stats.nodes + 1;
  checkpoint st;
  let removed = ref [] in
  let theta = ref st.cfg.theta0 in
  let phi = ref st.cfg.phi0 in
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
  let pick () =
    let n = Array.length st.order in
    let[@lint.bounded] rec go i =
      if i >= n then begin
        cursor := n;
        None
      end
      else
        let v = st.order.(i) in
        if st.in_va.(v) && st.visited.(v) <> !current_round then begin
          cursor := i;
          Some v
        end
        else go (i + 1)
    in
    go !cursor
  in
  let remove_here v =
    remove_from_va st v;
    removed := v :: !removed
  in
  let fp = float_of_int st.p in
  let rec loop () =
    if st.vs_size + st.va_size < st.p then ()
    else if distance_prunes st then
      st.stats.pruned_distance <- st.stats.pruned_distance + 1
    else if acquaintance_prunes st then
      st.stats.pruned_acquaintance <- st.stats.pruned_acquaintance + 1
    else if availability_prunes st then
      st.stats.pruned_availability <- st.stats.pruned_availability + 1
    else
      match pick () with
      | None ->
          if !theta > 0 then begin
            decr theta;
            new_round ();
            loop ()
          end
          else if st.temporal <> None && !phi < st.cfg.phi_threshold then begin
            incr phi;
            new_round ();
            loop ()
          end
          else ()
      | Some u ->
          st.visited.(u) <- !current_round;
          st.stats.examined <- st.stats.examined + 1;
          if exterior_expansibility st u < st.p - (st.vs_size + 1) then begin
            st.stats.removed_exterior <- st.stats.removed_exterior + 1;
            remove_here u;
            loop ()
          end
          else begin
            let unfamiliarity = float_of_int (interior_unfamiliarity st u) in
            let interior_rhs =
              float_of_int st.k
              *. Float.pow (float_of_int (st.vs_size + 1) /. fp) (float_of_int !theta)
            in
            if unfamiliarity > interior_rhs +. 1e-12 then begin
              if !theta = 0 then begin
                st.stats.removed_interior <- st.stats.removed_interior + 1;
                remove_here u
              end
              else
                (* at theta > 0: deferred — retried at a lower theta *)
                st.stats.deferred <- st.stats.deferred + 1;
              loop ()
            end
            else begin
              let temporal_ok =
                match st.temporal with
                | None -> `Ok
                | Some tc ->
                    let x = float_of_int (temporal_extensibility tc u) in
                    let rhs =
                      if !phi >= st.cfg.phi_threshold then 0.
                      else
                        float_of_int (tc.m - 1)
                        *. Float.pow
                             (float_of_int (st.p - (st.vs_size + 1)) /. fp)
                             (float_of_int !phi)
                    in
                    if x >= rhs -. 1e-12 then `Ok
                    else if !phi >= st.cfg.phi_threshold then `Remove
                    else `Skip
              in
              match temporal_ok with
              | `Remove ->
                  st.stats.removed_temporal <- st.stats.removed_temporal + 1;
                  remove_here u;
                  loop ()
              | `Skip ->
                  (* deferred: retried once phi relaxes *)
                  st.stats.deferred <- st.stats.deferred + 1;
                  loop ()
              | `Ok ->
                  st.stats.includes <- st.stats.includes + 1;
                  let saved_ts = add_to_vs st u in
                  if st.vs_size = st.p then record_best st else node st;
                  remove_from_vs st u saved_ts;
                  remove_here u;
                  loop ()
            end
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
  let in_vs = Array.make size false in
  let in_va = Array.make size false in
  Array.iter (fun v -> in_va.(v) <- true) order;
  in_vs.(q) <- true;
  let nbr_vs = Array.make size 0 in
  let nbr_va = Array.make size 0 in
  Bitset.iter (fun w -> nbr_vs.(w) <- 1) fg.Engine.Feasible.nbr.(q);
  Array.iter
    (fun v ->
      Bitset.iter (fun w -> nbr_va.(w) <- nbr_va.(w) + 1) fg.Engine.Feasible.nbr.(v))
    order;
  (match temporal with
  | Some tc ->
      (* Unavailability counts of the initial VA over the pivot interval. *)
      Array.iter (fun v -> unavail_adjust tc v 1) order
  | None -> ());
  {
    fg;
    p;
    k;
    cfg;
    stats;
    order;
    by_dist;
    in_vs;
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

let solve_social_out ?eligible ?bound_init ?budget ctx ~p ~k ~config ~stats =
  let cell = ref None in
  let completion =
    solve_social_sink ?eligible ?budget ctx ~p ~k ~config ~stats
      ~sink:(best_sink ?bound_init cell)
  in
  Anytime.make ~completion
    ~gap_of:(fun f -> gap ?eligible ctx.Engine.Context.fg ~p f.distance)
    !cell

let pivots avail ~m =
  Timetable.Window.pivots ~horizon:(Timetable.Availability.horizon avail.(0)) ~m

let solve_temporal_sink ?(budget = Budget.unlimited) (ctx : Engine.Context.t)
    ~avail ~p ~k ~m ~pivots ~config ~stats ~sink =
  let fg = ctx.Engine.Context.fg in
  let size = Engine.Feasible.size fg in
  let q = fg.Engine.Feasible.q in
  let h = Timetable.Availability.horizon avail.(q) in
  (* Each pivot writes a member's run before reading it. *)
  let run_lo = Array.make size 1 and run_hi = Array.make size 0 in
  let free v = run_hi.(v) - run_lo.(v) + 1 >= m in
  let explore_pivot pivot =
    let ilo, ihi = Timetable.Window.interval ~horizon:h ~m pivot in
    let set_run v =
      match Timetable.Availability.run_around avail.(v) pivot with
      | Some (lo, hi) ->
          run_lo.(v) <- max lo ilo;
          run_hi.(v) <- min hi ihi
      | None ->
          run_lo.(v) <- 1;
          run_hi.(v) <- 0
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
              av = avail;
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
