type update_stats = {
  pivots_total : int;
  pivots_recomputed : int;
}

type t = {
  query : Query.stgq;
  ctx : Engine.Context.t;
  schedules : Timetable.Availability.t array;
      (* by original vertex id, private: an update replaces an entry
         with a copy and never writes a calendar *)
  pivots : int array;
  cache : Search_core.found option array;      (* per-pivot optimum *)
}

(* Unbudgeted, so the outcome is [Optimal]. *)
let solve_pivot t ~avail pivot =
  Anytime.solution
    (Search_core.solve_temporal_out t.ctx ~avail ~p:t.query.Query.p
       ~k:t.query.Query.k ~m:t.query.Query.m ~pivots:[ pivot ]
       ~config:Search_core.default_config
       ~stats:(Search_core.fresh_stats ()))

let create (ti : Query.temporal_instance) (query : Query.stgq) =
  Query.check_stgq query;
  let schedules = Array.map Timetable.Availability.copy ti.schedules in
  let ctx, avail = Query.stg_context { ti with schedules } ~s:query.s in
  let pivots = Array.of_list (Search_core.pivots avail ~m:query.m) in
  let t =
    { query; ctx; schedules; pivots; cache = Array.map (fun _ -> None) pivots }
  in
  Array.iteri (fun i pivot -> t.cache.(i) <- solve_pivot t ~avail pivot) pivots;
  t

let solution t =
  Anytime.solution
    (Stgselect.convert_outcome t.ctx.Engine.Context.fg
       (Anytime.Optimal (Array.fold_left Search_core.best_of None t.cache)))

let update_schedule t ~vertex schedule =
  if vertex < 0 || vertex >= Array.length t.schedules then
    invalid_arg "Planner.update_schedule: vertex out of range";
  let old_schedule = t.schedules.(vertex) in
  let horizon = Timetable.Availability.horizon old_schedule in
  if Timetable.Availability.horizon schedule <> horizon then
    invalid_arg "Planner.update_schedule: horizon mismatch";
  let changed slot =
    Timetable.Availability.available old_schedule slot
    <> Timetable.Availability.available schedule slot
  in
  let dirty_pivot pivot =
    let lo, hi = Timetable.Window.interval ~horizon ~m:t.query.Query.m pivot in
    let rec scan slot = slot <= hi && (changed slot || scan (slot + 1)) in
    scan lo
  in
  let fg = t.ctx.Engine.Context.fg in
  let dirty =
    (* Only members of the feasible graph influence results, but the
       schedule copy is refreshed regardless. *)
    if Engine.Feasible.sub_id fg vertex < 0 then [||] else Array.map dirty_pivot t.pivots
  in
  t.schedules.(vertex) <- Timetable.Availability.copy schedule;
  let avail = Engine.Feasible.slab fg t.schedules in
  let recomputed = ref 0 in
  Array.iteri
    (fun i pivot ->
      if i < Array.length dirty && dirty.(i) then begin
        incr recomputed;
        t.cache.(i) <- solve_pivot t ~avail pivot
      end)
    t.pivots;
  { pivots_total = Array.length t.pivots; pivots_recomputed = !recomputed }

let schedules t = Array.map Timetable.Availability.copy t.schedules
