type update_stats = {
  pivots_total : int;
  pivots_recomputed : int;
}

let log = Logs.Src.create "stgq.planner" ~doc:"Incremental STGQ planner"

module Log = (val Logs.src_log log)

type t = {
  config : Search_core.config;
  query : Query.stgq;
  ctx : Engine.Context.t;
  schedules : Timetable.Availability.t array;
      (* by original vertex id, private: an update replaces an entry
         with a copy and never writes a calendar *)
  pivots : int array;
  cache : Search_core.found option array;      (* per-pivot optimum *)
}

let solve_pivot t ~avail pivot =
  let stats = Search_core.fresh_stats () in
  Search_core.solve_temporal t.ctx ~avail ~p:t.query.Query.p ~k:t.query.Query.k
    ~m:t.query.Query.m ~pivots:[ pivot ] ~config:t.config ~stats

let create ?(config = Search_core.default_config) (ti : Query.temporal_instance)
    (query : Query.stgq) =
  Query.check_stgq query;
  let schedules = Array.map Timetable.Availability.copy ti.schedules in
  let ctx, avail = Feasible.temporal { ti with schedules } ~s:query.s in
  let pivots = Array.of_list (Search_core.pivots avail ~m:query.m) in
  let t =
    { config; query; ctx; schedules; pivots; cache = Array.map (fun _ -> None) pivots }
  in
  Array.iteri (fun i pivot -> t.cache.(i) <- solve_pivot t ~avail pivot) pivots;
  t

let solution t =
  let best =
    Array.fold_left
      (fun acc found ->
        match (acc, found) with
        | None, f -> f
        | Some a, Some b ->
            let key (f : Search_core.found) =
              (f.Search_core.distance, f.Search_core.window_start)
            in
            if key b < key a then Some b else Some a
        | Some a, None -> Some a)
      None t.cache
  in
  match best with
  | None -> None
  | Some f -> (
      match Search_core.temporal_solution t.ctx.Engine.Context.fg f with
      | Ok s -> Some s
      | Error (Search_core.Missing_window _) ->
          Log.err (fun m_ ->
              m_ "temporal search delivered a group without a window start; \
                  dropping the (invalid) answer");
          None)

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
    if Feasible.sub_id fg vertex < 0 then [||] else Array.map dirty_pivot t.pivots
  in
  t.schedules.(vertex) <- Timetable.Availability.copy schedule;
  let avail = Feasible.slab fg t.schedules in
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
