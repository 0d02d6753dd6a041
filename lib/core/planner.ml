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
      (* by original vertex id; the context's avail slab aliases these *)
  pivots : int array;
  cache : Search_core.found option array;      (* per-pivot optimum *)
}

let solve_pivot t pivot =
  let stats = Search_core.fresh_stats () in
  Search_core.solve_temporal t.ctx ~p:t.query.Query.p ~k:t.query.Query.k
    ~m:t.query.Query.m ~pivots:[ pivot ] ~config:t.config ~stats

let create ?(config = Search_core.default_config) (ti : Query.temporal_instance)
    (query : Query.stgq) =
  Query.check_stgq query;
  Query.check_temporal_instance ti;
  let schedules = Array.map Timetable.Availability.copy ti.schedules in
  let ctx =
    Engine.Context.build ~schedules ti.social.Query.graph
      ~initiator:ti.social.Query.initiator ~s:query.s
  in
  let pivots = Array.of_list (Engine.Context.pivots ctx ~m:query.m) in
  let t =
    { config; query; ctx; schedules; pivots; cache = Array.map (fun _ -> None) pivots }
  in
  Array.iteri (fun i pivot -> t.cache.(i) <- solve_pivot t pivot) pivots;
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
  let horizon = t.ctx.Engine.Context.horizon in
  if Timetable.Availability.horizon schedule <> horizon then
    invalid_arg "Planner.update_schedule: horizon mismatch";
  let old_schedule = t.schedules.(vertex) in
  let changed slot =
    Timetable.Availability.available old_schedule slot
    <> Timetable.Availability.available schedule slot
  in
  let dirty_pivot pivot =
    let lo, hi = Timetable.Window.interval ~horizon ~m:t.query.Query.m pivot in
    let rec scan slot = slot <= hi && (changed slot || scan (slot + 1)) in
    scan lo
  in
  let dirty =
    (* Only members of the feasible graph influence results, but the
       schedule copy is refreshed regardless. *)
    if Feasible.sub_id t.ctx.Engine.Context.fg vertex < 0 then [||]
    else Array.map dirty_pivot t.pivots
  in
  (* Install the new calendar in place so the sub-id aliases see it. *)
  let bits_new = Timetable.Availability.bits schedule in
  let bits_old = Timetable.Availability.bits old_schedule in
  Bitset.fill bits_old false;
  Bitset.iter (fun slot -> Bitset.set bits_old slot) bits_new;
  let recomputed = ref 0 in
  Array.iteri
    (fun i pivot ->
      if i < Array.length dirty && dirty.(i) then begin
        incr recomputed;
        t.cache.(i) <- solve_pivot t pivot
      end)
    t.pivots;
  { pivots_total = Array.length t.pivots; pivots_recomputed = !recomputed }

let schedules t = Array.map Timetable.Availability.copy t.schedules
