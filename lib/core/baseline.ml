type sg_report = {
  solution : Query.sg_solution option;
  outcome : Query.sg_solution Anytime.outcome;
  groups_examined : int;
  feasible_size : int;
}

(* Internal, no-trace: unwinds the enumeration when a cap or budget
   trips; the trip reason is recorded before raising. *)
exception Stop

(* Acquaintance check over sub-ids: every member may have at most [k]
   non-neighbours among the other members. *)
let acquaintance_ok fg ~k group =
  let size = List.length group in
  List.for_all
    (fun v ->
      let nbrs =
        List.fold_left
          (fun acc w -> if w <> v && Engine.Feasible.adjacent fg v w then acc + 1 else acc)
          0 group
      in
      size - 1 - nbrs <= k)
    group

(* Enumerate all (p-1)-subsets of [candidates] joined with q, tracking the
   best qualified group.  [candidates] is an int array of sub-ids.
   Total: a [max_groups] cap or a budget trip ends the enumeration and is
   reported as the returned reason ([None] = ran to completion); the cap
   maps to [Budget.Node_limit] (one "node" = one examined group). *)
let enumerate fg ~p ~k ~candidates ~budget ~max_groups ~examined ~consider =
  let q = fg.Engine.Feasible.q in
  let n = Array.length candidates in
  let chosen = Array.make (max 0 (p - 1)) 0 in
  let stopped = ref None in
  let halt reason =
    stopped := Some reason;
    raise_notrace Stop
  in
  let rec go depth first td =
    if depth = p - 1 then begin
      incr examined;
      if !examined > max_groups then halt Budget.Node_limit;
      if !examined land (Budget.check_interval - 1) = 0 then begin
        match Budget.charge budget Budget.check_interval with
        | Some reason -> halt reason
        | None -> ()
      end;
      let group = q :: Array.to_list chosen in
      if acquaintance_ok fg ~k group then consider group td
    end
    else
      for i = first to n - (p - 1 - depth) do
        let v = candidates.(i) in
        chosen.(depth) <- v;
        go (depth + 1) (i + 1) (td +. fg.Engine.Feasible.dist.(v))
      done
  in
  (try if p - 1 <= n then go 0 0 0. with Stop -> ());
  !stopped

let sg_gap fg ~p (s : Query.sg_solution) = Search_core.gap fg ~p s.total_distance

let sgq_brute ?(max_groups = max_int) ?(budget = Budget.unlimited) instance
    (query : Query.sgq) =
  Query.check_sgq query;
  let fg =
    Engine.Feasible.extract instance.Query.graph ~initiator:instance.initiator ~s:query.s
  in
  let size = Engine.Feasible.size fg in
  let candidates =
    Array.of_list
      (List.filter (fun v -> v <> fg.Engine.Feasible.q) (List.init size Fun.id))
  in
  let examined = ref 0 in
  let best = ref None in
  let consider group td =
    match !best with
    | Some (btd, _) when td >= btd -. 1e-12 -> ()
    | _ -> best := Some (td, group)
  in
  let completion =
    enumerate fg ~p:query.p ~k:query.k ~candidates ~budget ~max_groups ~examined
      ~consider
  in
  let solution =
    Option.map
      (fun (td, group) ->
        { Query.attendees = Engine.Feasible.originals fg group; total_distance = td })
      !best
  in
  let outcome = Anytime.make ~completion ~gap_of:(sg_gap fg ~p:query.p) solution in
  { solution; outcome; groups_examined = !examined; feasible_size = size }

type stg_report = {
  st_solution : Query.stg_solution option;
  st_outcome : Query.stg_solution Anytime.outcome;
  windows_scanned : int;
  groups_examined : int;
}

let stg_gap fg ~p (s : Query.stg_solution) = Search_core.gap fg ~p s.st_total_distance

(* Shared scaffolding of the per-period baselines: scan every start slot,
   restrict candidates to members available throughout the window, solve
   the social subproblem with [solve_window] (which reports its own trip,
   if any).  The scan stops at the first trip but keeps the best answer
   found so far. *)
let per_window (ti : Query.temporal_instance) (query : Query.stgq) ~budget
    ~solve_window =
  Query.check_stgq query;
  Query.check_temporal_instance ti;
  let fg =
    Engine.Feasible.extract ti.social.graph ~initiator:ti.social.initiator ~s:query.s
  in
  let avail = Engine.Feasible.slab fg ti.schedules in
  let horizon = Timetable.Availability.horizon avail.(fg.Engine.Feasible.q) in
  let windows = ref 0 in
  let best = ref None in
  let stopped = ref None in
  let start = ref 0 in
  while !stopped = None && !start <= horizon - query.m do
    let s = !start in
    (match Budget.check budget with
    | Some _ as r -> stopped := r
    | None ->
        if
          Timetable.Availability.window_free avail.(fg.Engine.Feasible.q) ~start:s
            ~len:query.m
        then begin
          incr windows;
          let eligible v =
            Timetable.Availability.window_free avail.(v) ~start:s ~len:query.m
          in
          let result, stop = solve_window fg ~eligible in
          (match result with
          | None -> ()
          | Some (td, group) -> (
              match !best with
              | Some (btd, _, _) when td >= btd -. 1e-12 -> ()
              | _ -> best := Some (td, group, s)));
          stopped := stop
        end);
    incr start
  done;
  let st_solution =
    Option.map
      (fun (td, group, s) ->
        {
          Query.st_attendees = Engine.Feasible.originals fg group;
          st_total_distance = td;
          start_slot = s;
        })
      !best
  in
  let st_outcome =
    Anytime.make ~completion:!stopped ~gap_of:(stg_gap fg ~p:query.p) st_solution
  in
  (st_solution, st_outcome, !windows)

(* The paper's "intuitive approach" resolves a complete, independent SGQ
   per activity period: the radius graph is re-extracted for every window
   and availability is checked slot by slot — none of the work is shared
   across periods.  (The property-test oracle [stgq_brute] below shares
   the extraction; only this benchmarked baseline models the naive cost.) *)
let stgq_per_slot ?(budget = Budget.unlimited) ti (query : Query.stgq) =
  Query.check_stgq query;
  Query.check_temporal_instance ti;
  let horizon = Timetable.Availability.horizon ti.schedules.(0) in
  let naive_window_free a start =
    let[@lint.bounded] rec go o = o >= query.m || (Timetable.Availability.available a (start + o) && go (o + 1)) in
    go 0
  in
  let stats = Search_core.fresh_stats () in
  let windows = ref 0 in
  let best = ref None in
  let stopped = ref None in
  let start = ref 0 in
  let last_fg = ref None in
  while !stopped = None && !start <= horizon - query.m do
    let s = !start in
    incr windows;
    (* A full SGQ from scratch for this period: a throwaway context
       (radius extraction and all), then a slot-by-slot availability
       scan over every candidate. *)
    let ctx = Query.sg_context ti.social ~s:query.s in
    let fg = ctx.Engine.Context.fg in
    last_fg := Some fg;
    let available =
      Array.init (Engine.Feasible.size fg) (fun v ->
          naive_window_free ti.schedules.(fg.Engine.Feasible.of_sub.(v)) s)
    in
    if available.(fg.Engine.Feasible.q) then begin
      let consider distance group =
        match !best with
        | Some (btd, _, _) when distance >= btd -. 1e-12 -> ()
        | _ -> best := Some (distance, Engine.Feasible.originals fg group, s)
      in
      match
        Search_core.solve_social_out
          ~eligible:(fun v -> available.(v))
          ~budget ctx ~p:query.p ~k:query.k ~config:Search_core.default_config
          ~stats
      with
      | Anytime.Optimal None -> ()
      | Anytime.Optimal (Some { Search_core.group; distance; _ }) ->
          consider distance group
      | Anytime.Feasible_best { best = { Search_core.group; distance; _ }; reason; _ }
        ->
          (* A truncated window still yields a feasible group for this
             window — usable as the running incumbent. *)
          consider distance group;
          stopped := Some reason
      | Anytime.Exhausted reason -> stopped := Some reason
    end;
    incr start
  done;
  let st_solution =
    Option.map
      (fun (td, attendees, s) ->
        { Query.st_attendees = attendees; st_total_distance = td; start_slot = s })
      !best
  in
  let st_outcome =
    let gap_of sol =
      match !last_fg with Some fg -> stg_gap fg ~p:query.p sol | None -> infinity
    in
    Anytime.make ~completion:!stopped ~gap_of st_solution
  in
  { st_solution; st_outcome; windows_scanned = !windows; groups_examined = 0 }

let stgq_brute ?(max_groups = max_int) ?(budget = Budget.unlimited) ti
    (query : Query.stgq) =
  let examined = ref 0 in
  let solve_window fg ~eligible =
    let size = Engine.Feasible.size fg in
    let candidates =
      Array.of_list
        (List.filter
           (fun v -> v <> fg.Engine.Feasible.q && eligible v)
           (List.init size Fun.id))
    in
    let best = ref None in
    let consider group td =
      match !best with
      | Some (btd, _) when td >= btd -. 1e-12 -> ()
      | _ -> best := Some (td, group)
    in
    let stop =
      enumerate fg ~p:query.p ~k:query.k ~candidates ~budget ~max_groups ~examined
        ~consider
    in
    (!best, stop)
  in
  let st_solution, st_outcome, windows = per_window ti query ~budget ~solve_window in
  { st_solution; st_outcome; windows_scanned = windows; groups_examined = !examined }
