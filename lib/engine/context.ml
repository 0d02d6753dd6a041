type t = {
  graph : Socgraph.Graph.t;
  initiator : int;
  s : int;
  fg : Feasible.t;
  horizon : int;
  avail : Timetable.Availability.t array;
  pivot_memo : (int * int list) list Atomic.t;
}

let m_builds = Obs.counter "engine.context.builds"

let build ?schedules graph ~initiator ~s =
  Faultinject.fire Faultinject.Context_build;
  Obs.Counter.incr m_builds;
  Obs.Trace.with_span "context.build"
    ~attrs:[ ("initiator", string_of_int initiator); ("s", string_of_int s) ]
  @@ fun () ->
  let fg = Feasible.extract graph ~initiator ~s in
  let horizon, avail =
    match schedules with
    | None -> (0, [||])
    | Some schedules ->
        if Array.length schedules <> Socgraph.Graph.n_vertices graph then
          invalid_arg "Engine.Context.build: need one schedule per vertex";
        (* Only the ball's calendars are read here; the whole array's
           horizon is checked once, where it is installed
           ({!Cache.create}). *)
        let avail = Array.map (fun orig -> schedules.(orig)) fg.Feasible.of_sub in
        let horizon = Timetable.Availability.horizon avail.(fg.Feasible.q) in
        Array.iter
          (fun a ->
            if Timetable.Availability.horizon a <> horizon then
              invalid_arg "Engine.Context.build: schedules disagree on horizon")
          avail;
        (horizon, avail)
  in
  { graph; initiator; s; fg; horizon; avail; pivot_memo = Atomic.make [] }

let has_schedules t = Array.length t.avail > 0

let pivots t ~m =
  if not (has_schedules t) then
    invalid_arg "Engine.Context.pivots: social-only context has no time axis";
  if m < 1 then invalid_arg "Engine.Context.pivots: m must be >= 1";
  match List.assoc_opt m (Atomic.get t.pivot_memo) with
  | Some ps -> ps
  | None ->
      let ps = Timetable.Window.pivots ~horizon:t.horizon ~m in
      (* CAS retry loop: a concurrent solver may have extended the memo
         since we read it; losing the race just means recomputing a
         deterministic list, so one retry pass suffices. *)
      let rec publish () =
        let cur = Atomic.get t.pivot_memo in
        match List.assoc_opt m cur with
        | Some ps -> ps
        | None ->
            if Atomic.compare_and_set t.pivot_memo cur ((m, ps) :: cur) then ps
            else publish ()
      in
      publish ()

let ensure_for t ~initiator ~s =
  if t.initiator <> initiator then
    invalid_arg "Engine.Context: cached context belongs to another initiator";
  if t.s <> s then
    invalid_arg "Engine.Context: cached context was built for another s"
