type report = {
  solution : Query.sg_solution option;
  outcome : Query.sg_solution Anytime.outcome;
  stats : Search_core.stats;
  feasible_size : int;
}

let log = Logs.Src.create "stgq.sgselect" ~doc:"SGSelect query processing"

module Log = (val Logs.src_log log)

let solve_report ?(config = Search_core.default_config) ?ctx ?budget
    (instance : Query.instance) (query : Query.sgq) =
  Obs.Trace.with_span "sgselect.solve"
    ~attrs:
      [
        ("p", string_of_int query.p);
        ("s", string_of_int query.s);
        ("k", string_of_int query.k);
      ]
  @@ fun () ->
  Query.check_sgq query;
  let ctx = Query.sg_context ?ctx instance ~s:query.s in
  let fg = ctx.Engine.Context.fg in
  let size = Engine.Feasible.size fg in
  Obs.Trace.add_attrs [ ("feasible", string_of_int size) ];
  let stats = Search_core.fresh_stats () in
  let found =
    Search_core.solve_social_out ?budget ctx ~p:query.p ~k:query.k ~config ~stats
  in
  Instr.record_search stats;
  Log.debug (fun m ->
      m "SGQ(p=%d,s=%d,k=%d): |V_F|=%d, %d nodes, %s" query.p query.s query.k
        size stats.Search_core.nodes
        (match found with
        | Anytime.Optimal (Some f) -> Printf.sprintf "optimum %g" f.Search_core.distance
        | Anytime.Optimal None -> "infeasible"
        | Anytime.Feasible_best { best; gap; _ } ->
            Printf.sprintf "anytime %g (gap <= %g)" best.Search_core.distance gap
        | Anytime.Exhausted reason ->
            Printf.sprintf "exhausted (%s)" (Budget.reason_name reason)));
  let outcome =
    Anytime.map
      (fun { Search_core.group; distance; _ } ->
        { Query.attendees = Engine.Feasible.originals fg group; total_distance = distance })
      found
  in
  { solution = Anytime.solution outcome; outcome; stats; feasible_size = size }

let solve ?config ?ctx instance query =
  (solve_report ?config ?ctx instance query).solution
