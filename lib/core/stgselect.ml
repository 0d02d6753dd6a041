type report = {
  solution : Query.stg_solution option;
  outcome : Query.stg_solution Anytime.outcome;
  stats : Search_core.stats;
  feasible_size : int;
  pivots_scanned : int;
}

let log = Logs.Src.create "stgq.stgselect" ~doc:"STGSelect query processing"

module Log = (val Logs.src_log log)

(* Convert a [found]-level outcome into solution space.  A found group
   without a window start is an internal invariant violation; it is
   logged and dropped, degrading a [Feasible_best] to [Exhausted]. *)
let convert_outcome fg (found : Search_core.found Anytime.outcome) =
  let conv (f : Search_core.found) =
    match f.window_start with
    | Some start_slot ->
        Some
          {
            Query.st_attendees = Engine.Feasible.originals fg f.group;
            st_total_distance = f.distance;
            start_slot;
          }
    | None ->
        Log.err (fun m_ ->
            m_ "temporal search delivered a group without a window start; \
                dropping the (invalid) answer");
        None
  in
  match found with
  | Anytime.Optimal None -> Anytime.Optimal None
  | Anytime.Optimal (Some f) -> Anytime.Optimal (conv f)
  | Anytime.Feasible_best { best; gap; reason } -> (
      match conv best with
      | Some s -> Anytime.Feasible_best { best = s; gap; reason }
      | None -> Anytime.Exhausted reason)
  | Anytime.Exhausted reason -> Anytime.Exhausted reason

let solve_report ?(config = Search_core.default_config) ?ctx ?initial_bound
    ?budget (ti : Query.temporal_instance) (query : Query.stgq) =
  Obs.Trace.with_span "stgselect.solve"
    ~attrs:
      [
        ("p", string_of_int query.p);
        ("s", string_of_int query.s);
        ("k", string_of_int query.k);
        ("m", string_of_int query.m);
      ]
  @@ fun () ->
  Query.check_stgq query;
  let ctx, avail = Query.stg_context ?ctx ti ~s:query.s in
  let fg = ctx.Engine.Context.fg in
  let pivots = Search_core.pivots avail ~m:query.m in
  Obs.Trace.add_attrs
    [
      ("feasible", string_of_int (Engine.Feasible.size fg));
      ("pivots", string_of_int (List.length pivots));
    ];
  let stats = Search_core.fresh_stats () in
  let found =
    Search_core.solve_temporal_out ?bound_init:initial_bound ?budget ctx ~avail
      ~p:query.p ~k:query.k ~m:query.m ~pivots ~config ~stats
  in
  Instr.record_search stats;
  Log.debug (fun m_ ->
      m_ "STGQ(p=%d,s=%d,k=%d,m=%d): |V_F|=%d, %d pivots, %d nodes, %s" query.p
        query.s query.k query.m (Engine.Feasible.size fg) (List.length pivots)
        stats.Search_core.nodes
        (match found with
        | Anytime.Optimal (Some f) -> Printf.sprintf "optimum %g" f.Search_core.distance
        | Anytime.Optimal None -> "infeasible"
        | Anytime.Feasible_best { best; gap; _ } ->
            Printf.sprintf "anytime %g (gap <= %g)" best.Search_core.distance gap
        | Anytime.Exhausted reason ->
            Printf.sprintf "exhausted (%s)" (Budget.reason_name reason)));
  let outcome = convert_outcome fg found in
  {
    solution = Anytime.solution outcome;
    outcome;
    stats;
    feasible_size = Engine.Feasible.size fg;
    pivots_scanned = List.length pivots;
  }

let solve ?config ?ctx ?initial_bound ti query =
  (solve_report ?config ?ctx ?initial_bound ti query).solution
