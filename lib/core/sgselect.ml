type report = {
  solution : Query.sg_solution option;
  outcome : Query.sg_solution Anytime.outcome;
  stats : Search_core.stats;
  feasible_size : int;
}

let log = Logs.Src.create "stgq.sgselect" ~doc:"SGSelect query processing"

module Log = (val Logs.src_log log)

let solve_report ?(config = Search_core.default_config) ?ctx ?initial_bound
    ?budget (instance : Query.instance) (query : Query.sgq) =
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
    Search_core.solve_social_out ?bound_init:initial_bound ?budget ctx
      ~p:query.p ~k:query.k ~config ~stats
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

let solve ?config ?ctx ?initial_bound instance query =
  (solve_report ?config ?ctx ?initial_bound instance query).solution

(* A cheap beam pass seeds the incumbent bound: Lemma-2 pruning is active
   from the first node instead of waiting for the first feasible leaf.
   The +eps keeps solutions equal to the seed reachable, so the result is
   still the exact optimum (and never worse than the seed).  One context
   serves both passes. *)
let solve_warm ?config ?(beam_width = 16) instance (query : Query.sgq) =
  Query.check_sgq query;
  let ctx = Query.sg_context instance ~s:query.s in
  let seed = Heuristics.beam_sgq ~width:beam_width ~ctx instance query in
  let initial_bound =
    Option.map (fun (s : Query.sg_solution) -> s.total_distance +. 1e-6) seed
  in
  solve ?config ~ctx ?initial_bound instance query
