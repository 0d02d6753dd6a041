type report = {
  solution : Query.stg_solution option;
  outcome : Query.stg_solution Anytime.outcome;
  domains_used : int;
  total_nodes : int;
}

let log = Logs.Src.create "stgq.parallel" ~doc:"Multicore STGSelect"

module Log = (val Logs.src_log log)

let round_robin chunks items =
  let buckets = Array.make chunks [] in
  List.iteri (fun i x -> buckets.(i mod chunks) <- x :: buckets.(i mod chunks)) items;
  Array.map List.rev buckets

(* Every bucket shares one budget: node charges aggregate across domains
   and the first trip latches, so a deadline hit in one bucket is
   observed by its siblings at their next checkpoint — a cancelled batch
   cannot strand in-flight buckets. *)
let bucket_job ~config ~budget ctx ~avail (query : Query.stgq) bucket () =
  Obs.Trace.with_span "parallel.bucket"
    ~attrs:[ ("pivots", string_of_int (List.length bucket)) ]
  @@ fun () ->
  let stats = Search_core.fresh_stats () in
  let out =
    Search_core.solve_temporal_out ~budget ctx ~avail ~p:query.p ~k:query.k
      ~m:query.m ~pivots:bucket ~config ~stats
  in
  (* Runs on a worker domain; counters are per-domain sharded, so this
     publish never contends with sibling buckets.  The search-stat attrs
     land on this bucket's span. *)
  Instr.record_search stats;
  (out, stats.Search_core.nodes)

let finish ctx ~n_domains ~(query : Query.stgq) ~budget results =
  let total_nodes = List.fold_left (fun acc (_, n) -> acc + n) 0 results in
  let best =
    List.fold_left
      (fun acc (out, _) -> Search_core.best_of acc (Anytime.solution out))
      None results
  in
  let completion =
    if List.for_all (fun (out, _) -> Anytime.complete out) results then None
    else
      match Budget.tripped budget with
      | Some _ as r -> r
      | None -> List.find_map (fun (out, _) -> Anytime.reason out) results
  in
  let fg = ctx.Engine.Context.fg in
  let outcome =
    Stgselect.convert_outcome fg
      (Anytime.make ~completion
         ~gap_of:(fun (f : Search_core.found) -> Search_core.gap fg ~p:query.p f.distance)
         best)
  in
  (match Anytime.reason outcome with
  | Some reason ->
      Log.debug (fun m_ ->
          m_ "parallel solve truncated (%s) after %d nodes"
            (Budget.reason_name reason) total_nodes)
  | None -> ());
  { solution = Anytime.solution outcome; outcome; domains_used = n_domains; total_nodes }

let solve_report ?(config = Search_core.default_config) ?domains ?pool ?ctx
    ?(budget = Budget.unlimited) (ti : Query.temporal_instance)
    (query : Query.stgq) =
  Obs.Trace.with_span "parallel.solve"
    ~attrs:
      [
        ("p", string_of_int query.p);
        ("k", string_of_int query.k);
        ("m", string_of_int query.m);
      ]
  @@ fun () ->
  Query.check_stgq query;
  let ctx, avail = Query.stg_context ?ctx ti ~s:query.s in
  let pivots = Search_core.pivots avail ~m:query.m in
  let pool = match pool with Some p -> p | None -> Engine.Pool.default () in
  let wanted =
    match domains with Some d -> max 1 d | None -> Engine.Pool.size pool
  in
  let n_domains = max 1 (min wanted (List.length pivots)) in
  Obs.Trace.add_attrs [ ("domains", string_of_int n_domains) ];
  let buckets = round_robin n_domains pivots in
  let jobs =
    Array.to_list
      (Array.map
         (fun bucket -> bucket_job ~config ~budget ctx ~avail query bucket)
         buckets)
  in
  finish ctx ~n_domains ~query ~budget
    (Engine.Pool.await_all (List.map (Engine.Pool.submit pool) jobs))

let solve ?config ?domains ?pool ?ctx ?budget ti query =
  (solve_report ?config ?domains ?pool ?ctx ?budget ti query).solution
