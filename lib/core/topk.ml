type entry = {
  attendees : int list;
  total_distance : float;
  start_slot : int option;
}

(* The heap holds (distance, sorted group, window).  [seen] deduplicates
   groups reached through several pivots; the first (hence
   earliest-pivot) window is kept.  The bound only tightens once [n]
   groups are held — before that the search must run unbounded, exactly
   like single-best search before its first incumbent. *)
let make_sink ~n =
  let cmp (da, ga, _) (db, gb, _) = compare (da, ga) (db, gb) in
  let kept = Pqueue.Bounded.create ~capacity:n ~cmp in
  let seen = Hashtbl.create 64 in
  let offer (f : Search_core.found) =
    let key = f.Search_core.group in
    if not (Hashtbl.mem seen key) then begin
      let element = (f.Search_core.distance, key, f.Search_core.window_start) in
      if Pqueue.Bounded.add kept element then begin
        (* Rebuild the membership index: an admission may have evicted a
           group, which must become re-offerable. *)
        Hashtbl.reset seen;
        List.iter
          (fun (_, g, _) -> Hashtbl.replace seen g ())
          (Pqueue.Bounded.to_sorted_list kept)
      end
    end
  in
  let bound () =
    if Pqueue.Bounded.is_full kept then
      match Pqueue.Bounded.worst kept with Some (d, _, _) -> d | None -> infinity
    else infinity
  in
  (kept, { Search_core.offer; bound })

let entries_of fg kept =
  List.map
    (fun (d, group, window) ->
      {
        attendees = Engine.Feasible.originals fg group;
        total_distance = d;
        start_slot = window;
      })
    (Pqueue.Bounded.to_sorted_list kept)

let sgq ?budget ~n instance (query : Query.sgq) =
  Query.check_sgq query;
  if n < 0 then invalid_arg "Topk.sgq: negative n";
  let ctx = Query.sg_context instance ~s:query.s in
  let kept, sink = make_sink ~n in
  let stats = Search_core.fresh_stats () in
  ignore
    (Search_core.solve_social_sink ?budget ctx ~p:query.p ~k:query.k
       ~config:Search_core.default_config ~stats ~sink
      : Budget.reason option);
  entries_of ctx.Engine.Context.fg kept

let stgq ?budget ~n (ti : Query.temporal_instance) (query : Query.stgq) =
  Query.check_stgq query;
  if n < 0 then invalid_arg "Topk.stgq: negative n";
  let ctx, avail = Query.stg_context ti ~s:query.s in
  let pivots = Search_core.pivots avail ~m:query.m in
  let kept, sink = make_sink ~n in
  let stats = Search_core.fresh_stats () in
  ignore
    (Search_core.solve_temporal_sink ?budget ctx ~avail ~p:query.p ~k:query.k
       ~m:query.m ~pivots ~config:Search_core.default_config ~stats ~sink
      : Budget.reason option);
  entries_of ctx.Engine.Context.fg kept
