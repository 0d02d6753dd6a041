let log = Logs.Src.create "stgq.engine.batch" ~doc:"Batched multi-query planning"

module Log = (val Logs.src_log log)

let m_batches = Obs.counter "engine.batch.batches"

let m_queries = Obs.counter "engine.batch.queries"

let m_groups = Obs.counter "engine.batch.groups"

let m_size = Obs.histogram ~unit_:Obs.Count "engine.batch.size"

let m_reuse = Obs.gauge "engine.batch.context_reuse_pct"

let m_overlap = Obs.gauge "engine.batch.pipeline_overlap_pct"

type 'req group = {
  g_initiator : int;
  g_s : int;
  g_members : (int * 'req) list;  (* original input index, request *)
}

(* Stable grouping: groups come out in first-appearance order of their
   key, members in input order — so the whole schedule is deterministic
   for a given request list. *)
let group_by key reqs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iteri
    (fun i req ->
      let k = key req in
      match Hashtbl.find_opt tbl k with
      | Some cell -> cell := (i, req) :: !cell
      | None ->
          Hashtbl.add tbl k (ref [ (i, req) ]);
          order := k :: !order)
    reqs;
  List.rev_map
    (fun ((initiator, s) as k) ->
      let members =
        match Hashtbl.find_opt tbl k with
        | Some cell -> List.rev !cell
        | None -> []
      in
      { g_initiator = initiator; g_s = s; g_members = members })
    !order

let run ?pool ~cache ~key ?(warm = fun _ _ -> ()) ~solve reqs =
  match reqs with
  | [] -> []
  | _ ->
      let groups = group_by key reqs in
      let n_queries = List.length reqs in
      let n_groups = List.length groups in
      Obs.Counter.incr m_batches;
      Obs.Counter.add m_queries n_queries;
      Obs.Counter.add m_groups n_groups;
      List.iter
        (fun g ->
          Obs.Histogram.observe m_size (float_of_int (List.length g.g_members)))
        groups;
      Obs.Gauge.set m_reuse (100 * (n_queries - n_groups) / n_queries);
      Log.debug (fun m ->
          m "batch of %d queries in %d groups" n_queries n_groups);
      Obs.Trace.with_span "batch.run"
        ~attrs:
          [
            ("queries", string_of_int n_queries);
            ("groups", string_of_int n_groups);
          ]
      @@ fun () ->
      let results = Array.make n_queries None in
      (* Build-time accounting for the pipeline-overlap gauge: [hidden]
         is the part of context-build time that ran while the caller was
         still solving the previous group. *)
      let total_build = ref 0. in
      let hidden = ref 0. in
      (* Fetch the group's shared context and pre-warm its memoized
         artifacts.  Runs on a pool worker when pipelined; everything it
         captures is immutable or internally locked (the cache). *)
      let fetch g () =
        let t0 = Obs.now_ns () in
        let found = Cache.lookup cache ~initiator:g.g_initiator ~s:g.g_s in
        List.iter (fun (_, req) -> warm found.Cache.ctx req) g.g_members;
        (found, Obs.now_ns () -. t0)
      in
      let solve_group g found ~overlap_ns =
        Obs.Trace.with_span "batch.group"
          ~attrs:
            [
              ("initiator", string_of_int g.g_initiator);
              ("s", string_of_int g.g_s);
              ("size", string_of_int (List.length g.g_members));
              ("pipeline.overlap_ns", string_of_int (int_of_float overlap_ns));
            ]
        @@ fun () ->
        List.iter (fun (i, req) -> results.(i) <- Some (solve found req)) g.g_members
      in
      (match pool with
      | None ->
          (* No pipeline: builds are inline, sharing still applies. *)
          List.iter
            (fun g ->
              let found, build_ns = fetch g () in
              total_build := !total_build +. build_ns;
              solve_group g found ~overlap_ns:0.)
            groups
      | Some pool ->
          (* Pipeline: the build for group k+1 is in flight on a worker
             while the caller solves group k; the await below only pays
             whatever the solves did not already hide. *)
          let rec loop g fut rest =
            let t0 = Obs.now_ns () in
            let found, build_ns = Pool.await fut in
            let wait_ns = Obs.now_ns () -. t0 in
            let overlap_ns = Float.max 0. (build_ns -. wait_ns) in
            total_build := !total_build +. build_ns;
            hidden := !hidden +. overlap_ns;
            let next =
              match rest with
              | [] -> None
              | g' :: rest' -> Some (g', Pool.submit pool (fetch g'), rest')
            in
            solve_group g found ~overlap_ns;
            match next with
            | None -> ()
            | Some (g', fut', rest') -> loop g' fut' rest'
          in
          (match groups with
          | [] -> ()
          | g :: rest -> loop g (Pool.submit pool (fetch g)) rest));
      if !total_build > 0. then
        Obs.Gauge.set m_overlap
          (int_of_float (100. *. !hidden /. !total_build));
      Obs.Trace.add_attrs
        [ ("pipeline.hidden_ns", string_of_int (int_of_float !hidden)) ];
      Array.to_list
        (Array.map (function Some r -> r | None -> assert false) results)
