(* The beam admits a candidate only when the partial group still
   satisfies the acquaintance bound outright — a sound filter because
   non-neighbour counts only grow as the group grows. *)

let partial_ok fg ~k group v =
  let nn_of x others =
    List.fold_left
      (fun acc w ->
        if w <> x && not (Engine.Feasible.adjacent fg x w) then acc + 1 else acc)
      0 others
  in
  let extended = v :: group in
  List.for_all (fun x -> nn_of x extended <= k) extended

(* Temporal runs around a pivot. *)
let pivot_runs fg ~m ~avail pivot =
  let h = Timetable.Availability.horizon avail.(fg.Engine.Feasible.q) in
  let ilo, ihi = Timetable.Window.interval ~horizon:h ~m pivot in
  let run v =
    match Timetable.Availability.run_around avail.(v) pivot with
    | Some (lo, hi) -> (max lo ilo, min hi ihi)
    | None -> (1, 0)
  in
  Array.init (Engine.Feasible.size fg) run

type 'state beam_node = {
  group : int list;
  size : int;
  td : float;
  next : int;      (* next candidate index: enumerate each set once *)
  state : 'state;  (* temporal interval, or unit *)
}

let beam_social fg ~p ~k ~width ~eligible ~shrink ~init_state ~budget =
  let cands = fg.Engine.Feasible.by_dist in
  let f = Array.length cands in
  let cmp a b = compare (a.td, a.group) (b.td, b.group) in
  let level =
    ref
      [ { group = [ fg.Engine.Feasible.q ]; size = 1; td = 0.; next = 0; state = init_state } ]
  in
  let result = ref None in
  (* Per-level budget poll: a beam level is polynomial work, so a trip is
     observed promptly without a per-candidate check. *)
  while !result = None && !level <> [] && Budget.check budget = None do
    let keep = Pqueue.Bounded.create ~capacity:width ~cmp in
    List.iter
      (fun node ->
        for i = node.next to f - 1 do
          let v = cands.(i) in
          if eligible v && partial_ok fg ~k node.group v then
            match shrink node.state v with
            | Some state' ->
                ignore
                  (Pqueue.Bounded.add keep
                     {
                       group = v :: node.group;
                       size = node.size + 1;
                       td = node.td +. fg.Engine.Feasible.dist.(v);
                       next = i + 1;
                       state = state';
                     }
                    : bool)
            | None -> ()
        done)
      !level;
    let next_level = Pqueue.Bounded.to_sorted_list keep in
    (match next_level with
    | best :: _ when best.size = p -> result := Some best
    | _ -> ());
    level := (if (match next_level with n :: _ -> n.size = p | [] -> true) then [] else next_level)
  done;
  !result

let beam_sgq ?(width = 32) ?ctx ?(budget = Budget.unlimited)
    (instance : Query.instance) (query : Query.sgq) =
  Query.check_sgq query;
  if width < 1 then invalid_arg "Heuristics.beam_sgq: width must be >= 1";
  let fg = (Query.sg_context ?ctx instance ~s:query.s).Engine.Context.fg in
  if query.p = 1 then Some { Query.attendees = [ instance.initiator ]; total_distance = 0. }
  else
    beam_social fg ~p:query.p ~k:query.k ~width ~eligible:(fun _ -> true)
      ~shrink:(fun () _ -> Some ())
      ~init_state:() ~budget
    |> Option.map (fun node ->
           {
             Query.attendees = Engine.Feasible.originals fg node.group;
             total_distance = node.td;
           })

let beam_stgq ?(width = 32) ?ctx ?(budget = Budget.unlimited)
    (ti : Query.temporal_instance) (query : Query.stgq) =
  Query.check_stgq query;
  if width < 1 then invalid_arg "Heuristics.beam_stgq: width must be >= 1";
  let ctx, avail = Query.stg_context ?ctx ti ~s:query.s in
  let fg = ctx.Engine.Context.fg in
  let best = ref None in
  List.iter
    (fun pivot ->
      let runs = pivot_runs fg ~m:query.m ~avail pivot in
      let len (lo, hi) = hi - lo + 1 in
      (* Per-pivot budget poll: tripped => remaining pivots are skipped
         and the best answer so far stands. *)
      if Budget.check budget = None && len runs.(fg.Engine.Feasible.q) >= query.m then begin
        let shrink (lo, hi) v =
          let rlo, rhi = runs.(v) in
          let lo' = max lo rlo and hi' = min hi rhi in
          if hi' - lo' + 1 >= query.m then Some (lo', hi') else None
        in
        let found =
          if query.p = 1 then
            Some
              {
                group = [ fg.Engine.Feasible.q ];
                size = 1;
                td = 0.;
                next = 0;
                state = runs.(fg.Engine.Feasible.q);
              }
          else
            beam_social fg ~p:query.p ~k:query.k ~width
              ~eligible:(fun v -> len runs.(v) >= query.m)
              ~shrink ~init_state:runs.(fg.Engine.Feasible.q) ~budget
        in
        match found with
        | Some node -> (
            let lo, _ = node.state in
            match !best with
            | Some (btd, _, _) when btd <= node.td +. 1e-12 -> ()
            | _ -> best := Some (node.td, node.group, lo))
        | None -> ()
      end)
    (Search_core.pivots avail ~m:query.m);
  Option.map
    (fun (td, group, start) ->
      {
        Query.st_attendees = Engine.Feasible.originals fg group;
        st_total_distance = td;
        start_slot = start;
      })
    !best
