type result = {
  attendees : int list;
  total_distance : float;
  start_slot : int;
  observed_k : int;
  calls_made : int;
}

(* Manual coordination, as §5.1 describes it: the initiator first invites
   her p-1 closest friends (social closeness is what a person dials by),
   then looks for the activity period suiting the most invitees, commits
   to it, and backfills empty seats with the next-closest friends who can
   make the committed time.  The two lossy steps — inviting before
   checking calendars, and committing to one period — are exactly what a
   phone coordinator does and what STGSelect avoids. *)
let run (ti : Query.temporal_instance) ~p ~s ~m =
  Query.check_stgq { p; s; k = 0; m };
  Query.check_temporal_instance ti;
  let fg = Engine.Feasible.extract ti.social.graph ~initiator:ti.social.initiator ~s in
  let avail = Engine.Feasible.slab fg ti.schedules in
  let q = fg.Engine.Feasible.q in
  let horizon = Timetable.Availability.horizon avail.(q) in
  let by_distance = Array.to_list fg.Engine.Feasible.by_dist in
  let rec split n = function
    | [] -> ([], [])
    | l when n = 0 -> ([], l)
    | x :: rest ->
        let taken, left = split (n - 1) rest in
        (x :: taken, left)
  in
  let invited, reserve = split (p - 1) by_distance in
  if List.length invited < p - 1 then None
  else begin
    let free v start = Timetable.Availability.window_free avail.(v) ~start ~len:m in
    (* The time is settled early, with the inner circle: the period that
       suits the most of the first few (closest) invitees; earliest on
       ties.  Later invitees must take it or leave it. *)
    let inner_circle, _ = split (max 1 ((p - 1) / 3)) invited in
    let best_start = ref (-1) and best_count = ref (-1) in
    for start = 0 to horizon - m do
      if free q start then begin
        let count = List.length (List.filter (fun v -> free v start) inner_circle) in
        if count > !best_count then begin
          best_count := count;
          best_start := start
        end
      end
    done;
    if !best_start < 0 then None
    else begin
      let start = !best_start in
      let confirmed = List.filter (fun v -> free v start) invited in
      (* Backfill the declined seats from the reserve, closest first. *)
      let rec backfill group missing calls = function
        | _ when missing = 0 -> Some (group, calls)
        | [] -> None
        | v :: rest ->
            if free v start then backfill (v :: group) (missing - 1) (calls + 1) rest
            else backfill group missing (calls + 1) rest
      in
      let missing = p - 1 - List.length confirmed in
      match backfill (q :: confirmed) missing (List.length invited) reserve with
      | None -> None
      | Some (group, calls) ->
          let observed_k =
            List.fold_left
              (fun acc v ->
                let nn =
                  List.fold_left
                    (fun c w ->
                      if w <> v && not (Engine.Feasible.adjacent fg v w) then c + 1 else c)
                    0 group
                in
                max acc nn)
              0 group
          in
          Some
            {
              attendees = Engine.Feasible.originals fg group;
              total_distance = Engine.Feasible.total_distance fg group;
              start_slot = start;
              observed_k;
              calls_made = calls;
            }
    end
  end
