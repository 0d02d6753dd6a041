let distances g ~src ~max_edges =
  let n = Graph.n_vertices g in
  if src < 0 || src >= n then invalid_arg "Bounded_dist.distances: src out of range";
  if max_edges < 0 then invalid_arg "Bounded_dist.distances: negative max_edges";
  let prev = Array.make n infinity in
  prev.(src) <- 0.;
  let next = Array.copy prev in
  let round = ref 0 in
  let changed = ref true in
  (* Once a round improves nothing the DP has reached its fixpoint, so
     the remaining rounds would only copy buffers back and forth. *)
  while !changed && !round < max_edges do
    incr round;
    changed := false;
    Array.blit prev 0 next 0 n;
    for v = 0 to n - 1 do
      Graph.iter_neighbors g v (fun u w ->
          let through = prev.(u) +. w in
          if through < next.(v) then begin
            next.(v) <- through;
            changed := true
          end)
    done;
    Array.blit next 0 prev 0 n
  done;
  prev

(* Keep every round's distance array so paths can be reconstructed by
   walking hop counts backwards. *)
let distance_rounds g ~src ~max_edges =
  let n = Graph.n_vertices g in
  let rounds = Array.make (max_edges + 1) [||] in
  rounds.(0) <- Array.make n infinity;
  rounds.(0).(src) <- 0.;
  for h = 1 to max_edges do
    let prev = rounds.(h - 1) in
    let next = Array.copy prev in
    for v = 0 to n - 1 do
      Graph.iter_neighbors g v (fun u w ->
          let through = prev.(u) +. w in
          if through < next.(v) then next.(v) <- through)
    done;
    rounds.(h) <- next
  done;
  rounds

let shortest_path g ~src ~max_edges ~dst =
  let n = Graph.n_vertices g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Bounded_dist.shortest_path: vertex out of range";
  if max_edges < 0 then invalid_arg "Bounded_dist.shortest_path: negative max_edges";
  let rounds = distance_rounds g ~src ~max_edges in
  let total = rounds.(max_edges).(dst) in
  if not (Float.is_finite total) then None
  else begin
    (* Walk back from (dst, max_edges); at each step either the same
       distance was already achievable with fewer hops, or some neighbour
       provides the last edge. *)
    let rec back v h acc =
      if v = src && rounds.(h).(v) = 0. then v :: acc
      else if h > 0 && rounds.(h - 1).(v) = rounds.(h).(v) then back v (h - 1) acc
      else begin
        let found = ref None in
        Graph.iter_neighbors g v (fun u w ->
            if !found = None && h > 0
               && Float.abs (rounds.(h - 1).(u) +. w -. rounds.(h).(v)) < 1e-12
            then found := Some u);
        match !found with
        | Some u -> back u (h - 1) (v :: acc)
        | None -> assert false (* a finite DP value always has a witness *)
      end
    in
    Some (back dst max_edges [], total)
  end

(* Scratch for [ball]: an n-sized distance buffer, all [infinity]
   between calls, and a byte per vertex marking membership of the next
   frontier, all zero between calls.  [ball] resets exactly the entries
   it touched before handing a buffer back, so a request pays for its
   ball, not for n.  Buffers live on a lock-free free-list rather than
   in [Domain.DLS]: the wire server runs one systhread per connection
   inside a single domain, and those threads share that domain's DLS.
   The pool is process-wide on purpose: it holds no state a caller can
   observe, only reset buffers, so it cannot break re-entrancy. *)
type scratch = { best : float array; queued : Bytes.t }

(* lint: allow toplevel-state *)
let spare : scratch list Atomic.t = Atomic.make []

(* A buffer too small for this graph is dropped for the collector. *)
let rec take n =
  match Atomic.get spare with
  | [] -> { best = Array.make n infinity; queued = Bytes.make n '\000' }
  | s :: rest as cur ->
      if not (Atomic.compare_and_set spare cur rest) then take n
      else if Array.length s.best >= n then s
      else take n

let rec give s =
  let cur = Atomic.get spare in
  if not (Atomic.compare_and_set spare cur (s :: cur)) then give s

let ball g ~src ~max_edges =
  let n = Graph.n_vertices g in
  if src < 0 || src >= n then invalid_arg "Bounded_dist.ball: src out of range";
  if max_edges < 0 then invalid_arg "Bounded_dist.ball: negative max_edges";
  let { best; queued } = take n in
  best.(src) <- 0.;
  let touched = ref [ src ] in
  let frontier = ref [ src ] in
  let round = ref 0 in
  (* Round h pushes from the vertices round h-1 improved, at the value
     round h-1 left them; a vertex that did not improve already pushed
     that value.  Reading [from] rather than [best] keeps a path to at
     most h edges even when a frontier vertex improves again during the
     round — the synchronous DP of [distances], value for value. *)
  while !frontier <> [] && !round < max_edges do
    incr round;
    let from =
      List.map
        (fun u ->
          Bytes.set queued u '\000';
          (u, best.(u)))
        !frontier
    in
    let next = ref [] in
    List.iter
      (fun (u, du) ->
        Graph.iter_neighbors g u (fun v w ->
            let through = du +. w in
            if through < best.(v) then begin
              if best.(v) = infinity then touched := v :: !touched;
              best.(v) <- through;
              if Bytes.get queued v = '\000' then begin
                Bytes.set queued v '\001';
                next := v :: !next
              end
            end))
      from;
    frontier := !next
  done;
  List.iter (fun v -> Bytes.set queued v '\000') !frontier;
  let ids = Array.of_list !touched in
  Array.sort Int.compare ids;
  let dist = Array.map (fun v -> best.(v)) ids in
  Array.iter (fun v -> best.(v) <- infinity) ids;
  give { best; queued };
  (ids, dist)
