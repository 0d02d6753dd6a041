type violation =
  | Wrong_size of { expected : int; got : int }
  | Missing_initiator
  | Duplicate_attendee of int
  | Unknown_vertex of int
  | Radius_violation of int
  | Acquaintance_violation of { vertex : int; non_neighbors : int }
  | Distance_mismatch of { reported : float; actual : float }
  | Window_out_of_range
  | Availability_violation of { vertex : int; slot : int }

let pp_violation ppf = function
  | Wrong_size { expected; got } ->
      Format.fprintf ppf "group has %d attendees, expected %d" got expected
  | Missing_initiator -> Format.pp_print_string ppf "initiator not in group"
  | Duplicate_attendee v -> Format.fprintf ppf "attendee %d listed twice" v
  | Unknown_vertex v -> Format.fprintf ppf "attendee %d outside the graph" v
  | Radius_violation v -> Format.fprintf ppf "attendee %d beyond the social radius" v
  | Acquaintance_violation { vertex; non_neighbors } ->
      Format.fprintf ppf "attendee %d has %d unacquainted attendees" vertex non_neighbors
  | Distance_mismatch { reported; actual } ->
      Format.fprintf ppf "total distance reported %g, recomputed %g" reported actual
  | Window_out_of_range -> Format.pp_print_string ppf "activity window outside horizon"
  | Availability_violation { vertex; slot } ->
      Format.fprintf ppf "attendee %d unavailable at slot %d" vertex slot

(* The certifier's ball: member ids in discovery order, so each hop's
   frontier is a contiguous range, and an open-addressing table (linear
   probing, at most half full) from id to discovery position.  Both are
   sized by the ball, never by n, and are plain int arrays: a
   [Stdlib.Hashtbl] allocates a bucket per entry. *)
type ball = {
  mutable ids : int array;
  mutable count : int;
  mutable table : int array;  (* discovery position + 1; 0 = empty *)
}

(* The slot holding [v], or the empty slot where [v] would go. *)
let slot b v =
  let mask = Array.length b.table - 1 in
  let h = v * 0x9E3779B97F4A7C1 in
  let i = ref ((h lxor (h lsr 32)) land mask) in
  while b.table.(!i) <> 0 && b.ids.(b.table.(!i) - 1) <> v do
    i := (!i + 1) land mask
  done;
  !i

(* [v]'s discovery position, or -1 outside the ball. *)
let position b v = b.table.(slot b v) - 1

(* Double both arrays and rehash: the table stays at most half full. *)
let grow b =
  let ids = Array.make (2 * Array.length b.ids) 0 in
  Array.blit b.ids 0 ids 0 b.count;
  b.ids <- ids;
  b.table <- Array.make (2 * Array.length ids) 0;
  for i = 0 to b.count - 1 do
    b.table.(slot b ids.(i)) <- i + 1
  done

let add b v =
  if b.count = Array.length b.ids then grow b;
  let i = slot b v in
  if b.table.(i) = 0 then begin
    b.ids.(b.count) <- v;
    b.count <- b.count + 1;
    b.table.(i) <- b.count
  end

(* The certifier's own [s]-edge minimum distances from [q], recomputed
   over [q]'s s-hop ball only.  A breadth-first search bounded to [s]
   hops collects the ball; then the synchronous Definition-1 DP runs at
   most [s] rounds on arrays indexed by discovery position.  Every path
   of at most [s] edges from [q] stays inside the ball, so the
   restriction loses nothing, and the cost follows the ball, not n.
   It shares no code with the search's extraction
   ([Socgraph.Bounded_dist.ball]), so a distance bug there cannot
   certify itself.  Returns the ball and its distances by position. *)
let radius_distances g ~q ~s =
  if q < 0 || q >= Socgraph.Graph.n_vertices g then
    invalid_arg "Validate: initiator out of range";
  if s < 0 then invalid_arg "Validate: negative radius";
  let b = { ids = Array.make 16 0; count = 0; table = Array.make 32 0 } in
  add b q;
  let lo = ref 0 and hop = ref 0 in
  while !lo < b.count && !hop < s do
    incr hop;
    let hi = b.count in
    for i = !lo to hi - 1 do
      Socgraph.Graph.iter_neighbors g b.ids.(i) (fun v _ -> add b v)
    done;
    lo := hi
  done;
  let k = b.count in
  let prev = Array.make k infinity in
  prev.(0) <- 0.;
  let next = Array.copy prev in
  let round = ref 0 and changed = ref true in
  while !changed && !round < s do
    incr round;
    changed := false;
    for i = 0 to k - 1 do
      let du = prev.(i) in
      if Float.is_finite du then
        Socgraph.Graph.iter_neighbors g b.ids.(i) (fun v w ->
            let j = position b v in
            if j >= 0 && du +. w < next.(j) then begin
              next.(j) <- du +. w;
              changed := true
            end)
    done;
    Array.blit next 0 prev 0 k
  done;
  (b, prev)

let group_violations (instance : Query.instance) (query : Query.sgq) attendees
    reported_distance =
  let g = instance.graph and q = instance.initiator in
  let n = Socgraph.Graph.n_vertices g in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let got = List.length attendees in
  if got <> query.p then add (Wrong_size { expected = query.p; got });
  if not (List.mem q attendees) then add Missing_initiator;
  let rec dups = function
    | a :: (b :: _ as rest) ->
        if a = b then add (Duplicate_attendee a);
        dups rest
    | _ -> ()
  in
  dups (List.sort compare attendees);
  let in_range = List.filter (fun v -> v >= 0 && v < n) attendees in
  List.iter (fun v -> if not (List.mem v in_range) then add (Unknown_vertex v)) attendees;
  let ball, dist = radius_distances g ~q ~s:query.s in
  let actual = ref 0. in
  List.iter
    (fun v ->
      let j = position ball v in
      if j >= 0 && Float.is_finite dist.(j) then actual := !actual +. dist.(j)
      else add (Radius_violation v))
    in_range;
  if Float.abs (!actual -. reported_distance) > 1e-6 then
    add (Distance_mismatch { reported = reported_distance; actual = !actual });
  List.iter
    (fun v ->
      let nn =
        List.fold_left
          (fun acc w ->
            if w <> v && not (Socgraph.Graph.adjacent g v w) then acc + 1 else acc)
          0 in_range
      in
      if nn > query.k then add (Acquaintance_violation { vertex = v; non_neighbors = nn }))
    in_range;
  List.rev !violations

let check_sg instance query (solution : Query.sg_solution) =
  group_violations instance query solution.attendees solution.total_distance

let check_stg (ti : Query.temporal_instance) (query : Query.stgq)
    (solution : Query.stg_solution) =
  let social =
    group_violations ti.social (Query.sgq_of_stgq query) solution.st_attendees
      solution.st_total_distance
  in
  let horizon =
    if Array.length ti.schedules = 0 then 0
    else Timetable.Availability.horizon ti.schedules.(0)
  in
  let temporal = ref [] in
  let start = solution.start_slot in
  if start < 0 || start + query.m > horizon then temporal := [ Window_out_of_range ]
  else
    List.iter
      (fun v ->
        if v >= 0 && v < Array.length ti.schedules then
          for slot = start to start + query.m - 1 do
            if not (Timetable.Availability.available ti.schedules.(v) slot) then
              temporal := Availability_violation { vertex = v; slot } :: !temporal
          done)
      solution.st_attendees;
  social @ List.rev !temporal

let is_valid_sg instance query solution = check_sg instance query solution = []
let is_valid_stg ti query solution = check_stg ti query solution = []

exception Certificate_failure of violation list

let () =
  Printexc.register_printer (function
    | Certificate_failure violations ->
        Some
          (Format.asprintf "Certificate_failure: %a"
             (Format.pp_print_list
                ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
                pp_violation)
             violations)
    | _ -> None)

let certify_sg instance query = function
  | None -> None
  | Some solution -> (
      Faultinject.fire Faultinject.Certify;
      match check_sg instance query solution with
      | [] -> Some solution
      | violations -> raise (Certificate_failure violations))

let certify_stg ti query = function
  | None -> None
  | Some solution -> (
      Faultinject.fire Faultinject.Certify;
      match check_stg ti query solution with
      | [] -> Some solution
      | violations -> raise (Certificate_failure violations))
