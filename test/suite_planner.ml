(* Incremental planner: after any schedule edit, the cached answer must
   equal a fresh STGSelect run. *)

open Stgq_core

let close a b = Float.abs (a -. b) <= 1e-6

(* Bit for bit: the same attendees, start slot and distance. *)
let agree planner ti query =
  let fresh =
    Stgselect.solve { ti with Query.schedules = Planner.schedules planner } query
  in
  match (Planner.solution planner, fresh) with
  | None, None -> true
  | Some a, Some b ->
      a.Query.st_attendees = b.Query.st_attendees
      && a.Query.start_slot = b.Query.start_slot
      && Float.equal a.Query.st_total_distance b.Query.st_total_distance
  | _ -> false

let mutate_schedule rng horizon =
  let a = Timetable.Availability.create ~horizon in
  let runs = 1 + Random.State.int rng 3 in
  for _ = 1 to runs do
    let lo = Random.State.int rng horizon in
    let len = 1 + Random.State.int rng (horizon / 2) in
    Timetable.Availability.set_free a lo (min (horizon - 1) (lo + len - 1))
  done;
  a

let prop_planner_tracks_edits =
  Gen.qtest ~count:60 "planner = fresh solve after every edit" (Gen.stg_case ~max_n:7 ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let planner = Planner.create ti query in
      let rng = Random.State.make [| case.Gen.horizon; case.Gen.m |] in
      let ok = ref (agree planner ti query) in
      for _ = 1 to 4 do
        let vertex = Random.State.int rng case.Gen.sg.Gen.n in
        let schedule = mutate_schedule rng case.Gen.horizon in
        let stats = Planner.update_schedule planner ~vertex schedule in
        if stats.Planner.pivots_recomputed > stats.Planner.pivots_total then ok := false;
        if not (agree planner ti query) then ok := false
      done;
      !ok)

let test_localized_edit_recomputes_few_pivots () =
  (* 4 pivots (horizon 24, m=6); editing only slots 0..4 dirties just the
     first pivot's interval. *)
  let n = 4 in
  let g =
    Socgraph.Graph.of_edges n [ (0, 1, 1.); (0, 2, 2.); (1, 2, 1.); (0, 3, 4.) ]
  in
  let horizon = 24 in
  let free () =
    let a = Timetable.Availability.create ~horizon in
    Timetable.Availability.set_free a 0 (horizon - 1);
    a
  in
  let ti =
    {
      Query.social = { Query.graph = g; initiator = 0 };
      schedules = Array.init n (fun _ -> free ());
    }
  in
  let query = { Query.p = 3; s = 1; k = 1; m = 6 } in
  let planner = Planner.create ti query in
  let edited = free () in
  Timetable.Availability.set_busy edited 0 4;
  let stats = Planner.update_schedule planner ~vertex:1 edited in
  Alcotest.check Alcotest.int "four pivots" 4 stats.Planner.pivots_total;
  Alcotest.check Alcotest.int "one pivot dirtied" 1 stats.Planner.pivots_recomputed;
  match Planner.solution planner with
  | Some s ->
      Alcotest.check Alcotest.bool "still optimal" true (close s.Query.st_total_distance 3.)
  | None -> Alcotest.fail "expected a solution"

let test_edit_outside_feasible_graph_is_free () =
  let g = Socgraph.Graph.of_edges 3 [ (0, 1, 1.) ] in
  (* Vertex 2 is isolated: outside every feasible graph. *)
  let horizon = 12 in
  let free () =
    let a = Timetable.Availability.create ~horizon in
    Timetable.Availability.set_free a 0 (horizon - 1);
    a
  in
  let ti =
    {
      Query.social = { Query.graph = g; initiator = 0 };
      schedules = Array.init 3 (fun _ -> free ());
    }
  in
  let planner = Planner.create ti { Query.p = 2; s = 1; k = 0; m = 3 } in
  let busy = Timetable.Availability.create ~horizon in
  let stats = Planner.update_schedule planner ~vertex:2 busy in
  Alcotest.check Alcotest.int "no pivots recomputed" 0 stats.Planner.pivots_recomputed;
  Alcotest.check Alcotest.bool "solution unchanged" true
    (Planner.solution planner <> None)

let test_edit_can_destroy_solution () =
  let g = Socgraph.Graph.of_edges 2 [ (0, 1, 1.) ] in
  let horizon = 12 in
  let free () =
    let a = Timetable.Availability.create ~horizon in
    Timetable.Availability.set_free a 0 (horizon - 1);
    a
  in
  let ti =
    {
      Query.social = { Query.graph = g; initiator = 0 };
      schedules = [| free (); free () |];
    }
  in
  let planner = Planner.create ti { Query.p = 2; s = 1; k = 0; m = 3 } in
  Alcotest.check Alcotest.bool "initially solvable" true (Planner.solution planner <> None);
  let busy = Timetable.Availability.create ~horizon in
  let _ = Planner.update_schedule planner ~vertex:1 busy in
  Alcotest.check Alcotest.bool "now infeasible" true (Planner.solution planner = None)

let suite =
  [
    Alcotest.test_case "localized edit dirties one pivot" `Quick
      test_localized_edit_recomputes_few_pivots;
    Alcotest.test_case "edit outside feasible graph" `Quick
      test_edit_outside_feasible_graph_is_free;
    Alcotest.test_case "edit can destroy the solution" `Quick
      test_edit_can_destroy_solution;
    prop_planner_tracks_edits;
  ]
