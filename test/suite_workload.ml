(* Workload generators: shapes, determinism, and end-to-end solvability of
   the packaged scenarios. *)

open Stgq_core

let check = Alcotest.check

let test_people194_shape () =
  let ds = Workload.People194.generate ~seed:1 ~days:2 () in
  check Alcotest.int "194 people" 194 (Socgraph.Graph.n_vertices ds.Workload.People194.graph);
  check Alcotest.int "194 schedules" 194 (Array.length ds.Workload.People194.schedules);
  check Alcotest.int "community labels" 194 (Array.length ds.Workload.People194.communities);
  let stats = Socgraph.Metrics.degree_stats ds.Workload.People194.graph in
  check Alcotest.bool "plausible mean degree" true
    (stats.Socgraph.Metrics.mean_degree > 5. && stats.Socgraph.Metrics.mean_degree < 40.);
  let ws = Socgraph.Metrics.weight_stats ds.Workload.People194.graph in
  check Alcotest.bool "distances within worked-example scale" true
    (ws.Socgraph.Metrics.min_weight >= 5. && ws.Socgraph.Metrics.max_weight <= 35.)

let test_people194_community_structure () =
  let ds = Workload.People194.generate ~seed:1 ~days:1 () in
  let g = ds.Workload.People194.graph in
  let c = ds.Workload.People194.communities in
  (* Intra-community edges must dominate. *)
  let intra, inter =
    List.fold_left
      (fun (i, o) (u, v, _) -> if c.(u) = c.(v) then (i + 1, o) else (i, o + 1))
      (0, 0) (Socgraph.Graph.edges g)
  in
  check Alcotest.bool "community-dominated" true (intra > inter)

let test_people194_determinism () =
  let a = Workload.People194.generate ~seed:7 ~days:1 () in
  let b = Workload.People194.generate ~seed:7 ~days:1 () in
  check Alcotest.bool "same graph" true
    (Socgraph.Graph.edges a.Workload.People194.graph
    = Socgraph.Graph.edges b.Workload.People194.graph)

let test_coauthor_shape () =
  let ds = Workload.Coauthor.generate ~seed:2 ~days:1 ~n:800 () in
  check Alcotest.int "800 people" 800 (Socgraph.Graph.n_vertices ds.Workload.Coauthor.graph);
  check Alcotest.int "800 schedules" 800 (Array.length ds.Workload.Coauthor.schedules);
  let stats = Socgraph.Metrics.degree_stats ds.Workload.Coauthor.graph in
  check Alcotest.bool "heavy tail" true
    (float_of_int stats.Socgraph.Metrics.max_degree
    > 3. *. stats.Socgraph.Metrics.mean_degree)

let test_interaction_distance_bounds () =
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 500 do
    let close_d = Workload.People194.interaction_distance rng ~close:true in
    let far_d = Workload.People194.interaction_distance rng ~close:false in
    check Alcotest.bool "in range" true
      (close_d >= 5. && close_d <= 35. && far_d >= 5. && far_d <= 35.)
  done;
  (* On average, intra-community pairs are closer. *)
  let mean close_flag =
    let acc = ref 0. in
    for _ = 1 to 2000 do
      acc := !acc +. Workload.People194.interaction_distance rng ~close:close_flag
    done;
    !acc /. 2000.
  in
  check Alcotest.bool "close < far on average" true (mean true < mean false)

let test_scenario_end_to_end () =
  let ti = Workload.Scenario.people194 ~seed:11 ~days:2 () in
  Query.check_temporal_instance ti;
  (* The packaged scenario must admit typical paper queries. *)
  (match Sgselect.solve ti.Query.social { Query.p = 4; s = 1; k = 2 } with
  | Some s ->
      check Alcotest.bool "SGQ valid" true
        (Validate.is_valid_sg ti.Query.social { Query.p = 4; s = 1; k = 2 } s)
  | None -> Alcotest.fail "expected SGQ solvable on 194-person scenario");
  match Stgselect.solve ti { Query.p = 3; s = 1; k = 2; m = 4 } with
  | Some s ->
      check Alcotest.bool "STGQ valid" true
        (Validate.is_valid_stg ti { Query.p = 3; s = 1; k = 2; m = 4 } s)
  | None -> Alcotest.fail "expected STGQ solvable on 194-person scenario"

let test_people194_units_are_cliques () =
  (* Tier-1 structure: every vertex belongs to a near-clique "unit" —
     verified by each vertex having at least 8 mutually-adjacent close
     neighbours (unit size is 9-14). *)
  let ds = Workload.People194.generate ~seed:5 ~days:1 () in
  let g = ds.Workload.People194.graph in
  let c = ds.Workload.People194.communities in
  let sample = [ 0; 25; 60; 100; 150; 193 ] in
  List.iter
    (fun v ->
      let close_intra =
        Socgraph.Graph.fold_neighbors g v
          (fun u w acc -> if c.(u) = c.(v) && w <= 15. then u :: acc else acc)
          []
      in
      check Alcotest.bool
        (Printf.sprintf "vertex %d has a unit" v)
        true
        (List.length close_intra >= 8))
    sample

let test_people194_strong_ties_cross_communities () =
  let ds = Workload.People194.generate ~seed:5 ~days:1 () in
  let g = ds.Workload.People194.graph in
  let c = ds.Workload.People194.communities in
  (* Edges cheaper than every unit edge (w < 5+0 .. below 8 is possible
     for both tiers; use < 10 and cross) must exist and be cross-community
     by construction of tier 3. *)
  let strong_cross =
    List.filter (fun (u, v, w) -> w < 8. && c.(u) <> c.(v)) (Socgraph.Graph.edges g)
  in
  check Alcotest.bool "strong cross ties exist" true (List.length strong_cross > 20)

let test_schedule_rhythms_differ_by_community () =
  (* A student (community 0) and an office worker (community 1) should
     have low weekday-availability overlap relative to two students. *)
  let ds = Workload.People194.generate ~seed:5 ~days:5 () in
  let sched = ds.Workload.People194.schedules in
  let c = ds.Workload.People194.communities in
  let members comm =
    List.filter (fun v -> c.(v) = comm) (List.init 194 Fun.id)
  in
  let overlap a b =
    Timetable.Availability.free_count (Timetable.Availability.common [ sched.(a); sched.(b) ])
  in
  let avg pairs =
    let total = List.fold_left (fun acc (a, b) -> acc + overlap a b) 0 pairs in
    float_of_int total /. float_of_int (List.length pairs)
  in
  let students = members 0 and office = members 1 in
  let intra_pairs =
    match students with
    | a :: b :: c' :: d :: _ -> [ (a, b); (c', d); (a, d) ]
    | _ -> Alcotest.fail "not enough students"
  in
  let cross_pairs =
    match (students, office) with
    | a :: b :: _, x :: y :: _ -> [ (a, x); (b, y); (a, y) ]
    | _ -> Alcotest.fail "not enough members"
  in
  check Alcotest.bool "same-rhythm pairs overlap more" true
    (avg intra_pairs > avg cross_pairs)

let test_pick_initiator () =
  let g = Socgraph.Graph.of_edges 4 [ (0, 1, 1.); (0, 2, 1.); (0, 3, 1.); (1, 2, 1.) ] in
  check Alcotest.int "rank 0 is the hub" 0 (Workload.Scenario.pick_initiator ~rank:0 g);
  check Alcotest.bool "rank beyond n clamps" true
    (Workload.Scenario.pick_initiator ~rank:99 g < 4)

let suite =
  [
    Alcotest.test_case "people194 shape" `Quick test_people194_shape;
    Alcotest.test_case "people194 communities" `Quick test_people194_community_structure;
    Alcotest.test_case "people194 determinism" `Quick test_people194_determinism;
    Alcotest.test_case "coauthor shape" `Quick test_coauthor_shape;
    Alcotest.test_case "interaction distances" `Quick test_interaction_distance_bounds;
    Alcotest.test_case "scenario end-to-end" `Quick test_scenario_end_to_end;
    Alcotest.test_case "units are near-cliques" `Quick test_people194_units_are_cliques;
    Alcotest.test_case "strong ties cross communities" `Quick
      test_people194_strong_ties_cross_communities;
    Alcotest.test_case "rhythms differ by community" `Quick
      test_schedule_rhythms_differ_by_community;
    Alcotest.test_case "pick_initiator" `Quick test_pick_initiator;
  ]
