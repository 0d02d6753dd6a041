(* Heuristic solvers: always valid, never better than the exact optimum,
   and beam approaches exact as the width grows. *)

open Stgq_core

(* At width 1 the beam is the greedy scan: each level keeps only the
   nearest candidate that fits. *)
let prop_beam1_sgq_sound =
  Gen.qtest ~count:200 "beam SGQ at width 1 valid and >= optimum" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let exact = Sgselect.solve instance case.Gen.query in
      match Heuristics.beam_sgq ~width:1 instance case.Gen.query with
      | None -> true (* a greedy scan may fail where exact succeeds *)
      | Some h -> (
          Validate.is_valid_sg instance case.Gen.query h
          &&
          match exact with
          | None -> false (* a valid heuristic answer proves feasibility *)
          | Some e -> h.Query.total_distance >= e.Query.total_distance -. 1e-6))

let prop_beam_sgq_sound =
  Gen.qtest ~count:150 "beam SGQ valid and >= optimum" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let exact = Sgselect.solve instance case.Gen.query in
      match Heuristics.beam_sgq ~width:8 instance case.Gen.query with
      | None -> true
      | Some h -> (
          Validate.is_valid_sg instance case.Gen.query h
          &&
          match exact with
          | None -> false
          | Some e -> h.Query.total_distance >= e.Query.total_distance -. 1e-6))

let prop_wide_beam_often_exact =
  (* With width >= the number of candidate groups the beam cannot lose
     the optimum: every feasible partial survives every level. *)
  Gen.qtest ~count:100 "very wide beam = exact" (Gen.sg_case ~max_n:8 ~max_p:4 ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let exact = Sgselect.solve instance case.Gen.query in
      let beam = Heuristics.beam_sgq ~width:100000 instance case.Gen.query in
      match (exact, beam) with
      | None, None -> true
      | Some e, Some b ->
          Float.abs (e.Query.total_distance -. b.Query.total_distance) <= 1e-6
      | Some _, None | None, Some _ -> false)

let prop_beam1_stgq_sound =
  Gen.qtest ~count:100 "beam STGQ at width 1 valid and >= optimum" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let exact = Stgselect.solve ti query in
      match Heuristics.beam_stgq ~width:1 ti query with
      | None -> true
      | Some h -> (
          Validate.is_valid_stg ti query h
          &&
          match exact with
          | None -> false
          | Some e -> h.Query.st_total_distance >= e.Query.st_total_distance -. 1e-6))

let prop_beam_stgq_sound =
  Gen.qtest ~count:100 "beam STGQ valid and >= optimum" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let exact = Stgselect.solve ti query in
      match Heuristics.beam_stgq ~width:8 ti query with
      | None -> true
      | Some h -> (
          Validate.is_valid_stg ti query h
          &&
          match exact with
          | None -> false
          | Some e -> h.Query.st_total_distance >= e.Query.st_total_distance -. 1e-6))

let prop_exhaustive_beam_dominates =
  (* Beam width is NOT monotone in general (a flood of low-distance dead
     ends can evict the completing path), but an exhaustive-width beam
     never loses to any narrower one. *)
  Gen.qtest ~count:80 "exhaustive beam never loses to width 2"
    (Gen.sg_case ~max_n:8 ~max_p:4 ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let d w =
        Option.map
          (fun s -> s.Query.total_distance)
          (Heuristics.beam_sgq ~width:w instance case.Gen.query)
      in
      match (d 2, d 100000) with
      | Some narrow, Some wide -> wide <= narrow +. 1e-6
      | None, _ -> true
      | Some _, None -> false)

let test_greedy_trap () =
  (* A graph where the closest-first choice of a width-1 beam blocks the
     only feasible completion: q's closest friend a knows nobody else, so
     taking a first makes k=0, p=3 infeasible; the optimum is {q, b, c}. *)
  let g =
    Socgraph.Graph.of_edges 4 [ (0, 1, 1.); (0, 2, 5.); (0, 3, 5.); (2, 3, 1.) ]
  in
  let instance = { Query.graph = g; initiator = 0 } in
  let query = { Query.p = 3; s = 1; k = 0 } in
  (match Sgselect.solve instance query with
  | Some { total_distance; _ } ->
      Alcotest.check Alcotest.bool "exact finds 10" true
        (Float.abs (total_distance -. 10.) < 1e-9)
  | None -> Alcotest.fail "exact must solve the trap");
  (match Heuristics.beam_sgq ~width:1 instance query with
  | None -> () (* width 1 walked into the trap, as expected *)
  | Some h -> Alcotest.failf "width 1 escaped the trap at %g" h.Query.total_distance);
  match Heuristics.beam_sgq ~width:8 instance query with
  | Some h ->
      Alcotest.check Alcotest.bool "beam escapes the trap" true
        (Float.abs (h.Query.total_distance -. 10.) < 1e-9)
  | None -> Alcotest.fail "beam should solve the trap"

let suite =
  [
    Alcotest.test_case "greedy trap fixture" `Quick test_greedy_trap;
    prop_beam1_sgq_sound;
    prop_beam_sgq_sound;
    prop_wide_beam_often_exact;
    prop_beam1_stgq_sound;
    prop_beam_stgq_sound;
    prop_exhaustive_beam_dominates;
  ]
