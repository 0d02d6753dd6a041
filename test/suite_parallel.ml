(* Multicore pivot fan-out must match the sequential optimum. *)

open Stgq_core

(* A group's distance is summed in sub-id order whatever path reached
   it, so a pooled solve returns the sequential answer bit for bit. *)
let same_answer (a : Query.stg_solution option) (b : Query.stg_solution option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.st_attendees = b.st_attendees
      && a.start_slot = b.start_slot
      && Float.equal a.st_total_distance b.st_total_distance
  | _ -> false

let prop_parallel_matches_sequential =
  Gen.qtest ~count:60 "parallel STGSelect = sequential" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let q = Gen.stgq_of_stg_case case in
      let seq = Stgselect.solve ti q in
      let par = Parallel.solve ~domains:4 ti q in
      same_answer seq par
      && match par with Some b -> Validate.is_valid_stg ti q b | None -> true)

(* The same on hot's world, whose weights are not integers: every
   (initiator, STGQ shape) pair on a 2-domain pool. *)
let test_hot_pooled_equals_sequential () =
  let { Workload.People194.graph; schedules; _ } = Workload.Hot.world () in
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  let differing =
    List.concat_map
      (fun initiator ->
        let ti = { Query.social = { Query.graph; initiator }; schedules } in
        let contexts = List.map (fun s -> (s, Engine.Context.build graph ~initiator ~s)) [ 1; 2 ] in
        List.filter_map
          (fun (q : Query.stgq) ->
            let ctx = List.assoc q.s contexts in
            if same_answer (Stgselect.solve ~ctx ti q) (Parallel.solve ~pool ~ctx ti q) then None
            else
              Some (Printf.sprintf "initiator %d p=%d s=%d k=%d m=%d" initiator q.p q.s q.k q.m))
          Workload.Hot.stgq_shapes)
      (Workload.Hot.initiators graph)
  in
  Alcotest.(check (list string)) "pooled answers = sequential answers" [] differing

exception Boom of int

let test_exception_propagation () =
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  (* 40 jobs on 2 workers keep the queue saturated; two of them fail. *)
  let thunks =
    List.init 40 (fun i () -> if i = 7 || i = 23 then raise (Boom i) else i)
  in
  let pool_map pool thunks =
    Engine.Pool.await_all (List.map (Engine.Pool.submit pool) thunks)
  in
  (match pool_map pool thunks with
  | _ -> Alcotest.fail "expected the batch to raise"
  | exception Engine.Pool.Task_errors errs ->
      (* Aggregation keeps every failure, in submission-index order. *)
      Alcotest.(check (list int))
        "all failures, input order" [ 7; 23 ]
        (List.map (function Boom i -> i | e -> raise e) errs));
  (* Worker domains must survive a failing batch. *)
  let squares = pool_map pool (List.init 6 (fun i () -> i * i)) in
  Alcotest.check (Alcotest.list Alcotest.int) "pool alive after failure"
    [ 0; 1; 4; 9; 16; 25 ] squares

let test_submission_order_saturated () =
  (* A single worker drains a saturated queue strictly in FIFO order,
     and [await_all] reassembles results positionally regardless. *)
  let pool = Engine.Pool.create ~size:1 () in
  let order = ref [] in
  let lock = Mutex.create () in
  let results =
    Engine.Pool.await_all
      (List.map
         (Engine.Pool.submit pool)
         (List.init 100 (fun i () ->
              Mutex.lock lock;
              order := i :: !order;
              Mutex.unlock lock;
              i)))
  in
  Engine.Pool.shutdown pool;
  let expected = List.init 100 Fun.id in
  Alcotest.check (Alcotest.list Alcotest.int) "positional results" expected results;
  Alcotest.check (Alcotest.list Alcotest.int) "FIFO execution order" expected
    (List.rev !order)

let test_single_domain_degenerates () =
  let case = Gen.stg_case_gen (Random.State.make [| 9 |]) in
  let ti = Gen.temporal_instance_of_stg_case case in
  let q = Gen.stgq_of_stg_case case in
  let report = Parallel.solve_report ~domains:1 ti q in
  Alcotest.check Alcotest.int "one domain" 1 report.Parallel.domains_used;
  let seq = Stgselect.solve ti q in
  Alcotest.check Alcotest.bool "same feasibility" true
    ((seq = None) = (report.Parallel.solution = None))

let test_domain_count_capped_by_pivots () =
  let g = Socgraph.Graph.of_edges 2 [ (0, 1, 1.) ] in
  let horizon = 8 in
  let a () =
    let x = Timetable.Availability.create ~horizon in
    Timetable.Availability.set_free x 0 (horizon - 1);
    x
  in
  let ti = { Query.social = { Query.graph = g; initiator = 0 }; schedules = [| a (); a () |] } in
  (* m=4 over 8 slots -> exactly 2 pivots; ask for 16 domains. *)
  let report = Parallel.solve_report ~domains:16 ti { Query.p = 2; s = 1; k = 0; m = 4 } in
  Alcotest.check Alcotest.bool "capped" true (report.Parallel.domains_used <= 2);
  Alcotest.check Alcotest.bool "solved" true (report.Parallel.solution <> None)

let suite =
  [
    Alcotest.test_case "single domain" `Quick test_single_domain_degenerates;
    Alcotest.test_case "domains capped by pivots" `Quick test_domain_count_capped_by_pivots;
    Alcotest.test_case "exception propagation under load" `Quick
      test_exception_propagation;
    Alcotest.test_case "submission order on a saturated queue" `Quick
      test_submission_order_saturated;
    prop_parallel_matches_sequential;
    Alcotest.test_case "hot world: pooled = sequential, bit for bit" `Quick
      test_hot_pooled_equals_sequential;
  ]
