(* The service layer: cached answers must equal direct solver calls, and
   the cache must behave. *)

open Stgq_core

let close a b = Float.abs (a -. b) <= 1e-6

let prop_service_matches_direct =
  Gen.qtest ~count:80 "service answers = direct solver answers" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let service = Service.create ti in
      let ok = ref true in
      (* Several initiators, repeated to exercise cache hits. *)
      for initiator = 0 to min 3 (case.Gen.sg.Gen.n - 1) do
        for _round = 1 to 2 do
          let ti_q =
            { ti with Query.social = { ti.Query.social with Query.initiator } }
          in
          let direct = Stgselect.solve ti_q query in
          let via = Gen.served (Service.stgq_r service ~initiator query) in
          (match (direct, via) with
          | None, None -> ()
          | Some a, Some b
            when close a.Query.st_total_distance b.Query.st_total_distance ->
              ()
          | _ -> ok := false);
          let sg_direct = Sgselect.solve ti_q.Query.social (Query.sgq_of_stgq query) in
          let sg_via =
            Gen.served (Service.sgq_r service ~initiator (Query.sgq_of_stgq query))
          in
          match (sg_direct, sg_via) with
          | None, None -> ()
          | Some a, Some b when close a.Query.total_distance b.Query.total_distance ->
              ()
          | _ -> ok := false
        done
      done;
      let stats = Service.cache_stats service in
      !ok && stats.Service.hits > 0 && stats.Service.misses > 0)

let fixture () =
  let g =
    Socgraph.Graph.of_edges 5
      [ (0, 1, 1.); (0, 2, 2.); (1, 2, 1.); (3, 4, 1.); (0, 3, 5.) ]
  in
  let horizon = 12 in
  let free () =
    let a = Timetable.Availability.create ~horizon in
    Timetable.Availability.set_free a 0 (horizon - 1);
    a
  in
  {
    Query.social = { Query.graph = g; initiator = 0 };
    schedules = Array.init 5 (fun _ -> free ());
  }

let test_cache_hits_and_eviction () =
  let service = Service.create ~cache_capacity:2 (fixture ()) in
  let q = { Query.p = 2; s = 1; k = 1 } in
  ignore (Gen.served (Service.sgq_r service ~initiator:0 q));
  ignore (Gen.served (Service.sgq_r service ~initiator:0 q));
  ignore (Gen.served (Service.sgq_r service ~initiator:1 q));
  ignore (Gen.served (Service.sgq_r service ~initiator:2 q));
  (* capacity 2: initiator 0's entry evicted *)
  ignore (Gen.served (Service.sgq_r service ~initiator:0 q));
  let stats = Service.cache_stats service in
  Alcotest.check Alcotest.int "hits" 1 stats.Service.hits;
  Alcotest.check Alcotest.int "misses" 4 stats.Service.misses;
  Alcotest.check Alcotest.int "evictions" 2 stats.Service.evictions;
  Alcotest.check Alcotest.int "entries" 2 stats.Service.entries

let test_graph_update_invalidates () =
  let ti = fixture () in
  let service = Service.create ti in
  let q = { Query.p = 2; s = 1; k = 1 } in
  (match Gen.served (Service.sgq_r service ~initiator:0 q) with
  | Some { Query.total_distance; _ } ->
      Alcotest.check Alcotest.bool "initially 1" true (close total_distance 1.)
  | None -> Alcotest.fail "expected a solution");
  (* Re-weight 0-1 to be expensive: the cheapest companion becomes 2. *)
  let g' =
    Socgraph.Graph.of_edges 5
      [ (0, 1, 9.); (0, 2, 2.); (1, 2, 1.); (3, 4, 1.); (0, 3, 5.) ]
  in
  Service.update_graph service g';
  (match Gen.served (Service.sgq_r service ~initiator:0 q) with
  | Some { Query.total_distance; _ } ->
      Alcotest.check Alcotest.bool "now 2" true (close total_distance 2.)
  | None -> Alcotest.fail "expected a solution after update");
  Alcotest.check Alcotest.int "cache dropped" 1 (Service.cache_stats service).Service.entries

let test_schedule_update_visible () =
  let ti = fixture () in
  let service = Service.create ti in
  let q = { Query.p = 2; s = 1; k = 0; m = 4 } in
  (match Gen.served (Service.stgq_r service ~initiator:0 q) with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a window initially");
  (* Make everyone but the initiator fully busy. *)
  let busy = Timetable.Availability.create ~horizon:12 in
  for v = 1 to 4 do
    Service.update_schedule service ~vertex:v busy
  done;
  Alcotest.check Alcotest.bool "no window after busy-out" true
    (Gen.served (Service.stgq_r service ~initiator:0 q) = None)

(* With a pool attached, single STGQ requests run the pooled parallel
   kernel; its answers equal a pool-less service's, on the exact rung. *)
let prop_pooled_service_matches_plain =
  Gen.qtest ~count:30 "pooled service answers = pool-less answers"
    (Gen.stg_case ()) (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let plain = Service.create ti in
      Engine.Pool.with_pool ~size:2 @@ fun pool ->
      let pooled = Service.create ~pool ti in
      List.for_all
        (fun initiator ->
          match
            ( Service.stgq_r pooled ~initiator query,
              Service.stgq_r plain ~initiator query )
          with
          | Ok a, Ok b -> (
              a.Resilience.rung = Resilience.Exact
              && b.Resilience.rung = Resilience.Exact
              &&
              match (a.Resilience.value, b.Resilience.value) with
              | None, None -> true
              | Some x, Some y ->
                  close x.Query.st_total_distance y.Query.st_total_distance
              | _ -> false)
          | _ -> false)
        (List.init (min 4 case.Gen.sg.Gen.n) Fun.id))

(* A malformed query is rejected before any work: a single request and
   a batch holding one bad member both raise [Invalid_argument], and no
   context is looked up, so the good batch members are not answered
   either. *)
let test_malformed_query_rejected_before_lookup () =
  let service = Service.create (fixture ()) in
  let good = { Query.p = 2; s = 1; k = 1; m = 2 } in
  let bad = { good with Query.m = 0 } in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  rejects "single" (fun () -> ignore (Service.stgq_r service ~initiator:0 bad));
  rejects "single sgq" (fun () ->
      ignore (Service.sgq_r service ~initiator:0 { Query.p = 0; s = 1; k = 1 }));
  rejects "batch" (fun () ->
      ignore (Service.stgq_batch_r service [ (0, good); (1, bad) ]));
  let stats = Service.cache_stats service in
  Alcotest.check Alcotest.int "no lookup" 0
    (stats.Service.hits + stats.Service.misses)

(* Systhreads of one domain switch at the runtime's 50 ms tick, far
   coarser than one context build, so on their own they would seldom
   interleave inside one.  An interval timer whose handler yields makes
   them switch every 200 us, as a busy server's connection threads do. *)
let with_thread_switches f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> Thread.yield ())) in
  let every = 0.0002 in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = every; it_value = every });
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = 0. });
      Sys.set_signal Sys.sigalrm previous)

(* The radius-graph extraction draws its n-sized scratch from one
   process-wide free-list.  Cold requests on distinct initiators, from
   systhreads sharing this domain and from pool domains at the same
   time, must each get the answer a lone request gets. *)
let test_concurrent_cold_requests_match_sequential () =
  let ti = Gen.replay_ti in
  let q = Gen.tiny_q in
  let initiators = List.init 96 (fun i -> i * 6) in
  let answer service initiator = Gen.served (Service.stgq_r service ~initiator q) in
  let expected =
    let service = Service.create ti in
    List.map (answer service) initiators
  in
  let shared = Service.create ti in
  let groups = 6 in
  let results = Array.make (List.length initiators) None in
  let run g () =
    List.iteri
      (fun i initiator ->
        if i mod groups = g then results.(i) <- Some (answer shared initiator))
      initiators
  in
  Engine.Pool.with_pool ~size:2 (fun pool ->
      with_thread_switches (fun () ->
          let jobs = List.map (fun g -> Engine.Pool.submit pool (run g)) [ 0; 1; 2 ] in
          let threads = List.map (fun g -> Thread.create (run g) ()) [ 3; 4; 5 ] in
          List.iter Thread.join threads;
          ignore (Engine.Pool.await_all jobs : unit list)));
  List.iteri
    (fun i want ->
      let same =
        match (want, results.(i)) with
        | None, Some None -> true
        | Some (a : Query.stg_solution), Some (Some b) ->
            a.Query.st_attendees = b.Query.st_attendees
            && a.Query.start_slot = b.Query.start_slot
            && close a.Query.st_total_distance b.Query.st_total_distance
        | _ -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "initiator %d answers as it does alone" (List.nth initiators i))
        true same)
    expected;
  Alcotest.(check int) "every request was cold" (List.length initiators)
    (Service.cache_stats shared).Service.misses

(* A cold request's work follows the initiator's ball, not the vertex
   count: padding the 600-member replay world with 50,000 isolated
   vertices, which no ball reaches, leaves the words a cold pool-less
   request allocates unchanged. *)
let test_cold_request_words_independent_of_n () =
  let ti = Gen.replay_ti in
  let padded =
    let g = ti.Query.social.Query.graph in
    let n = Socgraph.Graph.n_vertices g + 50_000 in
    let horizon = Timetable.Availability.horizon ti.Query.schedules.(0) in
    {
      Query.social =
        { ti.Query.social with Query.graph = Socgraph.Graph.of_edges n (Socgraph.Graph.edges g) };
      schedules =
        Array.append ti.Query.schedules
          (Array.init 50_000 (fun _ -> Timetable.Availability.create ~horizon));
    }
  in
  let cold_words ti =
    (* three fresh services, one per counted run, so each run misses *)
    let services = ref (List.init 3 (fun _ -> Service.create ti)) in
    Gen.allocated_words (fun () ->
        match !services with
        | service :: rest ->
            services := rest;
            ignore
              (Gen.served
                 (Service.stgq_r service ~initiator:Gen.replay_initiator Gen.heavy_q)
                : Query.stg_solution option)
        | [] -> Alcotest.fail "ran out of fresh services")
  in
  let small = cold_words ti and large = cold_words padded in
  Alcotest.(check bool)
    (Printf.sprintf "%d words at n = 600, %d at n = 50,600" small large)
    true
    (abs (large - small) <= 64)

let suite =
  [
    Alcotest.test_case "cache hits and eviction" `Quick test_cache_hits_and_eviction;
    Alcotest.test_case "graph update invalidates" `Quick test_graph_update_invalidates;
    Alcotest.test_case "schedule update visible" `Quick test_schedule_update_visible;
    prop_service_matches_direct;
    prop_pooled_service_matches_plain;
    Alcotest.test_case "malformed query rejected before lookup" `Quick
      test_malformed_query_rejected_before_lookup;
    Alcotest.test_case "concurrent cold requests = sequential" `Quick
      test_concurrent_cold_requests_match_sequential;
    Alcotest.test_case "cold request words independent of n" `Quick
      test_cold_request_words_independent_of_n;
  ]
