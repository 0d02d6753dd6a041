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

(* [Service.create] leaves its checks to [Engine.Cache.create]; each
   still raises from [Service.create], and the initiator field, which
   the service never reads, is not checked. *)
let test_create_checks_instance () =
  let ti = fixture () in
  let rejects name ?cache_capacity ti =
    match Service.create ?cache_capacity ti with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  rejects "capacity 0" ~cache_capacity:0 ti;
  rejects "a short calendar array"
    { ti with Query.schedules = Array.sub ti.Query.schedules 0 4 };
  let skewed = Array.copy ti.Query.schedules in
  skewed.(3) <- Timetable.Availability.create ~horizon:13;
  rejects "disagreeing horizons" { ti with Query.schedules = skewed };
  let service =
    Service.create { ti with Query.social = { ti.Query.social with Query.initiator = 99 } }
  in
  Alcotest.check Alcotest.int "the initiator field is not read" 5
    (Service.n_vertices service)

(* Bit for bit: the same attendees (and start slot) and the same
   distance, compared with [Float.equal], not within a tolerance.  One
   kernel answers every path these tests compare — direct, pool-less,
   pooled and wire — and it sums a group in sub-id order. *)
let same_stg a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Query.stg_solution), Some (y : Query.stg_solution) ->
      x.Query.st_attendees = y.Query.st_attendees
      && x.Query.start_slot = y.Query.start_slot
      && Float.equal x.Query.st_total_distance y.Query.st_total_distance
  | _ -> false

let same_sg a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Query.sg_solution), Some (y : Query.sg_solution) ->
      x.Query.attendees = y.Query.attendees
      && Float.equal x.Query.total_distance y.Query.total_distance
  | _ -> false

(* Under the default, unlimited policy every request completes on the
   exact rung. *)
let same_exact_answer same (a : _ Resilience.answer) (b : _ Resilience.answer) =
  a.Resilience.rung = Resilience.Exact
  && b.Resilience.rung = Resilience.Exact
  && same a.Resilience.value b.Resilience.value

(* With a pool attached, a request runs whole on a worker domain, with
   the same sequential kernel as a pool-less service: both kinds answer
   exactly, and bit for bit as they do without a pool. *)
let prop_pooled_service_matches_plain =
  Gen.qtest ~count:30 "pooled service answers = pool-less answers"
    (Gen.stg_case ()) (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let sg_query = Query.sgq_of_stgq query in
      let plain = Service.create ti in
      Engine.Pool.with_pool ~size:2 @@ fun pool ->
      let pooled = Service.create ~pool ti in
      List.for_all
        (fun initiator ->
          (match
             ( Service.stgq_r pooled ~initiator query,
               Service.stgq_r plain ~initiator query )
           with
          | Ok a, Ok b -> same_exact_answer same_stg a b
          | _ -> false)
          &&
          match
            ( Service.sgq_r pooled ~initiator sg_query,
              Service.sgq_r plain ~initiator sg_query )
          with
          | Ok a, Ok b -> same_exact_answer same_sg a b
          | _ -> false)
        (List.init (min 4 case.Gen.sg.Gen.n) Fun.id))

let with_obs f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

(* A pooled request is one job on one worker domain, whatever its kind:
   an SGQ does not stay on the caller, and an STGQ does not fan its
   pivots out into buckets.  Each job records its queue wait once. *)
let test_one_job_per_request () =
  with_obs @@ fun () ->
  let jobs = Obs.counter "engine.pool.jobs_submitted" in
  let waits = Obs.histogram "service.queue_wait_ns" in
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  let service = Service.create ~pool Gen.replay_ti in
  let initiator = Gen.replay_initiator in
  let one_job name request =
    let jobs0 = Obs.Counter.value jobs and waits0 = Obs.Histogram.count waits in
    request ();
    Alcotest.(check int) (name ^ ": one pool job") 1 (Obs.Counter.value jobs - jobs0);
    Alcotest.(check int) (name ^ ": one queue wait") 1 (Obs.Histogram.count waits - waits0)
  in
  List.iter
    (fun (q : Query.stgq) ->
      let shape = Printf.sprintf "p=%d s=%d k=%d m=%d" q.p q.s q.k q.m in
      one_job ("stgq " ^ shape) (fun () ->
          ignore (Gen.served (Service.stgq_r service ~initiator q) : Query.stg_solution option));
      one_job ("sgq " ^ shape) (fun () ->
          ignore
            (Gen.served (Service.sgq_r service ~initiator (Query.sgq_of_stgq q))
              : Query.sg_solution option)))
    [ Gen.tiny_q; Gen.heavy_q ]

(* Sends [request] to a pooled service on hot's world while the pool's
   one worker is held for 50 ms, so the request waits that long in the
   pool's queue before its job starts; returns its answer. *)
let after_queue_wait request =
  let { Workload.People194.graph; schedules; _ } = Workload.Hot.world () in
  let initiator =
    match Workload.Hot.initiators graph with
    | v :: _ -> v
    | [] -> Alcotest.fail "hot has no initiators"
  in
  let ti = { Query.social = { Query.graph; initiator }; schedules } in
  Engine.Pool.with_pool ~size:1 @@ fun pool ->
  let service = Service.create ~pool ti in
  let gate = Atomic.make false and held = Atomic.make false in
  let holder =
    Engine.Pool.submit pool (fun () ->
        Atomic.set held true;
        while not (Atomic.get gate) do
          Unix.sleepf 0.001
        done)
  in
  while not (Atomic.get held) do
    Unix.sleepf 0.001
  done;
  let releaser =
    Thread.create
      (fun () ->
        Unix.sleepf 0.05;
        Atomic.set gate true)
      ()
  in
  let answer = request service ~initiator in
  Thread.join releaser;
  Engine.Pool.await holder;
  answer

let hot_probe = { Query.p = 3; s = 1; k = 1; m = 2 }

let stgq_probe policy service ~initiator =
  Service.stgq_r ?policy service ~initiator hot_probe

let sgq_probe policy service ~initiator =
  Service.sgq_r ?policy service ~initiator (Query.sgq_of_stgq hot_probe)

(* A pooled request's deadline counts from its submission, not from
   the moment a worker takes its job.  A request with a 5 ms deadline
   has spent its budget before its job starts: the exact rung trips at
   its entry checkpoint, and the answer descends with reason
   [Deadline]. *)
let deadline_after_queue_wait request =
  let policy = { Resilience.default_policy with deadline_ms = Some 5. } in
  match after_queue_wait (request (Some policy)) with
  | Ok (a : _ Resilience.answer) ->
      Alcotest.(check bool) "not answered on the exact rung" true
        (a.Resilience.rung <> Resilience.Exact);
      Alcotest.(check bool) "descended for the deadline" true
        (a.Resilience.reason = Some Budget.Deadline)
  | Error e -> Alcotest.failf "expected a descended answer, got %a" Resilience.pp_error e

let test_stgq_deadline_covers_queue_wait () = deadline_after_queue_wait stgq_probe

let test_sgq_deadline_covers_queue_wait () = deadline_after_queue_wait sgq_probe

(* The service latency is the caller's, queue wait included: the
   [service.<kind>.latency_ns] sample, which sets the flight recorder's
   slow threshold, and the [latency_ns] of the query's event both count
   the 50 ms the request waited for the pool's worker. *)
let latency_after_queue_wait kind request =
  let latency = Obs.histogram (Printf.sprintf "service.%s.latency_ns" kind) in
  with_obs @@ fun () ->
  Obs.Events.set_enabled true;
  Fun.protect ~finally:Obs.Events.stop @@ fun () ->
  Obs.Histogram.reset latency;
  Obs.Events.reset ();
  (match after_queue_wait (request None) with
  | Ok (_ : _ Resilience.answer) -> ()
  | Error e -> Alcotest.failf "expected an answer, got %a" Resilience.pp_error e);
  let at_least_50ms what ns =
    Alcotest.(check bool)
      (Printf.sprintf "%s %.1f ms covers the 50 ms wait" what (ns /. 1e6))
      true (ns >= 50e6)
  in
  at_least_50ms "the latency sample" (Obs.Histogram.max_value latency);
  let event =
    match
      List.filter
        (fun line -> Astring_like.contains line "\"event\": \"query\"")
        (Obs.Events.tail 8)
    with
    | [ line ] -> line
    | lines -> Alcotest.failf "expected one query event, got %d" (List.length lines)
  in
  let key = "\"latency_ns\": " in
  let rec field_at i =
    if i + String.length key > String.length event then
      Alcotest.failf "no latency_ns in %s" event
    else if String.sub event i (String.length key) = key then
      Scanf.sscanf
        (String.sub event (i + String.length key)
           (String.length event - i - String.length key))
        "%f" Fun.id
    else field_at (i + 1)
  in
  at_least_50ms "the event's latency_ns" (field_at 0)

let test_stgq_latency_covers_queue_wait () = latency_after_queue_wait "stgq" stgq_probe

let test_sgq_latency_covers_queue_wait () = latency_after_queue_wait "sgq" sgq_probe

(* A malformed query is rejected before any work: both kinds raise
   [Invalid_argument] and no context is looked up.  So is an initiator
   outside the dataset, on either side of it. *)
let test_malformed_query_rejected_before_lookup () =
  let service = Service.create (fixture ()) in
  let bad = { Query.p = 2; s = 1; k = 1; m = 0 } in
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  rejects "stgq" (fun () -> ignore (Service.stgq_r service ~initiator:0 bad));
  rejects "sgq" (fun () ->
      ignore (Service.sgq_r service ~initiator:0 { Query.p = 0; s = 1; k = 1 }));
  let n = Service.n_vertices service in
  List.iter
    (fun initiator ->
      rejects
        (Printf.sprintf "stgq initiator %d" initiator)
        (fun () ->
          ignore (Service.stgq_r service ~initiator { Query.p = 2; s = 1; k = 1; m = 2 }));
      rejects
        (Printf.sprintf "sgq initiator %d" initiator)
        (fun () -> ignore (Service.sgq_r service ~initiator { Query.p = 2; s = 1; k = 1 })))
    [ -1; n ];
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
   request allocates unchanged.  The query asks at s = 2, so the
   context's ball and the certificate's bounded search both run past
   the first hop (a 485-member ball). *)
let test_cold_request_words_independent_of_n () =
  let ti = Gen.replay_ti in
  let q = { Query.p = 4; s = 2; k = 2; m = 4 } in
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
                 (Service.stgq_r service ~initiator:Gen.replay_initiator q)
                : Query.stg_solution option)
        | [] -> Alcotest.fail "ran out of fresh services")
  in
  let small = cold_words ti and large = cold_words padded in
  Alcotest.(check bool)
    (Printf.sprintf "%d words at n = 600, %d at n = 50,600" small large)
    true
    (abs (large - small) <= 64)

(* --- edits against in-flight requests ------------------------------- *)

(* The 120-member coauthor world, posed by its rank-4 member. *)
let race_world () =
  let ti = Workload.Scenario.coauthor ~seed:13 ~days:1 ~n:120 () in
  let initiator =
    Workload.Scenario.pick_initiator ~rank:4 ti.Query.social.Query.graph
  in
  ({ ti with Query.social = { ti.Query.social with Query.initiator } }, initiator)

let race_q = { Query.p = 3; s = 2; k = 1; m = 2 }

let non_initiator initiator attendees =
  match List.find_opt (fun v -> v <> initiator) attendees with
  | Some v -> v
  | None -> Alcotest.fail "expected a non-initiator attendee"

(* Two STGQ shapes on the race world, an edit that busies out [victim],
   an attendee of the first shape's pre-edit answer, in every slot, and
   each shape's answer before and after that edit. *)
type calendar_race = {
  ti : Query.temporal_instance;
  initiator : int;
  shapes : Query.stgq list;
  victim : int;
  busy : Timetable.Availability.t;
  original : Timetable.Availability.t;
  pre_refs : Query.stg_solution option list;
  post_refs : Query.stg_solution option list;
}

let calendar_race () =
  let ti, initiator = race_world () in
  let shapes = [ race_q; { race_q with Query.k = 2; m = 3 } ] in
  let solve_all ti = List.map (Stgselect.solve ti) shapes in
  let pre_refs = solve_all ti in
  let victim =
    match pre_refs with
    | Some sol :: _ -> non_initiator initiator sol.Query.st_attendees
    | _ -> Alcotest.fail "expected a pre-edit solution"
  in
  let busy =
    Timetable.Availability.create
      ~horizon:(Timetable.Availability.horizon ti.Query.schedules.(0))
  in
  let post_refs =
    let schedules = Array.map Timetable.Availability.copy ti.Query.schedules in
    schedules.(victim) <- Timetable.Availability.copy busy;
    solve_all { ti with Query.schedules }
  in
  Alcotest.check Alcotest.bool "the edit changes some answer" false
    (List.for_all2 same_stg pre_refs post_refs);
  {
    ti;
    initiator;
    shapes;
    victim;
    busy;
    original = Timetable.Availability.copy ti.Query.schedules.(victim);
    pre_refs;
    post_refs;
  }

(* Whether [answer] is shape [i]'s pre-edit or post-edit reference. *)
let either_ref r i answer =
  same_stg answer (List.nth r.pre_refs i) || same_stg answer (List.nth r.post_refs i)

(* The SGQ of the race world's first shape, an edit that drops every
   edge of [victim], an attendee of its pre-edit answer, and the answer
   before and after that edit. *)
type graph_race = {
  g_ti : Query.temporal_instance;
  g_initiator : int;
  q : Query.sgq;
  original_graph : Socgraph.Graph.t;
  edited : Socgraph.Graph.t;
  pre : Query.sg_solution option;
  post : Query.sg_solution option;
}

let graph_race () =
  let ti, initiator = race_world () in
  let social = ti.Query.social in
  let q = Query.sgq_of_stgq race_q in
  let pre = Sgselect.solve social q in
  let victim =
    match pre with
    | Some sol -> non_initiator initiator sol.Query.attendees
    | None -> Alcotest.fail "expected a pre-edit solution"
  in
  let graph = social.Query.graph in
  let kept =
    List.filter (fun (u, v, _) -> u <> victim && v <> victim) (Socgraph.Graph.edges graph)
  in
  let edited = Socgraph.Graph.of_edges (Socgraph.Graph.n_vertices graph) kept in
  let post = Sgselect.solve { social with Query.graph = edited } q in
  Alcotest.check Alcotest.bool "the edit changes the answer" false (same_sg pre post);
  {
    g_ti = ti;
    g_initiator = initiator;
    q;
    original_graph = graph;
    edited;
    pre;
    post;
  }

let check_landed_mid (seen : Gen.mid_solve) =
  Alcotest.(check bool) "the solver's debug line was caught" true seen.Gen.fired;
  Alcotest.(check bool) "the edit returned while the request was in flight" true
    seen.Gen.edit_returned_mid_request

(* A calendar edit that arrives between a pool-less STGQ's search and
   its certificate busies out an attendee of the answer.  It returns at
   once: the request answers the pre-edit optimum, certified against
   the world it read, and the next request sees the edit. *)
let test_schedule_edit_lands_mid_request () =
  let r = calendar_race () in
  let q = List.nth r.shapes 0 and pre = List.nth r.pre_refs 0 in
  let initiator = r.initiator in
  let service = Service.create r.ti in
  let answer, seen =
    Gen.edit_mid_solve ~src:"stgq.stgselect"
      ~edit:(fun () -> Service.update_schedule service ~vertex:r.victim r.busy)
      (fun () -> Service.stgq_r service ~initiator q)
  in
  (match answer with
  | Ok a ->
      Alcotest.(check bool) "the answer is the pre-edit optimum" true
        (same_stg a.Resilience.value pre)
  | Error e -> Alcotest.failf "request failed: %a" Resilience.pp_error e);
  check_landed_mid seen;
  Alcotest.(check bool) "the next request sees the edit" true
    (same_stg (Gen.served (Service.stgq_r service ~initiator q)) (List.nth r.post_refs 0))

(* The same for a social-graph edit against an SGQ: the edit isolates
   an attendee of the answer and returns while the request is held. *)
let test_graph_edit_lands_mid_request () =
  let r = graph_race () in
  let initiator = r.g_initiator in
  let service = Service.create r.g_ti in
  let answer, seen =
    Gen.edit_mid_solve ~src:"stgq.sgselect"
      ~edit:(fun () -> Service.update_graph service r.edited)
      (fun () -> Service.sgq_r service ~initiator r.q)
  in
  (match answer with
  | Ok a ->
      Alcotest.(check bool) "the answer is the pre-edit optimum" true
        (same_sg a.Resilience.value r.pre)
  | Error e -> Alcotest.failf "request failed: %a" Resilience.pp_error e);
  check_landed_mid seen;
  Alcotest.(check bool) "the next request sees the edit" true
    (same_sg (Gen.served (Service.sgq_r service ~initiator r.q)) r.post)

(* Calendar edits racing single pooled requests: every request sees one
   consistent calendar state, so each answer equals its shape's
   pre-edit or post-edit reference — never a stale or torn mixture, and
   always certified.  Requests are compared one by one: an edit may
   land between two requests of one round. *)
let test_schedule_edit_race_consistent () =
  let r = calendar_race () in
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  let service = Service.create ~pool r.ti in
  let editor =
    Domain.spawn (fun () ->
        for _ = 1 to 20 do
          Service.update_schedule service ~vertex:r.victim r.busy;
          Service.update_schedule service ~vertex:r.victim r.original
        done)
  in
  let answer q = Gen.served (Service.stgq_r service ~initiator:r.initiator q) in
  for _ = 1 to 20 do
    List.iteri
      (fun i q ->
        Alcotest.check Alcotest.bool
          "each answer matches one consistent calendar state" true
          (either_ref r i (answer q)))
      r.shapes
  done;
  Domain.join editor;
  (* The editor's last write restored the original calendar. *)
  Alcotest.check Alcotest.bool "final answers are the pre-edit ones" true
    (List.for_all2 same_stg (List.map answer r.shapes) r.pre_refs)

(* Social-graph edits racing single SGQ requests: each answer equals
   the pre-edit or the post-edit reference. *)
let test_graph_edit_race_consistent () =
  let r = graph_race () in
  let service = Service.create r.g_ti in
  let editor =
    Domain.spawn (fun () ->
        for _ = 1 to 20 do
          Service.update_graph service r.edited;
          Service.update_graph service r.original_graph
        done)
  in
  let answer () = Gen.served (Service.sgq_r service ~initiator:r.g_initiator r.q) in
  for _ = 1 to 40 do
    let a = answer () in
    Alcotest.check Alcotest.bool "each answer matches one consistent graph" true
      (same_sg a r.pre || same_sg a r.post)
  done;
  Domain.join editor;
  Alcotest.check Alcotest.bool "the final answer is the pre-edit one" true
    (same_sg (answer ()) r.pre)

let suite =
  [
    Alcotest.test_case "cache hits and eviction" `Quick test_cache_hits_and_eviction;
    Alcotest.test_case "graph update invalidates" `Quick test_graph_update_invalidates;
    Alcotest.test_case "schedule update visible" `Quick test_schedule_update_visible;
    Alcotest.test_case "create checks its instance once" `Quick
      test_create_checks_instance;
    prop_service_matches_direct;
    prop_pooled_service_matches_plain;
    Alcotest.test_case "a pooled request is one pool job" `Quick
      test_one_job_per_request;
    Alcotest.test_case "a pooled STGQ's deadline covers its queue wait" `Quick
      test_stgq_deadline_covers_queue_wait;
    Alcotest.test_case "a pooled SGQ's deadline covers its queue wait" `Quick
      test_sgq_deadline_covers_queue_wait;
    Alcotest.test_case "a pooled STGQ's latency covers its queue wait" `Quick
      test_stgq_latency_covers_queue_wait;
    Alcotest.test_case "a pooled SGQ's latency covers its queue wait" `Quick
      test_sgq_latency_covers_queue_wait;
    Alcotest.test_case "malformed query rejected before lookup" `Quick
      test_malformed_query_rejected_before_lookup;
    Alcotest.test_case "concurrent cold requests = sequential" `Quick
      test_concurrent_cold_requests_match_sequential;
    Alcotest.test_case "cold request words independent of n" `Quick
      test_cold_request_words_independent_of_n;
    Alcotest.test_case "schedule edits race pooled requests consistently" `Quick
      test_schedule_edit_race_consistent;
    Alcotest.test_case "calendar edit lands mid-request" `Quick
      test_schedule_edit_lands_mid_request;
    Alcotest.test_case "graph edit lands mid-request" `Quick
      test_graph_edit_lands_mid_request;
    Alcotest.test_case "graph edits race single requests consistently" `Quick
      test_graph_edit_race_consistent;
  ]
