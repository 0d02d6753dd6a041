(* The engine layer must be answer-invisible: cached contexts and the
   persistent pool are allowed to change *when* work happens, never
   *what* is answered.  The differential properties here pit every
   engine-routed path against the plain sequential solvers on the same
   randomized instances, including repeated queries against one cached
   context so the hit path is exercised, not just the build path. *)

open Stgq_core

let close a b = Float.abs (a -. b) <= 1e-6

(* One pool for the whole suite: exactly the reuse pattern the pool is
   for, and a standing check that answers stay right on warm domains. *)
let shared_pool = lazy (Engine.Pool.create ~size:3 ())

let agree_stg seq other =
  match (seq, other) with
  | None, None -> true
  | Some a, Some b ->
      close a.Query.st_total_distance b.Query.st_total_distance
      && a.Query.start_slot = b.Query.start_slot
  | _ -> false

let prop_engine_matches_sequential =
  Gen.qtest ~count:80 "cached context + pool = sequential STGSelect"
    (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let cache =
        Engine.Cache.create ~capacity:4 ~schedules:ti.Query.schedules
          ti.Query.social.Query.graph
      in
      let seq = Stgselect.solve ti query in
      let ok = ref true in
      (* Two rounds against the same cache: round 1 builds the context,
         round 2 must be served from the LRU and still agree. *)
      for _round = 1 to 2 do
        let ctx = Engine.Cache.context cache ~initiator:0 ~s:query.Query.s in
        let cached = Stgselect.solve ~ctx ti query in
        let pooled =
          Parallel.solve ~pool:(Lazy.force shared_pool) ~domains:3 ~ctx ti query
        in
        if not (agree_stg seq cached && agree_stg seq pooled) then ok := false;
        ignore (Validate.certify_stg ti query cached : Query.stg_solution option);
        ignore (Validate.certify_stg ti query pooled : Query.stg_solution option)
      done;
      !ok && (Engine.Cache.stats cache).Engine.Cache.hits >= 1)

let prop_sgq_context_matches_direct =
  Gen.qtest ~count:120 "SGSelect via cached context = direct" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let query = case.Gen.query in
      let cache = Engine.Cache.create ~capacity:2 instance.Query.graph in
      let direct = Sgselect.solve instance query in
      let ok = ref true in
      for _round = 1 to 2 do
        let ctx = Engine.Cache.context cache ~initiator:0 ~s:query.Query.s in
        (match (direct, Sgselect.solve ~ctx instance query) with
        | None, None -> ()
        | Some a, Some b ->
            if not (close a.Query.total_distance b.Query.total_distance) then
              ok := false
        | _ -> ok := false)
      done;
      !ok && (Engine.Cache.stats cache).Engine.Cache.hits >= 1)

let prop_bounded_dist_early_exit_reaches_fixpoint =
  Gen.qtest ~count:120 "early-exited distances = exhaustive rounds"
    (Gen.sg_case ())
    (fun case ->
      let g = (Gen.instance_of_sg_case case).Query.graph in
      let n = Socgraph.Graph.n_vertices g in
      (* n-1 rounds always reach the DP fixpoint; doubling the budget
         must change nothing if the early exit stopped correctly. *)
      Socgraph.Bounded_dist.distances g ~src:0 ~max_edges:n
      = Socgraph.Bounded_dist.distances g ~src:0 ~max_edges:(2 * n + 3))

let pool_map pool thunks =
  Engine.Pool.await_all (List.map (Engine.Pool.submit pool) thunks)

let test_pool_order_and_reuse () =
  let escaped =
    Engine.Pool.with_pool ~size:3 (fun pool ->
        let expected = List.init 20 (fun i -> i * i) in
        let got = pool_map pool (List.map (fun v -> fun () -> v) expected) in
        Alcotest.(check (list int)) "results in submission order" expected got;
        let again = pool_map pool [ (fun () -> 41); (fun () -> 42) ] in
        Alcotest.(check (list int)) "pool reusable across runs" [ 41; 42 ] again;
        (* A future may be awaited more than once and from after the
           fact: it is a value, not a one-shot channel. *)
        let fut = Engine.Pool.submit pool (fun () -> 9) in
        Alcotest.(check int) "await" 9 (Engine.Pool.await fut);
        Alcotest.(check int) "await again" 9 (Engine.Pool.await fut);
        pool)
  in
  Engine.Pool.shutdown escaped (* idempotent: with_pool already shut it down *);
  Alcotest.check_raises "submit after shutdown rejected" Engine.Pool.Pool_closed
    (fun () -> ignore (Engine.Pool.submit escaped (fun () -> 0)))

let test_pool_exception_propagates () =
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  (try
     ignore
       (pool_map pool
          [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
         : int list);
     Alcotest.fail "expected the job's exception to re-raise"
   with Engine.Pool.Task_errors [ Failure msg ] ->
     Alcotest.(check string) "job exception" "boom" msg);
  (* A single await re-raises the job's own exception, un-aggregated. *)
  let failed = Engine.Pool.submit pool (fun () -> failwith "solo") in
  Alcotest.check_raises "await re-raises" (Failure "solo") (fun () ->
      ignore (Engine.Pool.await failed : int));
  (* A failed batch must not poison the workers. *)
  Alcotest.(check (list int))
    "pool alive after failure" [ 7 ]
    (pool_map pool [ (fun () -> 7) ])

let test_cache_lru_recency () =
  let g = Socgraph.Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.) ] in
  let cache = Engine.Cache.create ~capacity:2 g in
  let touch initiator s =
    ignore (Engine.Cache.context cache ~initiator ~s : Engine.Context.t)
  in
  touch 0 1 (* miss *);
  touch 1 1 (* miss *);
  touch 0 1 (* hit; (1,1) becomes least recent *);
  touch 2 1 (* miss; must evict (1,1), not (0,1) *);
  touch 0 1 (* hit iff the touch above refreshed recency (FIFO would miss) *);
  touch 1 1 (* miss; (1,1) was evicted *);
  let s = Engine.Cache.stats cache in
  Alcotest.(check int) "hits" 2 s.Engine.Cache.hits;
  Alcotest.(check int) "misses" 4 s.Engine.Cache.misses;
  Alcotest.(check int) "evictions" 2 s.Engine.Cache.evictions;
  Alcotest.(check int) "entries" 2 s.Engine.Cache.entries

(* [lookup] reports each caller's own outcome: the builder sees a miss,
   a later caller a hit on the very same context, and a lookup after an
   eviction builds afresh; [context] is the same lookup. *)
let test_cache_lookup_reports_own_hit () =
  let g = Socgraph.Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.) ] in
  let cache = Engine.Cache.create ~capacity:1 g in
  let first = Engine.Cache.lookup cache ~initiator:0 ~s:1 in
  let again = Engine.Cache.lookup cache ~initiator:0 ~s:1 in
  let other = Engine.Cache.lookup cache ~initiator:1 ~s:1 (* evicts (0,1) *) in
  let rebuilt = Engine.Cache.lookup cache ~initiator:0 ~s:1 in
  Alcotest.(check (list bool))
    "miss, hit, miss, miss after eviction" [ false; true; false; false ]
    (List.map (fun (l : Engine.Cache.lookup) -> l.hit) [ first; again; other; rebuilt ]);
  Alcotest.(check bool) "a hit returns the cached context" true
    (first.Engine.Cache.ctx == again.Engine.Cache.ctx);
  Alcotest.(check bool) "context is the lookup's context" true
    (Engine.Cache.context cache ~initiator:0 ~s:1 == rebuilt.Engine.Cache.ctx);
  let s = Engine.Cache.stats cache in
  Alcotest.(check int) "hits" 2 s.Engine.Cache.hits;
  Alcotest.(check int) "misses" 3 s.Engine.Cache.misses

let test_context_pivots_memoized_and_guarded () =
  let case = Gen.stg_case_gen (Random.State.make [| 23 |]) in
  let ti = Gen.temporal_instance_of_stg_case case in
  let query = Gen.stgq_of_stg_case case in
  let ctx = Feasible.context_of_temporal ti ~s:query.Query.s in
  Alcotest.(check bool) "has schedules" true (Engine.Context.has_schedules ctx);
  let p1 = Engine.Context.pivots ctx ~m:query.Query.m in
  let p2 = Engine.Context.pivots ctx ~m:query.Query.m in
  Alcotest.(check (list int)) "pivot memo stable" p1 p2;
  Alcotest.check_raises "wrong initiator rejected"
    (Invalid_argument "Engine.Context: cached context belongs to another initiator")
    (fun () ->
      Engine.Context.ensure_for ctx ~initiator:(ti.Query.social.Query.initiator + 1)
        ~s:query.Query.s);
  let social = Feasible.context_of_instance ti.Query.social ~s:query.Query.s in
  Alcotest.(check bool) "social-only" false (Engine.Context.has_schedules social);
  Alcotest.check_raises "social-only context has no pivots"
    (Invalid_argument "Engine.Context.pivots: social-only context has no time axis")
    (fun () -> ignore (Engine.Context.pivots social ~m:2 : int list))

(* Concurrent misses on one key: a miss builds outside the lock, with
   no single-flight, so anywhere from one to every domain may build.  In
   every interleaving each lookup counts once (hits + misses = lookups),
   exactly one build is cached, every hit returns it, and every other
   build agrees with it. *)
let test_concurrent_misses_on_one_key () =
  let ti = Workload.Scenario.coauthor ~seed:9 ~days:1 ~n:1200 () in
  let graph = ti.Query.social.Query.graph in
  let initiator = Workload.Scenario.pick_initiator ~rank:5 graph in
  let n_domains = 4 in
  let cache = Engine.Cache.create graph in
  let barrier = Atomic.make 0 in
  let worker () =
    Atomic.incr barrier;
    while Atomic.get barrier < n_domains do
      Domain.cpu_relax ()
    done;
    Engine.Cache.lookup cache ~initiator ~s:2
  in
  let ds = List.init (n_domains - 1) (fun _ -> Domain.spawn worker) in
  let mine = worker () in
  let found = mine :: List.map Domain.join ds in
  let built = List.filter (fun (l : Engine.Cache.lookup) -> not l.hit) found in
  let stats = Engine.Cache.stats cache in
  Alcotest.check Alcotest.int "each lookup counts once" n_domains
    (stats.Engine.Cache.hits + stats.Engine.Cache.misses);
  Alcotest.check Alcotest.int "misses are the builds" (List.length built)
    stats.Engine.Cache.misses;
  Alcotest.check Alcotest.int "one entry" 1 stats.Engine.Cache.entries;
  let cached = (Engine.Cache.lookup cache ~initiator ~s:2).Engine.Cache.ctx in
  Alcotest.check Alcotest.int "exactly one build is cached" 1
    (List.length (List.filter (fun (l : Engine.Cache.lookup) -> l.ctx == cached) built));
  List.iter
    (fun (l : Engine.Cache.lookup) ->
      if l.hit then
        Alcotest.check Alcotest.bool "a hit returns the cached build" true
          (l.ctx == cached)
      else
        Alcotest.check Alcotest.(array int) "every build agrees"
          cached.Engine.Context.fg.Engine.Feasible.of_sub
          l.ctx.Engine.Context.fg.Engine.Feasible.of_sub)
    found

(* A miss builds outside the lock, so a graph swap released by the
   cache's miss line (logged once the lock is dropped, before the build)
   lands at once; the stale build answers its own caller but is not
   cached. *)
let test_swap_mid_build_not_cached () =
  let g1 = Socgraph.Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let g2 = Socgraph.Graph.of_edges 3 [ (0, 1, 2.); (1, 2, 1.) ] in
  let cache = Engine.Cache.create g1 in
  let found, mid =
    Gen.edit_mid_solve ~src:"stgq.engine.cache"
      ~edit:(fun () -> Engine.Cache.set_graph cache g2)
      (fun () -> Engine.Cache.lookup cache ~initiator:0 ~s:1)
  in
  Alcotest.(check bool) "the miss line fired" true mid.Gen.fired;
  Alcotest.(check bool) "the swap landed mid-build" true
    mid.Gen.edit_returned_mid_request;
  Alcotest.(check bool) "the build read the old graph" true
    (found.Engine.Cache.ctx.Engine.Context.graph == g1);
  Alcotest.(check int) "the stale build is not cached" 0
    (Engine.Cache.stats cache).Engine.Cache.entries;
  let next = Engine.Cache.lookup cache ~initiator:0 ~s:1 in
  Alcotest.(check bool) "the next lookup misses" false next.Engine.Cache.hit;
  Alcotest.(check bool) "and builds from the new graph" true
    (next.Engine.Cache.ctx.Engine.Context.graph == g2)

(* --- solve regions ---------------------------------------------------

   Each test runs a calendar edit on its own thread against a region the
   main thread holds.  The 50 ms sleeps only give the edit (or a second
   region) time to block; what is asserted holds whatever the timing. *)

let region_cache () =
  let g = Socgraph.Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let schedules = Array.init 3 (fun _ -> Timetable.Availability.create ~horizon:8) in
  Engine.Cache.create ~schedules g

(* Starts [Engine.Cache.set_schedule] on a thread; the flag turns true
   once the edit has returned. *)
let start_edit cache =
  let returned = Atomic.make false in
  let edit =
    Thread.create
      (fun () ->
        Engine.Cache.set_schedule cache ~vertex:1
          (Timetable.Availability.create ~horizon:8);
        Atomic.set returned true)
      ()
  in
  (edit, returned)

let pause () = Thread.delay 0.05

let test_edit_waits_for_region () =
  let cache = region_cache () in
  let edit, returned =
    Engine.Cache.with_solves cache (fun () ->
        let edit, returned = start_edit cache in
        pause ();
        Alcotest.(check bool) "the edit waits while the region is open" false
          (Atomic.get returned);
        Alcotest.(check int) "no edit landed inside the region" 0
          (Engine.Cache.epoch cache);
        (edit, returned))
  in
  Thread.join edit;
  Alcotest.(check bool) "the edit returns once the region closes" true
    (Atomic.get returned);
  Alcotest.(check int) "the edit landed" 1 (Engine.Cache.epoch cache)

(* Writer preference: while an edit waits for an open region, a new
   region waits for the edit, so it sees the edited state. *)
let test_waiting_edit_holds_back_new_region () =
  let cache = region_cache () in
  let entered = Atomic.make false in
  let seen_epoch = Atomic.make (-1) in
  let edit, reader =
    Engine.Cache.with_solves cache (fun () ->
        let edit, _ = start_edit cache in
        pause ();
        let reader =
          Thread.create
            (fun () ->
              Engine.Cache.with_solves cache (fun () ->
                  Atomic.set seen_epoch (Engine.Cache.epoch cache);
                  Atomic.set entered true))
            ()
        in
        pause ();
        Alcotest.(check bool) "a new region waits behind the waiting edit" false
          (Atomic.get entered);
        (edit, reader))
  in
  Thread.join edit;
  Thread.join reader;
  Alcotest.(check int) "the held-back region saw the edit" 1 (Atomic.get seen_epoch)

let test_raising_region_releases_edit () =
  let cache = region_cache () in
  let edit = ref None in
  (match
     Engine.Cache.with_solves cache (fun () ->
         edit := Some (fst (start_edit cache));
         pause ();
         raise Exit)
   with
  | () -> Alcotest.fail "the region body should have raised"
  | exception Exit -> ());
  Option.iter Thread.join !edit;
  Alcotest.(check int) "the edit landed after the raise" 1 (Engine.Cache.epoch cache);
  Alcotest.(check int) "a new region opens" 1
    (Engine.Cache.with_solves cache (fun () -> Engine.Cache.epoch cache))

let suite =
  [
    Alcotest.test_case "pool order + reuse" `Quick test_pool_order_and_reuse;
    Alcotest.test_case "pool exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "cache true-LRU recency" `Quick test_cache_lru_recency;
    Alcotest.test_case "context pivot memo + guards" `Quick
      test_context_pivots_memoized_and_guarded;
    prop_bounded_dist_early_exit_reaches_fixpoint;
    prop_sgq_context_matches_direct;
    prop_engine_matches_sequential;
    Alcotest.test_case "cache lookup reports its own hit" `Quick
      test_cache_lookup_reports_own_hit;
    Alcotest.test_case "concurrent misses on one key" `Quick
      test_concurrent_misses_on_one_key;
    Alcotest.test_case "a swap mid-build is not cached" `Quick
      test_swap_mid_build_not_cached;
    Alcotest.test_case "an edit waits for an open region" `Quick
      test_edit_waits_for_region;
    Alcotest.test_case "a waiting edit holds back a new region" `Quick
      test_waiting_edit_holds_back_new_region;
    Alcotest.test_case "a raising region releases a waiting edit" `Quick
      test_raising_region_releases_edit;
  ]
