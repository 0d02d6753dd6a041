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
  ]
