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
  let lookup initiator =
    Engine.Cache.lookup cache (Engine.Cache.world cache) ~initiator ~s:1
  in
  let first = lookup 0 in
  let again = lookup 0 in
  let other = lookup 1 (* evicts (0,1) *) in
  let rebuilt = lookup 0 in
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

(* A context is what the graph determines, nothing more: the social and
   the temporal constructor build the same ball, and a supplied context
   is checked against the query it answers. *)
let test_context_guards () =
  let case = Gen.stg_case_gen (Random.State.make [| 23 |]) in
  let ti = Gen.temporal_instance_of_stg_case case in
  let query = Gen.stgq_of_stg_case case in
  let ctx, _ = Query.stg_context ti ~s:query.Query.s in
  let social = Query.sg_context ti.Query.social ~s:query.Query.s in
  Alcotest.(check (array int)) "one ball for SGQ and STGQ"
    social.Engine.Context.fg.Engine.Feasible.of_sub
    ctx.Engine.Context.fg.Engine.Feasible.of_sub;
  Alcotest.check_raises "wrong initiator rejected"
    (Invalid_argument "Engine.Context: cached context belongs to another initiator")
    (fun () ->
      Engine.Context.ensure_for ctx ~initiator:(ti.Query.social.Query.initiator + 1)
        ~s:query.Query.s);
  Alcotest.check_raises "wrong s rejected"
    (Invalid_argument "Engine.Context: cached context was built for another s")
    (fun () ->
      Engine.Context.ensure_for ctx ~initiator:ti.Query.social.Query.initiator
        ~s:(query.Query.s + 1))

(* A supplied context skips the instance's all-n check, so the slab
   still checks the ball's calendars: a ball member whose calendar is
   missing or on another horizon raises, from every temporal solver. *)
let test_supplied_context_checks_ball_calendars () =
  let g = Socgraph.Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let schedules = Array.init 3 (fun _ -> Timetable.Availability.create ~horizon:8) in
  let ti = { Query.social = { Query.graph = g; initiator = 0 }; schedules } in
  let q = { Query.p = 2; s = 1; k = 0; m = 2 } in
  let ctx, _ = Query.stg_context ti ~s:1 in
  let slab = Engine.Feasible.slab ctx.Engine.Context.fg schedules in
  Alcotest.(check bool) "the slab reads the ball's calendars, uncopied" true
    (Array.length slab = 2 && slab.(0) == schedules.(0) && slab.(1) == schedules.(1));
  let skewed = Array.copy schedules in
  skewed.(1) <- Timetable.Availability.create ~horizon:9;
  let skewed_ti = { ti with Query.schedules = skewed } in
  let disagree = Invalid_argument "Engine.Feasible.slab: schedules disagree on horizon" in
  Alcotest.check_raises "STGSelect" disagree (fun () ->
      ignore (Stgselect.solve ~ctx skewed_ti q : Query.stg_solution option));
  Alcotest.check_raises "pooled STGSelect" disagree (fun () ->
      ignore
        (Parallel.solve ~pool:(Lazy.force shared_pool) ~ctx skewed_ti q
          : Query.stg_solution option));
  Alcotest.check_raises "beam" disagree (fun () ->
      ignore (Heuristics.beam_stgq ~ctx skewed_ti q : Query.stg_solution option));
  Alcotest.check_raises "a ball member without a calendar"
    (Invalid_argument "Engine.Feasible.slab: a ball member has no schedule")
    (fun () ->
      ignore
        (Stgselect.solve ~ctx { ti with Query.schedules = Array.sub schedules 0 1 } q
          : Query.stg_solution option))

(* "One calendar per vertex, all on one horizon" is written once, in
   [Timetable.Availability.check_schedules]: the engine cache, the store
   and every temporal solver that builds its own context raise its
   exception, for too few or too many calendars and for a skewed horizon
   anywhere. *)
let test_one_calendar_check () =
  let g = Socgraph.Graph.of_edges 4 [ (0, 1, 1.); (1, 2, 1.); (2, 3, 1.) ] in
  let cal horizon = Timetable.Availability.create ~horizon in
  let world = Array.init 4 (fun _ -> cal 8) in
  Timetable.Availability.check_schedules ~n:4 world;
  Timetable.Availability.check_schedules ~n:0 [||];
  let q = { Query.p = 2; s = 1; k = 1; m = 2 } in
  let per_vertex =
    Invalid_argument "Timetable.Availability.check_schedules: need one schedule per vertex"
  in
  let horizon =
    Invalid_argument "Timetable.Availability.check_schedules: schedules disagree on horizon"
  in
  let skewed v =
    let a = Array.copy world in
    a.(v) <- cal 9;
    a
  in
  List.iter
    (fun (name, schedules, e) ->
      let ti = { Query.social = { Query.graph = g; initiator = 0 }; schedules } in
      let raises front f = Alcotest.check_raises (name ^ ", " ^ front) e f in
      let stg answer = ignore (answer : Query.stg_solution option) in
      raises "check_schedules" (fun () ->
          Timetable.Availability.check_schedules ~n:4 schedules);
      raises "Store.state_of_instance" (fun () ->
          ignore (Store.state_of_instance g schedules : Store.state));
      raises "Query.check_temporal_instance" (fun () -> Query.check_temporal_instance ti);
      raises "Engine.Cache.create" (fun () ->
          ignore (Engine.Cache.create ~schedules g : Engine.Cache.t));
      raises "Parallel.solve" (fun () ->
          stg (Parallel.solve ~pool:(Lazy.force shared_pool) ti q));
      raises "Planner.create" (fun () -> ignore (Planner.create ti q : Planner.t));
      raises "Heuristics.beam_stgq" (fun () -> stg (Heuristics.beam_stgq ti q));
      raises "Topk.stgq" (fun () -> ignore (Topk.stgq ~n:2 ti q : Topk.entry list));
      raises "Baseline.stgq_per_slot" (fun () ->
          ignore (Baseline.stgq_per_slot ti q : Baseline.stg_report)))
    [
      ("too few", Array.sub world 0 3, per_vertex);
      ("too many", Array.append world [| cal 8 |], per_vertex);
      ("first skewed", skewed 0, horizon);
      ("last skewed", skewed 3, horizon);
    ]

(* [Query.stg_context] resolves a supplied context as it is and a
   missing one by a build of the same ball; either way the calendars are
   the instance's own, read by sub-id without a copy. *)
let prop_supplied_context_resolves_as_built =
  Gen.qtest ~count:60 "a supplied context resolves as a built one" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let s = case.Gen.sg.Gen.query.Query.s in
      let supplied = Engine.Context.build ti.Query.social.Query.graph ~initiator:0 ~s in
      let built, built_avail = Query.stg_context ti ~s in
      let ctx, avail = Query.stg_context ~ctx:supplied ti ~s in
      let fg = ctx.Engine.Context.fg in
      ctx == supplied
      && Query.sg_context ~ctx:supplied ti.Query.social ~s == supplied
      && built.Engine.Context.fg.Engine.Feasible.of_sub = fg.Engine.Feasible.of_sub
      && built.Engine.Context.fg.Engine.Feasible.dist = fg.Engine.Feasible.dist
      && Array.length avail = Engine.Feasible.size fg
      && Array.for_all2 ( == ) avail built_avail
      && Array.for_all2 (fun v a -> a == ti.Query.schedules.(v)) fg.Engine.Feasible.of_sub avail
      &&
      match Query.sg_context ~ctx:supplied ti.Query.social ~s:(s + 1) with
      | _ -> false
      | exception Invalid_argument _ -> true)

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
    Engine.Cache.lookup cache (Engine.Cache.world cache) ~initiator ~s:2
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
  let cached =
    (Engine.Cache.lookup cache (Engine.Cache.world cache) ~initiator ~s:2)
      .Engine.Cache.ctx
  in
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

(* --- one immutable world ---------------------------------------------

   An edit publishes a new world; it never writes one that a reader may
   hold. *)

let world_cache () =
  let g = Socgraph.Graph.of_edges 3 [ (0, 1, 1.); (1, 2, 1.) ] in
  let schedules = Array.init 3 (fun _ -> Timetable.Availability.create ~horizon:8) in
  Engine.Cache.create ~schedules g

let all_free () =
  let a = Timetable.Availability.create ~horizon:8 in
  Timetable.Availability.set_free a 0 7;
  a

(* The world a request holds keeps its calendar array and every
   calendar's bits through a calendar edit; the published world carries
   the edit, and the calendar it publishes is a copy the caller cannot
   write. *)
let test_edit_leaves_held_world () =
  let cache = world_cache () in
  let held = Engine.Cache.world cache in
  let held_calendar = held.Engine.Cache.schedules.(1) in
  let edit = all_free () in
  Engine.Cache.set_schedule cache ~vertex:1 edit;
  Alcotest.(check int) "the held world's epoch" 0 held.Engine.Cache.epoch;
  Alcotest.(check bool) "the held world's calendar is the one it had" true
    (held.Engine.Cache.schedules.(1) == held_calendar);
  Alcotest.(check int) "and its bits are as they were" 0
    (Timetable.Availability.free_count held_calendar);
  let now = Engine.Cache.world cache in
  Alcotest.(check int) "one edit, one epoch" 1 now.Engine.Cache.epoch;
  Alcotest.(check int) "the published world has the new calendar" 8
    (Timetable.Availability.free_count now.Engine.Cache.schedules.(1));
  Timetable.Availability.set_busy edit 0 7;
  Alcotest.(check int) "which the caller's object does not alias" 8
    (Timetable.Availability.free_count now.Engine.Cache.schedules.(1))

(* Contexts hold no calendar, so a calendar edit keeps every cached
   context: the next lookup hits the very same one. *)
let test_calendar_edit_keeps_contexts () =
  let cache = world_cache () in
  let lookup () =
    Engine.Cache.lookup cache (Engine.Cache.world cache) ~initiator:0 ~s:1
  in
  let built = lookup () in
  Engine.Cache.set_schedule cache ~vertex:1 (all_free ());
  let again = lookup () in
  Alcotest.(check (list bool)) "miss, then a hit after the edit" [ false; true ]
    [ built.Engine.Cache.hit; again.Engine.Cache.hit ];
  Alcotest.(check bool) "the same context" true
    (built.Engine.Cache.ctx == again.Engine.Cache.ctx);
  Alcotest.(check int) "still one entry" 1 (Engine.Cache.stats cache).Engine.Cache.entries;
  Alcotest.(check int) "the edit bumped the epoch" 1 (Engine.Cache.epoch cache)

(* Contexts hold no calendar, so one context answers any calendar
   state: solving instance B with a context built from instance A
   equals solving B with none, for every solver that takes a context. *)
let prop_one_context_two_calendar_states =
  Gen.qtest ~count:60 "one context, two calendar states" (Gen.stg_case ())
    (fun case ->
      let a = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let n = Array.length a.Query.schedules in
      let b =
        { a with Query.schedules = Array.init n (fun v -> a.Query.schedules.((v + 1) mod n)) }
      in
      let ctx, _ = Query.stg_context a ~s:query.Query.s in
      let pool = Lazy.force shared_pool in
      (Stgselect.solve_report ~ctx b query).Stgselect.solution
      = (Stgselect.solve_report b query).Stgselect.solution
      && (Parallel.solve_report ~pool ~domains:2 ~ctx b query).Parallel.solution
         = (Parallel.solve_report ~pool ~domains:2 b query).Parallel.solution
      && Heuristics.beam_stgq ~ctx b query = Heuristics.beam_stgq b query)

(* A context costs what its ball's rows cost.  The s = 2 context of the
   best-connected member of a 10,000-member coauthor world (5,472 ball
   members, 23,231 edges among them) allocated 993,392 words while every
   member kept a |ball|-bit neighbour bitset; the gate is half that.  A
   warm-up build fills the ball's scratch pool first, and the count
   includes the words allocated straight into the major heap. *)
let test_context_build_words () =
  let graph = (Workload.Coauthor.generate ~n:10_000 ()).Workload.Coauthor.graph in
  let initiator = Workload.Scenario.pick_initiator ~rank:0 graph in
  let build () = Engine.Feasible.extract graph ~initiator ~s:2 in
  let fg = build () in
  Alcotest.check Alcotest.int "ball members" 5472 (Engine.Feasible.size fg);
  Alcotest.check Alcotest.int "ball edges" 23231
    (Socgraph.Graph.n_edges fg.Engine.Feasible.sub);
  let words = Gen.allocated_words (fun () -> ignore (build () : Engine.Feasible.t)) in
  Alcotest.check Alcotest.bool
    (Printf.sprintf "an s = 2 build allocates %d words (at most 494,000)" words)
    true (words <= 494_000)

let suite =
  [
    Alcotest.test_case "pool order + reuse" `Quick test_pool_order_and_reuse;
    Alcotest.test_case "pool exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "cache true-LRU recency" `Quick test_cache_lru_recency;
    Alcotest.test_case "context guards" `Quick test_context_guards;
    prop_bounded_dist_early_exit_reaches_fixpoint;
    prop_sgq_context_matches_direct;
    prop_engine_matches_sequential;
    Alcotest.test_case "cache lookup reports its own hit" `Quick
      test_cache_lookup_reports_own_hit;
    Alcotest.test_case "concurrent misses on one key" `Quick
      test_concurrent_misses_on_one_key;
    Alcotest.test_case "an edit leaves a held world as it was" `Quick
      test_edit_leaves_held_world;
    Alcotest.test_case "a calendar edit keeps cached contexts" `Quick
      test_calendar_edit_keeps_contexts;
    prop_one_context_two_calendar_states;
    Alcotest.test_case "a supplied context checks the ball's calendars" `Quick
      test_supplied_context_checks_ball_calendars;
    Alcotest.test_case "one calendar check at every temporal front door" `Quick
      test_one_calendar_check;
    prop_supplied_context_resolves_as_built;
    Alcotest.test_case "an s = 2 context allocates half its bitset build" `Quick
      test_context_build_words;
  ]
