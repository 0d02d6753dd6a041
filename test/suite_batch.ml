(* The batch layer: grouped answers must be bit-identical to one-at-a-
   time service answers, grouping must actually share contexts, builds
   must single-flight under concurrency, and calendar edits racing a
   batched solve must land only between batches. *)

open Stgq_core

let close a b = Float.abs (a -. b) <= 1e-6

let stg_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Query.stg_solution), Some (y : Query.stg_solution) ->
      x.Query.st_attendees = y.Query.st_attendees
      && x.Query.start_slot = y.Query.start_slot
      && Float.equal x.Query.st_total_distance y.Query.st_total_distance
  | _ -> false

let sg_eq a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Query.sg_solution), Some (y : Query.sg_solution) ->
      x.Query.attendees = y.Query.attendees
      && close x.Query.total_distance y.Query.total_distance
  | _ -> false

(* Whole-answer equality: the value and how the ladder reached it. *)
let answer_eq value_eq a b =
  match (a, b) with
  | Ok (x : _ Resilience.answer), Ok (y : _ Resilience.answer) ->
      value_eq x.value y.value && x.rung = y.rung && x.gap = y.gap
      && x.reason = y.reason
  | Error (Resilience.Degraded x), Error (Resilience.Degraded y) ->
      x.reason = y.reason
  | _ -> false

(* Under the default policy and under a node limit (each request's
   ladder builds its own budgets, so a batch member trips or answers
   exactly as it would alone), batched answers equal the one-at-a-time
   answers of a pool-less service. *)
let prop_batch_matches_unbatched =
  Gen.qtest ~count:40 "batched answers = unbatched service answers"
    (Gen.stg_case ()) (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let sg_query = Query.sgq_of_stgq query in
      let inits = List.init (min 4 case.Gen.sg.Gen.n) Fun.id in
      (* Two interleaved passes over the initiators: the batch must
         group them and still answer in input order. *)
      let reqs = List.concat_map (fun i -> [ (i, query) ]) (inits @ inits) in
      let sg_reqs = List.map (fun (i, _) -> (i, sg_query)) reqs in
      let matches ?policy () =
        let service = Service.create ti in
        let batched = Service.stgq_batch_r ?policy service reqs in
        let unbatched =
          List.map (fun (i, q) -> Service.stgq_r ?policy service ~initiator:i q) reqs
        in
        let sg_batched = Service.sgq_batch_r ?policy service sg_reqs in
        let sg_unbatched =
          List.map
            (fun (i, q) -> Service.sgq_r ?policy service ~initiator:i q)
            sg_reqs
        in
        List.for_all2 (answer_eq stg_eq) batched unbatched
        && List.for_all2 (answer_eq sg_eq) sg_batched sg_unbatched
      in
      matches ()
      && matches
           ~policy:{ Resilience.default_policy with node_limit = Some 1 }
           ())

(* Per-request budgets: in one batch under a node limit, a query big
   enough to trip it degrades while its small groupmate still answers
   exactly — each as it would alone.  The limit spans several
   checkpoints, so a budget leaking from the first big query would cut
   the second one short. *)
let test_batch_budgets_are_per_request () =
  let policy = { Resilience.default_policy with node_limit = Some 1000 } in
  let small = { Gen.dense_q with Query.p = 2 } in
  let reqs = [ (0, Gen.dense_q); (0, small); (0, Gen.dense_q) ] in
  let service = Service.create Gen.dense_ti in
  let batched = Service.stgq_batch_r ~policy service reqs in
  let unbatched =
    List.map (fun (i, q) -> Service.stgq_r ~policy service ~initiator:i q) reqs
  in
  Alcotest.check Alcotest.bool "batched = unbatched, whole answers" true
    (List.for_all2 (answer_eq stg_eq) batched unbatched);
  let below_exact = function
    | Ok (a : _ Resilience.answer) -> a.rung <> Resilience.Exact
    | Error _ -> true
  in
  Alcotest.check
    (Alcotest.list Alcotest.bool)
    "only the big queries leave the exact rung" [ true; false; true ]
    (List.map below_exact batched)

(* Pipelined (pool present) batches keep the sequential solve kernel, so
   answers stay bit-identical to direct sequential solves even while
   context builds run on worker domains. *)
let test_pipelined_matches_direct () =
  let ti = Workload.Scenario.coauthor ~seed:5 ~days:1 ~n:200 () in
  let shapes =
    [
      { Query.p = 3; s = 2; k = 1; m = 3 };
      { Query.p = 3; s = 1; k = 2; m = 4 };
    ]
  in
  let inits =
    List.init 4 (fun i ->
        Workload.Scenario.pick_initiator ~rank:(10 + (15 * i))
          ti.Query.social.Query.graph)
    |> List.sort_uniq compare
  in
  let reqs = List.concat_map (fun q -> List.map (fun i -> (i, q)) inits) shapes in
  let direct =
    List.map
      (fun (i, q) ->
        let ti_q =
          { ti with Query.social = { ti.Query.social with Query.initiator = i } }
        in
        Stgselect.solve ti_q q)
      reqs
  in
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  let service = Service.create ~pool ti in
  let batched = List.map Gen.served (Service.stgq_batch_r service reqs) in
  Alcotest.check Alcotest.bool "pipelined batch = direct sequential" true
    (List.for_all2 stg_eq batched direct)

(* Grouping shares one context per (initiator, s) key and preserves
   input order across interleaved groups. *)
let test_grouping_shares_and_orders () =
  let ti = Workload.Scenario.coauthor ~seed:5 ~days:1 ~n:120 () in
  let cache =
    Engine.Cache.create ~schedules:ti.Query.schedules ti.Query.social.Query.graph
  in
  let reqs = [ (0, 'a'); (1, 'b'); (0, 'c'); (1, 'd'); (0, 'e') ] in
  let out =
    Engine.Batch.run ~cache
      ~key:(fun (i, _) -> (i, 1))
      ~solve:(fun _ctx (i, tag) -> (i, tag))
      reqs
  in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.char))
    "results in input order" reqs out;
  (* One cache lookup per group, not per member: members reuse the
     group's context directly. *)
  let stats = Engine.Cache.stats cache in
  Alcotest.check Alcotest.int "one build per group" 2 stats.Engine.Cache.misses;
  Alcotest.check Alcotest.int "members do not re-look-up" 0
    stats.Engine.Cache.hits;
  ignore
    (Engine.Batch.run ~cache
       ~key:(fun (i, _) -> (i, 1))
       ~solve:(fun _ctx (i, tag) -> (i, tag))
       reqs);
  let stats = Engine.Cache.stats cache in
  Alcotest.check Alcotest.int "second batch builds nothing" 2
    stats.Engine.Cache.misses;
  Alcotest.check Alcotest.int "second batch hits per group" 2
    stats.Engine.Cache.hits

(* Concurrent misses on one key must coalesce onto a single build: in
   every interleaving exactly one domain builds (misses = 1) and the
   rest land on the finished entry (hits + misses = lookups).  Whether
   a waiter slept on the in-flight build (coalesced) is timing-
   dependent, so that part of the assertion retries on fresh caches. *)
let test_single_flight_coalesces () =
  let ti = Workload.Scenario.coauthor ~seed:9 ~days:1 ~n:1200 () in
  let graph = ti.Query.social.Query.graph in
  let initiator = Workload.Scenario.pick_initiator ~rank:5 graph in
  let n_domains = 4 in
  let attempt () =
    let cache = Engine.Cache.create graph in
    let barrier = Atomic.make 0 in
    let worker () =
      Atomic.incr barrier;
      while Atomic.get barrier < n_domains do
        Domain.cpu_relax ()
      done;
      ignore (Engine.Cache.context cache ~initiator ~s:2)
    in
    let ds = List.init (n_domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join ds;
    let stats = Engine.Cache.stats cache in
    Alcotest.check Alcotest.int "single-flight: one build" 1
      stats.Engine.Cache.misses;
    Alcotest.check Alcotest.int "everyone else hits" (n_domains - 1)
      stats.Engine.Cache.hits;
    stats.Engine.Cache.coalesced
  in
  let rec settle tries =
    let coalesced = attempt () in
    if coalesced >= 1 || tries <= 1 then coalesced else settle (tries - 1)
  in
  let coalesced = settle 5 in
  Alcotest.check Alcotest.bool "some lookup coalesced onto the build" true
    (coalesced >= 1 && coalesced <= n_domains - 1)

(* Calendar edits racing a pipelined batch: [Engine.Cache.with_solves]
   makes every batch see one consistent schedule state, so each batch's
   answers must equal the pre-edit reference or the post-edit reference
   wholesale — never a stale or torn mixture, and always certified. *)
let test_schedule_edit_race_consistent () =
  let ti = Workload.Scenario.coauthor ~seed:13 ~days:1 ~n:120 () in
  let graph = ti.Query.social.Query.graph in
  let initiator = Workload.Scenario.pick_initiator ~rank:4 graph in
  let ti = { ti with Query.social = { ti.Query.social with Query.initiator } } in
  let shapes =
    [ { Query.p = 3; s = 2; k = 1; m = 2 }; { Query.p = 3; s = 2; k = 2; m = 3 } ]
  in
  let reqs = List.map (fun q -> (initiator, q)) shapes in
  let solve_all ti = List.map (fun (_, q) -> Stgselect.solve ti q) reqs in
  let pre_refs = solve_all ti in
  (* The edit busies out an attendee of a pre-edit answer, so the post-
     edit answers genuinely differ. *)
  let victim =
    match pre_refs with
    | Some sol :: _ -> (
        match
          List.find_opt (fun v -> v <> initiator) sol.Query.st_attendees
        with
        | Some v -> v
        | None -> Alcotest.fail "expected a non-initiator attendee")
    | _ -> Alcotest.fail "expected a pre-edit solution to exist"
  in
  let horizon = Timetable.Availability.horizon ti.Query.schedules.(0) in
  let busy = Timetable.Availability.create ~horizon in
  let original = Timetable.Availability.copy ti.Query.schedules.(victim) in
  let post_refs =
    let schedules = Array.map Timetable.Availability.copy ti.Query.schedules in
    schedules.(victim) <- Timetable.Availability.copy busy;
    solve_all { ti with Query.schedules }
  in
  Alcotest.check Alcotest.bool "edit changes some answer" false
    (List.for_all2 stg_eq pre_refs post_refs);
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  let service = Service.create ~pool ti in
  let editor =
    Domain.spawn (fun () ->
        for _ = 1 to 20 do
          Service.update_schedule service ~vertex:victim busy;
          Service.update_schedule service ~vertex:victim original
        done)
  in
  for _ = 1 to 20 do
    let answers = List.map Gen.served (Service.stgq_batch_r service reqs) in
    let consistent =
      List.for_all2 stg_eq answers pre_refs
      || List.for_all2 stg_eq answers post_refs
    in
    Alcotest.check Alcotest.bool
      "batch answers match one consistent schedule state" true consistent
  done;
  Domain.join editor;
  (* The editor's last write restored the original calendar. *)
  let final = List.map Gen.served (Service.stgq_batch_r service reqs) in
  Alcotest.check Alcotest.bool "final answers are the pre-edit ones" true
    (List.for_all2 stg_eq final pre_refs)

let suite =
  [
    prop_batch_matches_unbatched;
    Alcotest.test_case "pipelined batch = direct sequential" `Quick
      test_pipelined_matches_direct;
    Alcotest.test_case "grouping shares contexts, keeps order" `Quick
      test_grouping_shares_and_orders;
    Alcotest.test_case "concurrent misses single-flight" `Quick
      test_single_flight_coalesces;
    Alcotest.test_case "schedule edits race batches consistently" `Quick
      test_schedule_edit_race_consistent;
    Alcotest.test_case "batched budgets are per request" `Quick
      test_batch_budgets_are_per_request;
  ]
