(* The resilience stack: Budget trip/latch semantics (including a
   cross-domain cancel), Anytime outcome construction, the differential
   guarantee that an unlimited budget is bit-identical to no budget, the
   degradation ladder's rungs / retries / typed failures with their Obs
   counters, and pool-worker respawn under an injected fault. *)

open Stgq_core

let check = Alcotest.check

(* --- fixtures ----------------------------------------------------- *)

(* A dense deterministic STGQ instance big enough that the exact solver
   crosses several budget checkpoints (256 nodes each). *)
let big_ti, big_q = (Gen.dense_ti, Gen.dense_q)

(* --- Budget ------------------------------------------------------- *)

let test_budget_unlimited () =
  let b = Budget.unlimited in
  check Alcotest.bool "is_unlimited" true (Budget.is_unlimited b);
  check Alcotest.bool "never trips" true (Budget.check b = None);
  check Alcotest.bool "charge is free" true (Budget.charge b 100_000 = None);
  Budget.cancel b;
  check Alcotest.bool "cancel is a no-op" true (not (Budget.cancelled b));
  check Alcotest.bool "still untripped" true (Budget.tripped b = None)

let test_budget_node_limit_latches () =
  let b = Budget.create ~node_limit:10 () in
  check Alcotest.bool "under limit" true (Budget.charge b 8 = None);
  check Alcotest.bool "over limit trips" true
    (Budget.charge b 8 = Some Budget.Node_limit);
  check Alcotest.int "charges accumulate" 16 (Budget.nodes_charged b);
  (* the first cause latches: a later cancel cannot rewrite history *)
  Budget.cancel b;
  check Alcotest.bool "reason latched" true
    (Budget.tripped b = Some Budget.Node_limit)

let test_budget_deadline () =
  let expired = Budget.within_ms 0 in
  check Alcotest.bool "already expired" true
    (Budget.check expired = Some Budget.Deadline);
  let roomy = Budget.within_ms 60_000 in
  check Alcotest.bool "far deadline untripped" true (Budget.check roomy = None);
  match Budget.remaining_ns roomy with
  | None -> Alcotest.fail "deadline budget must report remaining time"
  | Some ns -> check Alcotest.bool "remaining positive" true (ns > 0L)

let test_budget_cross_domain_cancel () =
  let flag = Atomic.make false in
  let b = Budget.create ~cancel:flag () in
  check Alcotest.bool "initially live" true (Budget.check b = None);
  let d = Domain.spawn (fun () -> Budget.cancel b) in
  Domain.join d;
  check Alcotest.bool "cancel visible across domains" true
    (Budget.check b = Some Budget.Cancelled);
  check Alcotest.bool "external flag observed" true (Atomic.get flag)

(* --- Anytime ------------------------------------------------------ *)

let test_anytime_make () =
  let gap_of _ = 2.5 in
  (match Anytime.make ~completion:None ~gap_of (Some 7) with
  | Anytime.Optimal (Some 7) -> ()
  | _ -> Alcotest.fail "complete run with answer must be Optimal");
  (match Anytime.make ~completion:None ~gap_of None with
  | Anytime.Optimal None -> ()
  | _ -> Alcotest.fail "complete run without answer is proven infeasible");
  (match Anytime.make ~completion:(Some Budget.Deadline) ~gap_of (Some 7) with
  | Anytime.Feasible_best { best = 7; gap; reason = Budget.Deadline } ->
      check (Alcotest.float 1e-9) "gap from gap_of" 2.5 gap
  | _ -> Alcotest.fail "truncated run with incumbent must be Feasible_best");
  match Anytime.make ~completion:(Some Budget.Node_limit) ~gap_of None with
  | Anytime.Exhausted Budget.Node_limit -> ()
  | _ -> Alcotest.fail "truncated run without incumbent must be Exhausted"

(* [Stgselect.convert_outcome], which STGSelect, Parallel and Planner
   share: a windowed group maps to original ids with its start slot and
   keeps its gap and reason; a group without a window start is dropped,
   degrading an incumbent to [Exhausted] with the same reason. *)
let test_convert_outcome () =
  (* The ball of 2 at s = 1 is {1, 2, 3}: sub-ids 0, 1, 2. *)
  let g = Socgraph.Graph.of_edges 5 [ (1, 2, 1.); (2, 3, 2.); (0, 4, 1.) ] in
  let fg = Engine.Feasible.extract g ~initiator:2 ~s:1 in
  let windowed = { Search_core.group = [ 1; 2 ]; distance = 2.; window_start = Some 4 } in
  let windowless = { windowed with Search_core.window_start = None } in
  let convert = Stgselect.convert_outcome fg in
  let solution = { Query.st_attendees = [ 2; 3 ]; st_total_distance = 2.; start_slot = 4 } in
  check Alcotest.bool "optimal, windowed" true
    (convert (Anytime.Optimal (Some windowed)) = Anytime.Optimal (Some solution));
  check Alcotest.bool "incumbent, windowed" true
    (convert (Anytime.Feasible_best { best = windowed; gap = 0.5; reason = Budget.Deadline })
    = Anytime.Feasible_best { best = solution; gap = 0.5; reason = Budget.Deadline });
  check Alcotest.bool "optimal, windowless" true
    (convert (Anytime.Optimal (Some windowless)) = Anytime.Optimal None);
  check Alcotest.bool "incumbent, windowless" true
    (convert
       (Anytime.Feasible_best { best = windowless; gap = 0.5; reason = Budget.Node_limit })
    = Anytime.Exhausted Budget.Node_limit);
  check Alcotest.bool "proven infeasible" true
    (convert (Anytime.Optimal None) = Anytime.Optimal None);
  check Alcotest.bool "exhausted" true
    (convert (Anytime.Exhausted Budget.Cancelled) = Anytime.Exhausted Budget.Cancelled)

(* --- budgeted solves ---------------------------------------------- *)

(* An already-expired deadline must return promptly with a typed
   truncation — never hang, never raise — and any carried answer must
   still be feasible. *)
let test_expired_deadline_prompt_and_valid () =
  let report = Stgselect.solve_report ~budget:(Budget.within_ms 0) big_ti big_q in
  check Alcotest.bool "truncated" true (not (Anytime.complete report.outcome));
  check Alcotest.bool "reason is deadline" true
    (Anytime.reason report.outcome = Some Budget.Deadline);
  match Anytime.solution report.outcome with
  | None -> ()
  | Some s ->
      check Alcotest.bool "anytime answer is feasible" true
        (Validate.is_valid_stg big_ti big_q s)

let test_node_limit_anytime () =
  let budget = Budget.create ~node_limit:1 () in
  let report = Stgselect.solve_report ~budget big_ti big_q in
  (* the instance crosses the first checkpoint, so the cap must bite *)
  check Alcotest.bool "node budget tripped" true
    (Budget.tripped budget = Some Budget.Node_limit);
  match report.outcome with
  | Anytime.Optimal _ -> Alcotest.fail "tripped solve cannot claim optimality"
  | Anytime.Exhausted Budget.Node_limit -> ()
  | Anytime.Exhausted r ->
      Alcotest.failf "wrong exhaustion reason %s" (Budget.reason_name r)
  | Anytime.Feasible_best { best; gap; reason } ->
      check Alcotest.bool "reason is node limit" true (reason = Budget.Node_limit);
      check Alcotest.bool "gap bound is non-negative" true (gap >= 0.);
      check Alcotest.bool "incumbent is feasible" true
        (Validate.is_valid_stg big_ti big_q best)

let test_parallel_shared_budget () =
  let budget = Budget.create ~node_limit:1 () in
  (* two buckets: each sees well over one checkpoint's worth of nodes *)
  let report = Parallel.solve_report ~domains:2 ~budget big_ti big_q in
  check Alcotest.bool "shared budget tripped" true
    (Budget.tripped budget = Some Budget.Node_limit);
  check Alcotest.bool "no optimality claim" true
    (not (Anytime.complete report.Parallel.outcome));
  match Anytime.solution report.Parallel.outcome with
  | None -> ()
  | Some s ->
      check Alcotest.bool "merged incumbent is feasible" true
        (Validate.is_valid_stg big_ti big_q s)

(* --- differential: unlimited budget is bit-identical --------------- *)

let prop_unlimited_budget_identical =
  Gen.qtest ~count:40 "explicit no-limit budget is bit-identical to no budget"
    (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let q = Gen.stgq_of_stg_case case in
      let bare = Stgselect.solve_report ti q in
      let budgeted =
        Stgselect.solve_report
          ~budget:(Budget.create ~node_limit:max_int ())
          ti q
      in
      bare.solution = budgeted.solution
      && bare.stats.Search_core.nodes = budgeted.stats.Search_core.nodes
      && Anytime.complete budgeted.outcome)

let prop_sg_unlimited_budget_identical =
  Gen.qtest ~count:40 "SGQ: explicit no-limit budget is bit-identical"
    (Gen.sg_case ())
    (fun case ->
      let inst = Gen.instance_of_sg_case case in
      let bare = Sgselect.solve_report inst case.Gen.query in
      let budgeted =
        Sgselect.solve_report ~budget:(Budget.create ~node_limit:max_int ())
          inst case.Gen.query
      in
      bare.solution = budgeted.solution
      && bare.stats.Search_core.nodes = budgeted.stats.Search_core.nodes)

(* Budget checkpoints allocate nothing per node: on one domain a
   no-limit budget returns the unbudgeted answer and node count, and
   the words it adds to a cached solve are the same whether the search
   visits a handful of nodes or crosses several checkpoints. *)
let test_budget_words_independent_of_nodes () =
  let ti = Gen.replay_ti in
  let cache =
    Engine.Cache.create ~schedules:ti.Query.schedules ti.Query.social.Query.graph
  in
  let extra q =
    let ctx = Engine.Cache.context cache ~initiator:Gen.replay_initiator ~s:q.Query.s in
    let solve ?budget () = Stgselect.solve_report ?budget ~ctx ti q in
    let budget = Budget.create ~node_limit:max_int () in
    let bare = solve () and budgeted = solve ~budget () in
    check Alcotest.bool "same answer" true (bare.solution = budgeted.solution);
    check Alcotest.int "same node count" bare.stats.Search_core.nodes
      budgeted.stats.Search_core.nodes;
    let words ?budget () = Gen.minor_words (fun () -> ignore (solve ?budget ())) in
    (bare.stats.Search_core.nodes, words ~budget () - words ())
  in
  let tiny_nodes, tiny = extra Gen.tiny_q in
  let heavy_nodes, heavy = extra Gen.heavy_q in
  check Alcotest.bool "the heavy solve crosses budget checkpoints" true
    (heavy_nodes - tiny_nodes >= 2 * Budget.check_interval);
  check Alcotest.int
    (Printf.sprintf "budget words at %d nodes = at %d nodes" heavy_nodes tiny_nodes)
    tiny heavy

(* Truncated solves never lie: Optimal matches the unbudgeted answer,
   Feasible_best carries a feasible incumbent with a sound gap sign,
   Exhausted carries nothing. *)
let prop_budgeted_outcome_sound =
  Gen.qtest ~count:40 "tight node budget yields a sound outcome"
    (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let q = Gen.stgq_of_stg_case case in
      let report =
        Stgselect.solve_report ~budget:(Budget.create ~node_limit:1 ()) ti q
      in
      match report.outcome with
      | Anytime.Optimal s -> s = Stgselect.solve ti q
      | Anytime.Feasible_best { best; gap; _ } ->
          gap >= 0. && Validate.is_valid_stg ti q best
      | Anytime.Exhausted _ -> report.solution = None)

(* --- the ladder ---------------------------------------------------- *)

let counter name = Obs.Counter.value (Obs.counter name)

let with_obs f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let fast_retry =
  { Resilience.default_policy with backoff_ms = 0.01; max_retries = 2 }

let test_ladder_exact () =
  match
    Resilience.run
      ~exact:(fun _ -> Anytime.Optimal (Some 42))
      ~heuristic:(fun _ -> Alcotest.fail "heuristic must not run")
      ()
  with
  | Ok { value = Some 42; rung = Resilience.Exact; gap = Some 0.; retries = 0; reason = None } ->
      ()
  | Ok a ->
      Alcotest.failf "wrong exact answer shape (rung %s)"
        (Resilience.rung_name a.rung)
  | Error e -> Alcotest.failf "unexpected error: %a" Resilience.pp_error e

let test_ladder_anytime_counts () =
  with_obs @@ fun () ->
  let hits0 = counter "service.deadline_hits" in
  let deg0 = counter "service.degraded" in
  (match
     Resilience.run
       ~exact:(fun _ ->
         Anytime.Feasible_best { best = 7; gap = 0.5; reason = Budget.Deadline })
       ~heuristic:(fun _ -> Alcotest.fail "heuristic must not run")
       ()
   with
  | Ok { value = Some 7; rung = Resilience.Anytime_best; gap = Some g; reason = Some Budget.Deadline; _ } ->
      check (Alcotest.float 1e-9) "gap carried" 0.5 g
  | _ -> Alcotest.fail "expected the anytime rung");
  check Alcotest.int "deadline hit counted" (hits0 + 1)
    (counter "service.deadline_hits");
  check Alcotest.int "degradation counted" (deg0 + 1)
    (counter "service.degraded")

let test_ladder_heuristic_rung () =
  match
    Resilience.run
      ~exact:(fun _ -> Anytime.Exhausted Budget.Node_limit)
      ~heuristic:(fun _ -> Some 9)
      ()
  with
  | Ok { value = Some 9; rung = Resilience.Heuristic; gap = None; reason = Some Budget.Node_limit; _ } ->
      ()
  | _ -> Alcotest.fail "expected the heuristic rung"

let test_ladder_degraded () =
  match
    Resilience.run
      ~exact:(fun _ -> Anytime.Exhausted Budget.Node_limit)
      ~heuristic:(fun _ -> None)
      ()
  with
  | Error (Resilience.Degraded { reason = Budget.Node_limit; retries = 0 }) -> ()
  | _ -> Alcotest.fail "an empty heuristic rung must degrade"

let test_ladder_no_degrade_policy () =
  let heuristic_ran = ref false in
  (match
     Resilience.run
       ~policy:{ Resilience.default_policy with degrade = false }
       ~exact:(fun _ -> Anytime.Exhausted Budget.Deadline)
       ~heuristic:(fun _ ->
         heuristic_ran := true;
         Some 1)
       ()
   with
  | Error (Resilience.Degraded { reason = Budget.Deadline; _ }) -> ()
  | _ -> Alcotest.fail "degrade=false must fail typed, not fall through");
  check Alcotest.bool "heuristic rung disabled" false !heuristic_ran

let test_ladder_transient_retry () =
  with_obs @@ fun () ->
  let retries0 = counter "service.retries" in
  let calls = ref 0 in
  (match
     Resilience.run ~policy:fast_retry
       ~exact:(fun _ ->
         incr calls;
         if !calls <= 2 then
           raise
             (Faultinject.Injected_fault
                { site = Faultinject.Context_build; transient = true })
         else Anytime.Optimal (Some 1))
       ~heuristic:(fun _ -> None)
       ()
   with
  | Ok { value = Some 1; rung = Resilience.Exact; retries = 2; _ } -> ()
  | _ -> Alcotest.fail "transient faults within the allowance must retry");
  check Alcotest.int "three attempts" 3 !calls;
  check Alcotest.int "retries counted" (retries0 + 2) (counter "service.retries")

let test_ladder_unavailable () =
  with_obs @@ fun () ->
  let unav0 = counter "service.unavailable" in
  (* a non-transient failure is never retried *)
  let calls = ref 0 in
  (match
     Resilience.run ~policy:fast_retry
       ~exact:(fun _ ->
         incr calls;
         failwith "boom")
       ~heuristic:(fun _ -> None)
       ()
   with
  | Error (Resilience.Unavailable { error = Failure _; retries = 0 }) -> ()
  | _ -> Alcotest.fail "hard faults must surface as Unavailable");
  check Alcotest.int "single attempt" 1 !calls;
  (* a transient fault that outlives the allowance also gives up *)
  (match
     Resilience.run ~policy:fast_retry
       ~exact:(fun _ ->
         raise
           (Faultinject.Injected_fault
              { site = Faultinject.Certify; transient = true }))
       ~heuristic:(fun _ -> None)
       ()
   with
  | Error (Resilience.Unavailable { retries; _ }) ->
      check Alcotest.int "allowance consumed" fast_retry.max_retries retries
  | _ -> Alcotest.fail "exhausted retries must surface as Unavailable");
  check Alcotest.int "unavailability counted" (unav0 + 2)
    (counter "service.unavailable")

let test_ladder_external_cancel () =
  let cancel = Atomic.make true in
  match
    Resilience.run ~cancel
      ~exact:(fun b ->
        Anytime.Exhausted (Option.value (Budget.check b) ~default:Budget.Deadline))
      ~heuristic:(fun b ->
        check Alcotest.bool "heuristic budget shares the flag" true
          (Budget.check b = Some Budget.Cancelled);
        None)
      ()
  with
  | Error (Resilience.Degraded { reason = Budget.Cancelled; _ }) -> ()
  | _ -> Alcotest.fail "a pre-set cancel flag must degrade as Cancelled"

let test_certify_outcome () =
  let certify = function
    | Some v -> Some (v * 10)
    | None -> None
  in
  (match Resilience.certify_outcome ~certify (Anytime.Optimal (Some 3)) with
  | Anytime.Optimal (Some 30) -> ()
  | _ -> Alcotest.fail "Optimal payload must pass through the certifier");
  (match
     Resilience.certify_outcome ~certify
       (Anytime.Feasible_best { best = 4; gap = 1.; reason = Budget.Deadline })
   with
  | Anytime.Feasible_best { best = 40; _ } -> ()
  | _ -> Alcotest.fail "Feasible_best payload must pass through the certifier");
  match
    Resilience.certify_outcome
      ~certify:(fun _ -> None)
      (Anytime.Feasible_best { best = 4; gap = 1.; reason = Budget.Deadline })
  with
  | Anytime.Exhausted Budget.Deadline -> ()
  | _ -> Alcotest.fail "a vanished incumbent must degrade to Exhausted"

(* --- end to end: resilient service answers under a dead deadline --- *)

let test_service_resilient_deadline () =
  let policy =
    { fast_retry with deadline_ms = Some 0.0001; node_limit = Some 1 }
  in
  let t = Service.create big_ti in
  match
    Service.stgq_r ~policy t ~initiator:0
      { Query.p = big_q.p; s = big_q.s; k = big_q.k; m = big_q.m }
  with
  | exception e ->
      Alcotest.failf "resilient service raised: %s" (Printexc.to_string e)
  | Error (Resilience.Degraded _) -> ()
  | Error (Resilience.Unavailable _) ->
      Alcotest.fail "an expired budget is degradation, not unavailability"
  | Ok a ->
      check Alcotest.bool "a dead deadline cannot claim exactness" true
        (a.Resilience.rung <> Resilience.Exact || a.Resilience.value = None)

(* The same promise on the SGQ kind: a dead deadline degrades the
   request, never raises, never claims exactness. *)
let dead_policy = { fast_retry with deadline_ms = Some 0.0001; node_limit = Some 1 }

let not_exact name = function
  | Error (Resilience.Degraded _) -> ()
  | Error (Resilience.Unavailable _) ->
      Alcotest.failf "%s: an expired budget is degradation, not unavailability"
        name
  | Ok (a : _ Resilience.answer) ->
      check Alcotest.bool
        (name ^ ": a dead deadline cannot claim exactness")
        true
        (a.rung <> Resilience.Exact || a.value = None)

let test_service_sgq_dead_deadline () =
  let t = Service.create big_ti in
  match
    Service.sgq_r ~policy:dead_policy t ~initiator:0
      { Query.p = big_q.p; s = big_q.s; k = big_q.k }
  with
  | exception e ->
      Alcotest.failf "resilient service raised: %s" (Printexc.to_string e)
  | result -> not_exact "sgq" result

(* --- pool supervision ---------------------------------------------- *)

let test_pool_respawn () =
  with_obs @@ fun () ->
  let respawns0 = counter "engine.pool.respawns" in
  let results =
    Faultinject.with_plan "pool_job_start@1" @@ fun () ->
    Engine.Pool.with_pool ~size:2 @@ fun pool ->
    Engine.Pool.await_all
      (List.map (Engine.Pool.submit pool) (List.init 8 (fun i () -> i * i)))
  in
  check
    (Alcotest.list Alcotest.int)
    "batch completes despite the dead worker"
    [ 0; 1; 4; 9; 16; 25; 36; 49 ]
    results;
  check Alcotest.bool "the dead worker was respawned" true
    (counter "engine.pool.respawns" >= respawns0 + 1)

let suite =
  [
    Alcotest.test_case "budget: unlimited never trips" `Quick
      test_budget_unlimited;
    Alcotest.test_case "budget: node limit trips and latches" `Quick
      test_budget_node_limit_latches;
    Alcotest.test_case "budget: deadline" `Quick test_budget_deadline;
    Alcotest.test_case "budget: cross-domain cancel" `Quick
      test_budget_cross_domain_cancel;
    Alcotest.test_case "anytime: outcome construction" `Quick test_anytime_make;
    Alcotest.test_case "anytime: a windowless group is dropped" `Quick
      test_convert_outcome;
    Alcotest.test_case "expired deadline answers promptly" `Quick
      test_expired_deadline_prompt_and_valid;
    Alcotest.test_case "node limit yields a sound anytime answer" `Quick
      test_node_limit_anytime;
    Alcotest.test_case "parallel solve shares one budget" `Quick
      test_parallel_shared_budget;
    Alcotest.test_case "ladder: exact rung" `Quick test_ladder_exact;
    Alcotest.test_case "ladder: anytime rung + counters" `Quick
      test_ladder_anytime_counts;
    Alcotest.test_case "ladder: heuristic rung" `Quick test_ladder_heuristic_rung;
    Alcotest.test_case "ladder: degraded" `Quick test_ladder_degraded;
    Alcotest.test_case "ladder: degrade=false stops the descent" `Quick
      test_ladder_no_degrade_policy;
    Alcotest.test_case "ladder: transient faults retry" `Quick
      test_ladder_transient_retry;
    Alcotest.test_case "ladder: hard faults are Unavailable" `Quick
      test_ladder_unavailable;
    Alcotest.test_case "ladder: external cancel degrades as Cancelled" `Quick
      test_ladder_external_cancel;
    Alcotest.test_case "sgq service answers under a dead deadline" `Quick
      test_service_sgq_dead_deadline;
    Alcotest.test_case "certify_outcome re-checks carried answers" `Quick
      test_certify_outcome;
    Alcotest.test_case "service answers under a dead deadline" `Quick
      test_service_resilient_deadline;
    Alcotest.test_case "pool respawns a dead worker" `Quick test_pool_respawn;
    prop_unlimited_budget_identical;
    prop_sg_unlimited_budget_identical;
    prop_budgeted_outcome_sound;
    Alcotest.test_case "budget: checkpoints allocate nothing per node" `Quick
      test_budget_words_independent_of_nodes;
  ]
