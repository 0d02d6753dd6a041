(* The fault matrix: each test drives the resilient serving path through
   one {!Faultinject} site and asserts the supervisor / degradation
   ladder absorbs whatever the active plan injects there — a typed
   answer or typed error, never a raw [Injected_fault] escaping.

   The plan comes from STGQ_FAULTS (parsed once by [Faultinject] at
   start-up).  With no plan armed — the plain `dune runtest` run — every
   test passes trivially; the root [@faults] alias re-runs this suite
   once per plan in docs/ROBUSTNESS.md's matrix. *)

open Stgq_core

let check = Alcotest.check

let specs =
  match Sys.getenv_opt "STGQ_FAULTS" with
  | None | Some "" -> []
  | Some raw -> (
      match Faultinject.parse raw with
      | Ok specs -> specs
      | Error msg -> failwith ("unparsable STGQ_FAULTS plan: " ^ msg))

let spec_for site =
  List.find_opt (fun (s : Faultinject.spec) -> s.site = site) specs

(* one-shot transient faults must be survivable; persistent or hard
   faults must surface as a typed [Unavailable] *)
let expect_result ~name ~(spec : Faultinject.spec) ~fired result =
  if not fired then ()
  else if spec.transient && not spec.persistent then
    match result with
    | Ok (a : _ Resilience.answer) ->
        check Alcotest.bool (name ^ ": retried") true (a.retries >= 1)
    | Error e ->
        Alcotest.failf "%s: one transient fault must be absorbed, got %a" name
          Resilience.pp_error e
  else
    match result with
    | Ok _ -> Alcotest.failf "%s: persistent fault must not yield an answer" name
    | Error (Resilience.Unavailable _) -> ()
    | Error (Resilience.Degraded _ as e) ->
        Alcotest.failf "%s: hard faults are Unavailable, got %a" name
          Resilience.pp_error e

let fast = { Resilience.default_policy with backoff_ms = 0.01 }

(* --- fixtures ------------------------------------------------------ *)

(* small and fully-connected: every query below has a solution *)
let small_ti =
  let n = 6 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v, 1. +. float_of_int ((u + v) mod 3)) :: !edges
    done
  done;
  let horizon = 10 in
  let schedules =
    Array.init n (fun _ ->
        let a = Timetable.Availability.create ~horizon in
        Timetable.Availability.set_free a 0 (horizon - 1);
        a)
  in
  {
    Query.social =
      { Query.graph = Socgraph.Graph.of_edges n !edges; initiator = 0 };
    schedules;
  }

let small_q = { Query.p = 3; s = 2; k = 2; m = 2 }

(* dense enough that the kernel crosses several 256-node checkpoints *)
let big_ti, big_q = (Gen.dense_ti, Gen.dense_q)

(* --- sites ---------------------------------------------------------- *)

let test_pool_job_start () =
  match spec_for Faultinject.Pool_job_start with
  | None -> ()
  | Some _ ->
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
      let respawns = Obs.counter "engine.pool.respawns" in
      let before = Obs.Counter.value respawns in
      let results =
        Engine.Pool.with_pool ~size:2 @@ fun pool ->
        Engine.Pool.await_all
          (List.map (Engine.Pool.submit pool) (List.init 12 (fun i () -> i + 1)))
      in
      check
        (Alcotest.list Alcotest.int)
        "batch completes despite injected worker death"
        (List.init 12 (fun i -> i + 1))
        results;
      check Alcotest.bool "respawn counted" true
        (Obs.Counter.value respawns > before)

let test_context_build () =
  match spec_for Faultinject.Context_build with
  | None -> ()
  | Some spec ->
      let t = Service.create small_ti in
      let result =
        Service.sgq_r ~policy:fast t ~initiator:0
          { Query.p = small_q.p; s = small_q.s; k = small_q.k }
      in
      let fired = Faultinject.hits Faultinject.Context_build > 0 in
      check Alcotest.bool "context-build site reached" true fired;
      expect_result ~name:"context_build" ~spec ~fired result;
      (* a transient plan must leave the service fully serviceable *)
      if spec.transient && not spec.persistent then
        match result with
        | Ok { value = Some s; _ } ->
            check Alcotest.bool "served answer is feasible" true
              (Validate.is_valid_sg small_ti.Query.social
                 { Query.p = small_q.p; s = small_q.s; k = small_q.k }
                 s)
        | _ -> Alcotest.fail "context_build: expected a served answer"

let test_kernel_expansion () =
  match spec_for Faultinject.Kernel_expansion with
  | None -> ()
  | Some spec ->
      let result =
        Resilience.run ~policy:fast
          ~exact:(fun b -> (Stgselect.solve_report ~budget:b big_ti big_q).outcome)
          ~heuristic:(fun b -> Heuristics.beam_stgq ~budget:b big_ti big_q)
          ()
      in
      let fired = Faultinject.hits Faultinject.Kernel_expansion > 0 in
      check Alcotest.bool "kernel checkpoint reached" true fired;
      expect_result ~name:"kernel_expansion" ~spec ~fired result

let small_q_sg = { Query.p = small_q.p; s = small_q.s; k = small_q.k }

let test_certify () =
  match spec_for Faultinject.Certify with
  | None -> ()
  | Some spec ->
      let result =
        Resilience.run ~policy:fast
          ~exact:(fun b ->
            let report = Sgselect.solve_report ~budget:b small_ti.Query.social small_q_sg in
            Resilience.certify_outcome
              ~certify:(Validate.certify_sg small_ti.Query.social small_q_sg)
              report.outcome)
          ~heuristic:(fun b ->
            Validate.certify_sg small_ti.Query.social small_q_sg
              (Heuristics.beam_sgq ~budget:b small_ti.Query.social small_q_sg))
          ()
      in
      let fired = Faultinject.hits Faultinject.Certify > 0 in
      check Alcotest.bool "certification reached" true fired;
      expect_result ~name:"certify" ~spec ~fired result

(* --- the wire path --------------------------------------------------- *)

(* Faults injected beneath [Service] must survive the wire as typed
   [Failed] responses — never a dropped connection or a decode error.
   [with_plan] supersedes whatever STGQ_FAULTS plan is armed, so both
   ladders are exercised deterministically on every run of the matrix,
   including the plain `dune runtest` one. *)
let test_wire_survival () =
  let service = Service.create small_ti in
  let config = { Server.default_config with policy = Some fast } in
  Suite_server.with_server ~config service @@ fun addr ->
  Suite_server.with_client addr @@ fun c ->
  let sgq initiator =
    Suite_server.request_exn c
      (Proto.Sgq { initiator; q = small_q_sg; policy = None })
  in
  (* one transient context-build fault: the retry ladder absorbs it and
     the served wire answer records the retry *)
  (Faultinject.with_plan "context_build@1:transient" @@ fun () ->
   match sgq 0 with
   | Proto.Sg_answer { value = Some _; retries; _ } ->
       check Alcotest.bool "wire answer records the retry" true (retries >= 1)
   | resp ->
       Alcotest.failf "wire: one transient fault must be absorbed, got %a"
         Proto.pp_response resp);
  (* a persistent fault on an uncached context key: the ladder exhausts
     its retries and the wire carries a typed [Unavailable] *)
  (Faultinject.with_plan "context_build@1+" @@ fun () ->
   match sgq 1 with
   | Proto.Failed (Proto.Unavailable _) -> ()
   | resp ->
       Alcotest.failf "wire: persistent fault must be Unavailable, got %a"
         Proto.pp_response resp);
  (* a failed request is an answer, not a hangup *)
  match Suite_server.request_exn c (Proto.Ping "alive") with
  | Proto.Pong "alive" -> ()
  | resp ->
      Alcotest.failf "connection must survive injected faults, got %a"
        Proto.pp_response resp

(* Replay the armed STGQ_FAULTS plan itself through the server: a
   persistent plan must surface over the wire exactly as it does
   directly.  A one-shot plan was consumed by the direct tests above
   (hit counters are process-wide) — the wire path then serves normally,
   which is asserted too.  Either way the fault never escapes as a raw
   exception or a dropped connection. *)
let test_wire_env_plan () =
  match spec_for Faultinject.Context_build with
  | None -> ()
  | Some spec -> (
      let service = Service.create small_ti in
      let config = { Server.default_config with policy = Some fast } in
      Suite_server.with_server ~config service @@ fun addr ->
      Suite_server.with_client addr @@ fun c ->
      let resp =
        Suite_server.request_exn c
          (Proto.Sgq { initiator = 0; q = small_q_sg; policy = None })
      in
      if spec.persistent then
        match resp with
        | Proto.Failed (Proto.Unavailable _) -> ()
        | resp ->
            Alcotest.failf
              "env plan must cross the wire as Unavailable, got %a"
              Proto.pp_response resp
      else
        (* spent or absorbed one-shot: the wire serves an answer *)
        match resp with
        | Proto.Sg_answer { value = Some _; _ } -> ()
        | resp ->
            Alcotest.failf "wire must serve despite a one-shot fault, got %a"
              Proto.pp_response resp)

(* The served configuration under a worker death.  `stgq serve`
   attaches a pool, so each wire request is one pool job; the pool's
   worker dies as that job starts.  The supervisor requeues the job on
   its replacement, and the wire carries the answer a pool-less service
   gives.  [with_plan] supersedes any armed STGQ_FAULTS plan, so this
   runs on every run of the matrix; the pool-less reference starts no
   pool job, so the wire request's job is the plan's first hit. *)
let test_pooled_wire_worker_death () =
  Faultinject.with_plan "pool_job_start@1" @@ fun () ->
  let expected =
    Suite_server.response_of_stg
      (Service.stgq_r (Service.create small_ti) ~initiator:0 small_q)
  in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let respawns = Obs.counter "engine.pool.respawns" in
  let before = Obs.Counter.value respawns in
  let actual =
    Engine.Pool.with_pool ~size:1 @@ fun pool ->
    Suite_server.with_server (Service.create ~pool small_ti) @@ fun addr ->
    Suite_server.with_client addr @@ fun c ->
    Suite_server.request_exn c
      (Proto.Stgq { initiator = 0; q = small_q; policy = None })
  in
  check Alcotest.int "two job starts: the one that died, then its requeue" 2
    (Faultinject.hits Faultinject.Pool_job_start);
  Suite_server.check_identical ~name:"requeued request" expected actual;
  (* [with_pool] has joined every worker, the dead one included, so its
     respawn is counted by now. *)
  check Alcotest.int "one respawn" 1 (Obs.Counter.value respawns - before)

let suite =
  [
    Alcotest.test_case "pool job start" `Quick test_pool_job_start;
    Alcotest.test_case "context build" `Quick test_context_build;
    Alcotest.test_case "kernel expansion" `Quick test_kernel_expansion;
    Alcotest.test_case "certify" `Quick test_certify;
    Alcotest.test_case "wire survival" `Quick test_wire_survival;
    Alcotest.test_case "wire env plan" `Quick test_wire_env_plan;
    Alcotest.test_case "pooled wire request survives a worker death" `Quick
      test_pooled_wire_worker_death;
  ]
