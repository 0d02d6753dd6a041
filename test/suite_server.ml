(* Wire-server integration: a real loopback socket in front of a real
   [Service], asserting the transport adds nothing and loses nothing —
   answers are bit-identical to direct calls on the regression corpus,
   budget descents (rung, gap, reason) survive the round-trip,
   concurrent clients are isolated, and the admission limit sheds with
   a typed [Overloaded] (pinned deterministically via the
   [on_admitted] hook, no sleeps). *)

open Stgq_core

let check = Alcotest.check

let loopback = Server.Tcp ("127.0.0.1", 0)

let with_server ?config service f =
  let server = Server.create ?config service in
  let handle = Server.start server loopback in
  Fun.protect
    ~finally:(fun () -> Server.stop handle)
    (fun () -> f (Server.bound_addr handle))

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let request_exn c req =
  match Server.Client.request c req with
  | Ok resp -> resp
  | Error e -> Alcotest.fail (Proto.string_of_decode_error e)

(* Expected wire image of a direct resilient call. *)
let response_of_sg = function
  | Ok (a : Query.sg_solution Resilience.answer) ->
      Proto.Sg_answer
        {
          value = a.value;
          rung = a.rung;
          gap = a.gap;
          retries = a.retries;
          reason = a.reason;
          certified = true;
          trace_id = 0;
        }
  | Error (Resilience.Degraded { reason; retries }) ->
      Proto.Failed (Proto.Degraded { reason; retries })
  | Error (Resilience.Unavailable { error; retries }) ->
      Proto.Failed
        (Proto.Unavailable { message = Printexc.to_string error; retries })

let response_of_stg = function
  | Ok (a : Query.stg_solution Resilience.answer) ->
      Proto.Stg_answer
        {
          value = a.value;
          rung = a.rung;
          gap = a.gap;
          retries = a.retries;
          reason = a.reason;
          certified = true;
          trace_id = 0;
        }
  | Error (Resilience.Degraded { reason; retries }) ->
      Proto.Failed (Proto.Degraded { reason; retries })
  | Error (Resilience.Unavailable { error; retries }) ->
      Proto.Failed
        (Proto.Unavailable { message = Printexc.to_string error; retries })

let check_identical ~name expected actual =
  if not (Proto.equal_response expected actual) then
    Alcotest.failf "%s: wire answer diverged\n  direct: %a\n  wire:   %a" name
      Proto.pp_response expected Proto.pp_response actual

(* --- fixtures ------------------------------------------------------ *)

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

(* dense enough that small node limits trip mid-search *)
let big_ti, big_q = (Gen.dense_ti, Gen.dense_q)

(* --- handshake and echo ------------------------------------------- *)

let test_hello_ping () =
  with_server (Service.create small_ti) @@ fun addr ->
  with_client addr @@ fun c ->
  (match Server.Client.hello c ~client:"suite_server" with
  | Ok v -> check Alcotest.int "negotiated version" Proto.version v
  | Error msg -> Alcotest.fail msg);
  let payload = String.init 257 (fun i -> Char.chr (i mod 256)) in
  match request_exn c (Proto.Ping payload) with
  | Proto.Pong echoed -> check Alcotest.string "echo" payload echoed
  | resp -> Alcotest.failf "expected Pong, got %a" Proto.pp_response resp

(* --- corpus replay: wire == direct -------------------------------- *)

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let all_free_ti (sg : Gen.sg_case) =
  {
    Query.social = Gen.instance_of_sg_case sg;
    schedules =
      Array.init sg.Gen.n (fun _ ->
          let a = Timetable.Availability.create ~horizon:8 in
          Timetable.Availability.set_free a 0 7;
          a);
  }

let replay_case path () =
  let case = Gen.case_of_string (read_file path) in
  let ti, n =
    match case with
    | Gen.Sg sg -> (all_free_ti sg, sg.Gen.n)
    | Gen.Stg stg -> (Gen.temporal_instance_of_stg_case stg, stg.Gen.sg.Gen.n)
  in
  let service = Service.create ti in
  with_server service @@ fun addr ->
  with_client addr @@ fun c ->
  for initiator = 0 to min 2 (n - 1) do
    match case with
    | Gen.Sg sg ->
        let q = sg.Gen.query in
        let expected = response_of_sg (Service.sgq_r service ~initiator q) in
        let actual = request_exn c (Proto.Sgq { initiator; q; policy = None }) in
        check_identical ~name:(Printf.sprintf "sgq init=%d" initiator) expected
          actual
    | Gen.Stg stg ->
        let q = Gen.stgq_of_stg_case stg in
        let expected = response_of_stg (Service.stgq_r service ~initiator q) in
        let actual = request_exn c (Proto.Stgq { initiator; q; policy = None }) in
        check_identical ~name:(Printf.sprintf "stgq init=%d" initiator) expected
          actual;
        let qsg = Query.sgq_of_stgq q in
        let expected_sg = response_of_sg (Service.sgq_r service ~initiator qsg) in
        let actual_sg =
          request_exn c (Proto.Sgq { initiator; q = qsg; policy = None })
        in
        check_identical
          ~name:(Printf.sprintf "sgq-of-stgq init=%d" initiator)
          expected_sg actual_sg
  done

let corpus_tests =
  match Gen.repo_path "test/cases" with
  | None ->
      [
        Alcotest.test_case "corpus directory present" `Quick (fun () ->
            Alcotest.fail
              "test/cases/ not found — check the (source_tree cases) dep");
      ]
  | Some dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".case")
      |> List.sort compare
      |> List.map (fun f ->
             Alcotest.test_case ("wire replay " ^ f) `Quick
               (replay_case (Filename.concat dir f)))

(* --- budget descents survive the wire ------------------------------ *)

(* Node budgets are deterministic (no wall clock involved), so direct
   and wire answers must agree exactly on every rung — value, gap
   bound, descent reason included. *)
let test_budget_descent () =
  let service = Service.create big_ti in
  with_server service @@ fun addr ->
  with_client addr @@ fun c ->
  let descended = ref false in
  List.iter
    (fun node_limit ->
      let policy =
        { Resilience.default_policy with node_limit = Some node_limit }
      in
      let wire_policy =
        { Proto.deadline_ms = None; node_limit = Some node_limit; degrade = true }
      in
      let expected =
        response_of_stg (Service.stgq_r ~policy service ~initiator:0 big_q)
      in
      let actual =
        request_exn c
          (Proto.Stgq { initiator = 0; q = big_q; policy = Some wire_policy })
      in
      check_identical
        ~name:(Printf.sprintf "node_limit=%d" node_limit)
        expected actual;
      match actual with
      | Proto.Stg_answer { rung; reason = Some Budget.Node_limit; _ }
        when rung <> Resilience.Exact ->
          descended := true
      | _ -> ())
    [ 1; 25; 200; 100000 ];
  check Alcotest.bool "at least one limit forced a descent" true !descended

(* A zero deadline is already expired at the solver's entry checkpoint,
   before any expansion can seed an incumbent — so with the heuristic
   rung disabled the ladder lands on [Degraded] every time, on both
   the direct and the wire path. *)
let test_degraded_over_wire () =
  let service = Service.create big_ti in
  with_server service @@ fun addr ->
  with_client addr @@ fun c ->
  let policy =
    { Resilience.default_policy with deadline_ms = Some 0.0; degrade = false }
  in
  let wire_policy =
    { Proto.deadline_ms = Some 0.0; node_limit = None; degrade = false }
  in
  let expected =
    response_of_stg (Service.stgq_r ~policy service ~initiator:0 big_q)
  in
  (match expected with
  | Proto.Failed (Proto.Degraded { reason = Budget.Deadline; retries = 0 }) ->
      ()
  | resp ->
      Alcotest.failf "fixture should degrade directly, got %a" Proto.pp_response
        resp);
  let actual =
    request_exn c
      (Proto.Stgq { initiator = 0; q = big_q; policy = Some wire_policy })
  in
  check_identical ~name:"degraded" expected actual

(* --- validation ----------------------------------------------------- *)

let test_bad_requests () =
  let service = Service.create small_ti in
  with_server service @@ fun addr ->
  with_client addr @@ fun c ->
  let expect_bad name req =
    match request_exn c req with
    | Proto.Failed (Proto.Bad_request _) -> ()
    | resp ->
        Alcotest.failf "%s: expected Bad_request, got %a" name Proto.pp_response
          resp
  in
  expect_bad "initiator out of range"
    (Proto.Sgq
       { initiator = 99; q = { Query.p = 2; s = 1; k = 1 }; policy = None });
  expect_bad "negative initiator"
    (Proto.Stgq
       {
         initiator = -1 land 0xFFFFFF;
         q = { Query.p = 2; s = 1; k = 1; m = 2 };
         policy = None;
       });
  expect_bad "p = 0"
    (Proto.Sgq
       { initiator = 0; q = { Query.p = 0; s = 1; k = 1 }; policy = None });
  expect_bad "vertex out of range"
    (Proto.Update_schedule
       { vertex = 77; avail = Timetable.Availability.create ~horizon:10 });
  expect_bad "horizon mismatch"
    (Proto.Update_schedule
       { vertex = 1; avail = Timetable.Availability.create ~horizon:9 });
  (* the connection survives request-level rejections *)
  match request_exn c (Proto.Ping "still here") with
  | Proto.Pong "still here" -> ()
  | resp -> Alcotest.failf "expected Pong, got %a" Proto.pp_response resp

let test_update_schedule () =
  let ti = small_ti in
  let service = Service.create ti in
  let q = { Query.p = 3; s = 2; k = 2; m = 2 } in
  with_server service @@ fun addr ->
  with_client addr @@ fun c ->
  (* busy out everyone but the initiator, over the wire *)
  let busy = Timetable.Availability.create ~horizon:(Service.horizon service) in
  for v = 1 to Service.n_vertices service - 1 do
    match request_exn c (Proto.Update_schedule { vertex = v; avail = busy }) with
    | Proto.Updated { vertex } -> check Alcotest.int "updated vertex" v vertex
    | resp -> Alcotest.failf "expected Updated, got %a" Proto.pp_response resp
  done;
  let expected = response_of_stg (Service.stgq_r service ~initiator:0 q) in
  (match expected with
  | Proto.Stg_answer { value = None; rung = Resilience.Exact; _ } -> ()
  | resp ->
      Alcotest.failf "edit should make the query infeasible, got %a"
        Proto.pp_response resp);
  let actual = request_exn c (Proto.Stgq { initiator = 0; q; policy = None }) in
  check_identical ~name:"after wire calendar edit" expected actual

(* --- concurrent clients -------------------------------------------- *)

let test_concurrent_clients () =
  let service = Service.create small_ti in
  let queries =
    List.init 6 (fun i ->
        { Query.p = 2 + (i mod 3); s = 1 + (i mod 2); k = 1 + (i mod 2); m = 1 + (i mod 4) })
  in
  (* one-threaded ground truth first *)
  let expected =
    List.map
      (fun q ->
        ( response_of_stg (Service.stgq_r service ~initiator:0 q),
          response_of_sg
            (Service.sgq_r service ~initiator:1 (Query.sgq_of_stgq q)) ))
      queries
  in
  with_server service @@ fun addr ->
  let failures = Atomic.make 0 in
  let worker () =
    with_client addr @@ fun c ->
    List.iter2
      (fun q (exp_stg, exp_sg) ->
        let actual_stg =
          request_exn c (Proto.Stgq { initiator = 0; q; policy = None })
        in
        let actual_sg =
          request_exn c
            (Proto.Sgq
               { initiator = 1; q = Query.sgq_of_stgq q; policy = None })
        in
        if
          not
            (Proto.equal_response exp_stg actual_stg
            && Proto.equal_response exp_sg actual_sg)
        then ignore (Atomic.fetch_and_add failures 1 : int))
      queries expected
  in
  let threads = List.init 4 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  check Alcotest.int "all concurrent answers bit-identical" 0
    (Atomic.get failures)

(* The served configuration: `stgq serve` attaches a pool, so each
   request runs whole on a worker domain.  Two clients send hot's mix
   at once to a pooled service, and every answer equals a pool-less
   in-process service's, trace id aside. *)
let zero_trace_id = function
  | Proto.Sg_answer a -> Proto.Sg_answer { a with trace_id = 0 }
  | Proto.Stg_answer a -> Proto.Stg_answer { a with trace_id = 0 }
  | resp -> resp

let test_pooled_server_matches_in_process () =
  let { Workload.People194.graph; schedules; _ } = Workload.Hot.world () in
  let ti = { Query.social = { Query.graph; initiator = 0 }; schedules } in
  let plain = Service.create ti in
  let mix =
    List.concat_map
      (fun initiator ->
        List.map
          (fun q ->
            ( Proto.Sgq { initiator; q; policy = None },
              response_of_sg (Service.sgq_r plain ~initiator q) ))
          Workload.Hot.sgq_shapes
        @ List.map
            (fun q ->
              ( Proto.Stgq { initiator; q; policy = None },
                response_of_stg (Service.stgq_r plain ~initiator q) ))
            Workload.Hot.stgq_shapes)
      (Workload.Hot.initiators graph)
  in
  Engine.Pool.with_pool ~size:2 @@ fun pool ->
  with_server (Service.create ~pool ti) @@ fun addr ->
  let diverged = Atomic.make 0 in
  let client () =
    with_client addr @@ fun c ->
    List.iter
      (fun (req, expected) ->
        match Server.Client.request c req with
        | Ok resp when Proto.equal_response expected (zero_trace_id resp) -> ()
        | Ok _ | Error _ -> Atomic.incr diverged)
      mix
  in
  let clients = List.init 2 (fun _ -> Thread.create client ()) in
  List.iter Thread.join clients;
  check Alcotest.int
    (Printf.sprintf "wire answers that differ, of %d per client" (List.length mix))
    0 (Atomic.get diverged)

(* --- connection lifecycle -------------------------------------------- *)

(* A closed connection leaves nothing behind in the listener: its
   handler counts itself out when it finishes.  After 200 sequential
   connect/close cycles the open-connection gauge is back to 0, and
   [stop] still waits for every handler that is live. *)
let test_connections_do_not_accumulate () =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
  let open_conns = Obs.gauge "server.connections.open" in
  let handle = Server.start (Server.create (Service.create small_ti)) loopback in
  let addr = Server.bound_addr handle in
  let ping c =
    match request_exn c (Proto.Ping "x") with
    | Proto.Pong _ -> ()
    | resp -> Alcotest.failf "expected Pong, got %a" Proto.pp_response resp
  in
  Fun.protect ~finally:(fun () -> Server.stop handle) @@ fun () ->
  for _ = 1 to 200 do
    with_client addr ping
  done;
  (* A handler finishes after its peer's close reaches it. *)
  let give_up = Unix.gettimeofday () +. 5. in
  while Obs.Gauge.value open_conns > 0 && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  check Alcotest.int "no handler outlives its connection" 0
    (Obs.Gauge.value open_conns);
  let live = List.init 3 (fun _ -> Server.Client.connect addr) in
  Fun.protect ~finally:(fun () -> List.iter Server.Client.close live) @@ fun () ->
  List.iter ping live;
  check Alcotest.int "three live handlers" 3 (Obs.Gauge.value open_conns);
  Server.stop handle;
  check Alcotest.int "stop waited for every live handler" 0
    (Obs.Gauge.value open_conns)

(* --- admission control --------------------------------------------- *)

(* Deterministic shed: the [on_admitted] hook pins request A in flight
   (holding the single admission slot) until the main thread has
   watched request B bounce off the limit. *)
let test_shedding () =
  let gate = Mutex.create () in
  let cond = Condition.create () in
  let admitted = ref false in
  let release = ref false in
  let on_admitted _req =
    Mutex.lock gate;
    admitted := true;
    Condition.broadcast cond;
    while not !release do
      Condition.wait cond gate
    done;
    Mutex.unlock gate
  in
  let config =
    {
      Server.default_config with
      admission_limit = 1;
      on_admitted = Some on_admitted;
    }
  in
  let service = Service.create small_ti in
  let q = { Query.p = 3; s = 2; k = 2; m = 2 } in
  with_server ~config service @@ fun addr ->
  let pinned_result = ref None in
  let pinned =
    Thread.create
      (fun () ->
        with_client addr @@ fun c ->
        pinned_result :=
          Some (Server.Client.request c (Proto.Stgq { initiator = 0; q; policy = None })))
      ()
  in
  Mutex.lock gate;
  while not !admitted do
    Condition.wait cond gate
  done;
  Mutex.unlock gate;
  (* slot is held: the next work request must shed, typed *)
  with_client addr (fun c ->
      match request_exn c (Proto.Sgq { initiator = 0; q = Query.sgq_of_stgq q; policy = None }) with
      | Proto.Failed (Proto.Overloaded { queue_depth; limit }) ->
          check Alcotest.int "limit" 1 limit;
          check Alcotest.bool "observed depth at least the limit" true
            (queue_depth >= 1)
      | resp ->
          Alcotest.failf "expected Overloaded, got %a" Proto.pp_response resp);
  (* control frames are never admission-gated *)
  with_client addr (fun c ->
      match request_exn c (Proto.Ping "control") with
      | Proto.Pong "control" -> ()
      | resp -> Alcotest.failf "expected Pong, got %a" Proto.pp_response resp);
  Mutex.lock gate;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock gate;
  Thread.join pinned;
  match !pinned_result with
  | Some (Ok (Proto.Stg_answer { value = Some _; _ })) -> ()
  | Some (Ok resp) ->
      Alcotest.failf "pinned request should answer, got %a" Proto.pp_response
        resp
  | Some (Error e) -> Alcotest.fail (Proto.string_of_decode_error e)
  | None -> Alcotest.fail "pinned request never completed"

(* --- version negotiation on the raw socket -------------------------- *)

let raw_exchange addr frame =
  match addr with
  | Server.Tcp (host, port) ->
      let inet = Unix.inet_addr_of_string host in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          match Unix.close fd with
          | () -> ()
          | exception Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (inet, port));
          let len = String.length frame in
          let sent = Unix.write fd (Bytes.unsafe_of_string frame) 0 len in
          check Alcotest.int "frame sent whole" len sent;
          let buf = Bytes.create 4096 in
          let rec drain off =
            match Unix.read fd buf off (Bytes.length buf - off) with
            | 0 -> off
            | n -> drain (off + n)
          in
          let got = drain 0 in
          Bytes.sub_string buf 0 got)
  | Server.Unix_path _ -> Alcotest.fail "raw_exchange expects TCP"

let test_wrong_version_over_wire () =
  let service = Service.create small_ti in
  with_server service @@ fun addr ->
  let frame = Bytes.of_string (Proto.encode_request (Proto.Ping "v?")) in
  Bytes.set frame Proto.header_bytes (Char.chr (Proto.version + 7));
  (* the server answers Unsupported_version, then closes — so one read
     loop drains exactly one response frame *)
  let raw = raw_exchange addr (Bytes.to_string frame) in
  match Proto.decode_response raw with
  | Ok (Proto.Failed (Proto.Unsupported_version { server_version })) ->
      check Alcotest.int "server version" Proto.version server_version
  | Ok resp ->
      Alcotest.failf "expected Unsupported_version, got %a" Proto.pp_response
        resp
  | Error e -> Alcotest.fail (Proto.string_of_decode_error e)

(* A persistent raw connection speaking exact frames — unlike
   [raw_exchange] it does not wait for the server to hang up, so it can
   hold a whole session at a pinned wire version. *)
let raw_session addr f =
  match addr with
  | Server.Tcp (host, port) ->
      let inet = Unix.inet_addr_of_string host in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          match Unix.close fd with
          | () -> ()
          | exception Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (inet, port));
          let send frame =
            let len = String.length frame in
            let sent = Unix.write fd (Bytes.unsafe_of_string frame) 0 len in
            check Alcotest.int "frame sent whole" len sent
          in
          let read_exact n =
            let buf = Bytes.create n in
            let rec go off =
              if off >= n then Bytes.unsafe_to_string buf
              else
                match Unix.read fd buf off (n - off) with
                | 0 -> Alcotest.fail "server hung up mid-frame"
                | got -> go (off + got)
            in
            go 0
          in
          let recv () =
            match Proto.decode_frame_length (read_exact Proto.header_bytes) with
            | Ok len -> read_exact len
            | Error e -> Alcotest.fail (Proto.string_of_decode_error e)
          in
          f send recv)
  | Server.Unix_path _ -> Alcotest.fail "raw_session expects TCP"

(* An old client speaks v1 for the whole session: the server must reply
   at v1 (payload version byte) and its answers must decode cleanly —
   in particular without the v2 trace-id field. *)
let test_v1_client_session () =
  let service = Service.create small_ti in
  with_server service @@ fun addr ->
  raw_session addr @@ fun send recv ->
  send
    (Proto.encode_request ~version:Proto.min_version
       (Proto.Hello { client = "old-build"; speaks = 1 }));
  let payload = recv () in
  check Alcotest.int "reply framed at v1" Proto.min_version
    (Char.code payload.[0]);
  (match Proto.decode_response_payload payload with
  | Ok (Proto.Hello_ok { version }) ->
      check Alcotest.int "negotiated down to the client" Proto.min_version
        version
  | Ok resp -> Alcotest.failf "expected Hello_ok, got %a" Proto.pp_response resp
  | Error e -> Alcotest.fail (Proto.string_of_decode_error e));
  let q = { Query.p = 4; s = 2; k = 2; m = 3 } in
  send
    (Proto.encode_request ~version:Proto.min_version
       (Proto.Stgq { initiator = 0; q; policy = None }));
  let payload = recv () in
  check Alcotest.int "answer framed at v1" Proto.min_version
    (Char.code payload.[0]);
  (* byte-for-byte, the answer is what a v1 build would have produced:
     re-encoding the decoded answer at v1 reproduces the payload *)
  match Proto.decode_response_payload payload with
  | Ok (Proto.Stg_answer { value = Some _; trace_id; _ } as resp) ->
      check Alcotest.int "no trace id crosses a v1 wire" 0 trace_id;
      check Alcotest.string "payload identical to a v1 build's"
        (Proto.encode_response ~version:Proto.min_version resp)
        (let b = Buffer.create 64 in
         Buffer.add_string b
           (String.init Proto.header_bytes (fun i ->
                Char.chr
                  ((String.length payload lsr ((3 - i) * 8)) land 0xFF)));
         Buffer.add_string b payload;
         Buffer.contents b)
  | Ok resp ->
      Alcotest.failf "expected an answer, got %a" Proto.pp_response resp
  | Error e -> Alcotest.fail (Proto.string_of_decode_error e)

(* Hello negotiation picks min(server, client) clamped into range. *)
let test_hello_negotiation_bounds () =
  let service = Service.create small_ti in
  with_server service @@ fun addr ->
  let negotiate speaks =
    raw_session addr @@ fun send recv ->
    send (Proto.encode_request (Proto.Hello { client = "probe"; speaks }));
    match Proto.decode_response_payload (recv ()) with
    | Ok (Proto.Hello_ok { version }) -> version
    | Ok resp ->
        Alcotest.failf "expected Hello_ok, got %a" Proto.pp_response resp
    | Error e -> Alcotest.fail (Proto.string_of_decode_error e)
  in
  check Alcotest.int "matching build" Proto.version (negotiate Proto.version);
  check Alcotest.int "future client capped at ours" Proto.version (negotiate 9);
  check Alcotest.int "older client respected" Proto.min_version (negotiate 1);
  check Alcotest.int "nonsense 0 clamped up" Proto.min_version (negotiate 0)

(* With the flight recorder on, v2 answers carry a server-assigned
   trace id and the stitched tree is fetchable under it. *)
let test_answer_trace_id_fetchable () =
  Obs.set_enabled true;
  Obs.Trace.set_enabled true;
  Obs.Flightrec.set_enabled true;
  Obs.reset ();
  Obs.Trace.reset ();
  Obs.Flightrec.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Flightrec.set_enabled false;
      Obs.Flightrec.reset ();
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ();
      Obs.set_enabled false)
  @@ fun () ->
  let service = Service.create small_ti in
  with_server service @@ fun addr ->
  with_client addr @@ fun c ->
  (match Server.Client.hello c ~client:"suite_server" with
  | Ok v -> check Alcotest.int "negotiated v2" Proto.version v
  | Error msg -> Alcotest.fail msg);
  let q = { Query.p = 4; s = 2; k = 2; m = 3 } in
  match request_exn c (Proto.Stgq { initiator = 0; q; policy = None }) with
  | Proto.Stg_answer { trace_id; _ } ->
      check Alcotest.bool "trace id assigned" true (trace_id > 0);
      (match Obs.Flightrec.find trace_id with
      | None -> Alcotest.fail "answer's trace id not retained"
      | Some roots ->
          let rec names t =
            t.Obs.Trace.t_span.Obs.Trace.sp_name
            :: List.concat_map names t.Obs.Trace.t_children
          in
          let all = List.concat_map names roots in
          check Alcotest.bool "server envelope stitched in" true
            (List.mem "server.request" all);
          check Alcotest.bool "service span stitched in" true
            (List.mem "service.stgq" all));
      (match
         Obs.Exposition.respond ~baseline:(Obs.snapshot ())
           (Printf.sprintf "/trace/%d" trace_id)
       with
      | 200, _, body ->
          check Alcotest.bool "/trace/:id serves it" true
            (let nh = String.length body in
             let needle = "server.request" in
             let nn = String.length needle in
             let rec at i =
               i + nn <= nh && (String.sub body i nn = needle || at (i + 1))
             in
             at 0)
      | s, _, _ -> Alcotest.failf "/trace/:id -> %d" s)
  | resp -> Alcotest.failf "expected an answer, got %a" Proto.pp_response resp

let test_oversized_frame_over_wire () =
  let service = Service.create small_ti in
  with_server service @@ fun addr ->
  let header =
    String.init 4 (fun i ->
        Char.chr (((Proto.max_frame + 1) lsr ((3 - i) * 8)) land 0xFF))
  in
  let raw = raw_exchange addr header in
  match Proto.decode_response raw with
  | Ok (Proto.Failed (Proto.Bad_request _)) -> ()
  | Ok resp ->
      Alcotest.failf "expected Bad_request, got %a" Proto.pp_response resp
  | Error e -> Alcotest.fail (Proto.string_of_decode_error e)

(* `stgq query` exits with one code per server error kind: the codes
   are distinct, clear of success and of cmdliner's own, listed for
   --help and in docs/PROTOCOL.md, and a refusal the server really
   sends maps to its kind's code. *)
let test_exit_code_per_error_kind () =
  let kinds =
    [
      ("Overloaded", Proto.Overloaded { queue_depth = 1; limit = 1 });
      ("Degraded", Proto.Degraded { reason = Budget.Deadline; retries = 0 });
      ("Unavailable", Proto.Unavailable { message = "x"; retries = 0 });
      ("Bad_request", Proto.Bad_request { message = "x" });
      ("Unsupported_version", Proto.Unsupported_version { server_version = 1 });
    ]
  in
  let codes = List.map (fun (_, e) -> Server.Client.exit_code e) kinds in
  check Alcotest.(list int) "one code per kind, listed in code order"
    (List.map fst Server.Client.exit_codes) codes;
  check Alcotest.int "all distinct" (List.length kinds)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c ->
      check Alcotest.bool "clear of 0, 1 and cmdliner's 123-125" false
        (List.mem c [ 0; 1; 123; 124; 125 ]))
    codes;
  let doc =
    match Gen.repo_path "docs/PROTOCOL.md" with
    | Some path -> In_channel.with_open_bin path In_channel.input_all
    | None -> Alcotest.fail "docs/PROTOCOL.md not found"
  in
  List.iter
    (fun (name, e) ->
      let row = Printf.sprintf "| %d | `%s` |" (Server.Client.exit_code e) name in
      check Alcotest.bool ("docs/PROTOCOL.md lists " ^ row) true
        (Astring_like.contains doc row))
    kinds;
  let service = Service.create small_ti in
  with_server service @@ fun addr ->
  with_client addr @@ fun c ->
  match
    request_exn c
      (Proto.Sgq { initiator = 99; q = { Query.p = 2; s = 1; k = 1 }; policy = None })
  with
  | Proto.Failed e ->
      check Alcotest.int "an out-of-range initiator exits as a bad request"
        (Server.Client.exit_code (Proto.Bad_request { message = "" }))
        (Server.Client.exit_code e)
  | resp -> Alcotest.failf "expected a refusal, got %a" Proto.pp_response resp

(* --- calendar edits against in-flight wire queries ------------------- *)

module R = Suite_service

let rm_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Unix.rmdir d

let expect_updated c ~vertex avail =
  match request_exn c (Proto.Update_schedule { vertex; avail }) with
  | Proto.Updated _ -> ()
  | resp -> Alcotest.failf "expected Updated, got %a" Proto.pp_response resp

(* A wire calendar edit on a second connection arrives while the first
   connection's STGQ sits between its search and its certificate, on a
   store-backed server.  The edit is journalled and acked while the
   query is held; the query answers the pre-edit optimum, certified,
   the WAL holds the edit and the next query sees it. *)
let test_wire_edit_lands_mid_query () =
  let r = R.calendar_race () in
  let q = List.nth r.R.shapes 0 and pre = List.nth r.R.pre_refs 0 in
  let initiator = r.R.initiator and victim = r.R.victim and busy = r.R.busy in
  let service = Service.create r.R.ti in
  let dir = Filename.temp_dir "stgq_wire_race" "" in
  Fun.protect ~finally:(fun () -> rm_dir dir) @@ fun () ->
  let store =
    match
      Store.open_dir dir ~init:(fun () ->
          Store.state_of_instance (Service.graph service) (Service.schedules service))
    with
    | Ok (store, _) -> store
    | Error e -> Alcotest.failf "open_dir: %s" (Store.string_of_error e)
  in
  let (answer, seen), next =
    Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
    with_server ~config:{ Server.default_config with store = Some store } service
    @@ fun addr ->
    with_client addr @@ fun querier ->
    with_client addr @@ fun editor ->
    let ask () = request_exn querier (Proto.Stgq { initiator; q; policy = None }) in
    let mid =
      Gen.edit_mid_solve ~src:"stgq.stgselect"
        ~edit:(fun () -> expect_updated editor ~vertex:victim busy)
        ask
    in
    (mid, ask ())
  in
  (match answer with
  | Proto.Stg_answer { value; certified = true; _ } ->
      check Alcotest.bool "the answer is the pre-edit optimum" true
        (R.same_stg value pre)
  | resp -> Alcotest.failf "expected a certified answer, got %a" Proto.pp_response resp);
  R.check_landed_mid seen;
  (match next with
  | Proto.Stg_answer { value; certified = true; _ } ->
      check Alcotest.bool "the next query sees the edit" true
        (R.same_stg value (List.nth r.R.post_refs 0))
  | resp -> Alcotest.failf "expected a certified answer, got %a" Proto.pp_response resp);
  match Store.replay_wal (Store.wal_path ~dir ~gen:0) with
  | Ok { Store.deltas = [ Store.Schedule_set { vertex; avail } ]; _ } ->
      check Alcotest.int "the WAL holds the edit's vertex" victim vertex;
      check Alcotest.bool "the WAL holds the edit's calendar" true
        (Bitset.equal
           (Timetable.Availability.bits avail)
           (Timetable.Availability.bits busy))
  | Ok r -> Alcotest.failf "expected one journalled edit, got %d" r.Store.records
  | Error e -> Alcotest.failf "replay_wal: %s" (Store.string_of_error e)

(* Two wire query clients and one wire calendar writer: every answer is
   certified and equals its shape's pre-edit or post-edit reference. *)
let test_wire_queries_race_calendar_writer () =
  let r = R.calendar_race () in
  let service = Service.create r.R.ti in
  with_server service @@ fun addr ->
  let failures = Atomic.make 0 in
  let stgq q = Proto.Stgq { initiator = r.R.initiator; q; policy = None } in
  let ask c i q =
    match request_exn c (stgq q) with
    | Proto.Stg_answer { value; certified = true; _ } when R.either_ref r i value -> ()
    | _ -> Atomic.incr failures
  in
  let querier () =
    with_client addr @@ fun c ->
    for _ = 1 to 20 do
      List.iteri (ask c) r.R.shapes
    done
  in
  let writer () =
    with_client addr @@ fun c ->
    let set avail =
      match request_exn c (Proto.Update_schedule { vertex = r.R.victim; avail }) with
      | Proto.Updated _ -> ()
      | _ -> Atomic.incr failures
    in
    for _ = 1 to 20 do
      set r.R.busy;
      set r.R.original
    done
  in
  let threads = List.map (fun f -> Thread.create f ()) [ querier; querier; writer ] in
  List.iter Thread.join threads;
  check Alcotest.int "every edit acked, every answer certified and consistent" 0
    (Atomic.get failures);
  (* The writer's last edit restored the original calendar. *)
  with_client addr @@ fun c ->
  List.iter2
    (fun q pre ->
      match request_exn c (stgq q) with
      | Proto.Stg_answer { value; certified = true; _ } ->
          check Alcotest.bool "the final answer is the pre-edit one" true
            (R.same_stg value pre)
      | resp -> Alcotest.failf "expected a certified answer, got %a" Proto.pp_response resp)
    r.R.shapes r.R.pre_refs

let suite =
  [
    Alcotest.test_case "hello and ping" `Quick test_hello_ping;
    Alcotest.test_case "budget descents survive the wire" `Quick
      test_budget_descent;
    Alcotest.test_case "degraded survives the wire" `Quick
      test_degraded_over_wire;
    Alcotest.test_case "bad requests are typed and non-fatal" `Quick
      test_bad_requests;
    Alcotest.test_case "calendar edit over the wire" `Quick test_update_schedule;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "pooled server answers hot's mix as in process" `Quick
      test_pooled_server_matches_in_process;
    Alcotest.test_case "closed connections do not accumulate" `Quick
      test_connections_do_not_accumulate;
    Alcotest.test_case "admission limit sheds typed Overloaded" `Quick
      test_shedding;
    Alcotest.test_case "wrong version over the wire" `Quick
      test_wrong_version_over_wire;
    Alcotest.test_case "v1 client session end to end" `Quick
      test_v1_client_session;
    Alcotest.test_case "hello negotiation bounds" `Quick
      test_hello_negotiation_bounds;
    Alcotest.test_case "v2 answers carry a fetchable trace id" `Quick
      test_answer_trace_id_fetchable;
    Alcotest.test_case "oversized frame over the wire" `Quick
      test_oversized_frame_over_wire;
    Alcotest.test_case "wire calendar edit lands mid-query" `Quick
      test_wire_edit_lands_mid_query;
    Alcotest.test_case "one exit code per server error kind" `Quick
      test_exit_code_per_error_kind;
    Alcotest.test_case "wire queries race a wire calendar writer" `Quick
      test_wire_queries_race_calendar_writer;
  ]
  @ corpus_tests
