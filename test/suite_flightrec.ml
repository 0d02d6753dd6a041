(* The flight-recorder plane: trace retention policy and eviction
   (Obs.Flightrec), the structured JSONL event log and its rotation
   discipline (Obs.Events), the runtime telemetry sampler
   (Obs.Runtime), the exposition routes that serve all three, and the
   docs route table staying in lock-step with the generated one. *)

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* Every test leaves the whole plane off and empty, whatever happens. *)
let with_plane f =
  Obs.set_enabled true;
  Obs.Trace.set_enabled true;
  Obs.Flightrec.set_enabled true;
  Obs.Events.set_enabled true;
  Obs.reset ();
  Obs.Trace.reset ();
  Obs.Flightrec.reset ();
  Obs.Events.reset ();
  Obs.Runtime.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Runtime.stop ();
      Obs.Events.stop ();
      Obs.Flightrec.set_enabled false;
      Obs.Flightrec.reset ();
      Obs.Flightrec.configure ~capacity:256 ~sample_every:16 ();
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ();
      Obs.set_enabled false)
    f

(* Run one fake query: a closed root span plus [observe] with the given
   outcome; returns the trace id. *)
let fake_query ?(name = "service.stgq") ?(latency_ns = 1e6) ?(degraded = false)
    ?(unavailable = false) ?(retries = 0) ?trip () =
  let tid = ref 0 in
  Obs.Trace.with_span name (fun () ->
      (match Obs.Trace.current () with
      | Some ctx -> tid := ctx.Obs.Trace.trace_id
      | None -> Alcotest.fail "tracing off: no current ctx");
      Obs.Trace.with_span "solver.inner" (fun () -> ()));
  Obs.Flightrec.observe ~trace_id:!tid ~kind:"stgq" ~latency_ns ~degraded
    ~unavailable ~retries ?trip ();
  !tid

(* ------------------------------------------------------------------ *)
(* Retention policy.                                                   *)

let test_retention_pins_bad_outcomes () =
  with_plane @@ fun () ->
  let degraded_id = fake_query ~degraded:true () in
  let unavailable_id = fake_query ~unavailable:true () in
  let tripped_id = fake_query ~trip:"deadline" () in
  let retried_id = fake_query ~retries:2 () in
  let reason_of id =
    match
      List.find_opt
        (fun (s : Obs.Flightrec.summary) -> s.s_trace_id = id)
        (Obs.Flightrec.entries ())
    with
    | Some s ->
        check Alcotest.bool
          (Printf.sprintf "trace %d pinned" id)
          true s.s_pinned;
        s.s_reason
    | None -> Alcotest.failf "trace %d not retained" id
  in
  check Alcotest.string "degraded reason" "degraded" (reason_of degraded_id);
  check Alcotest.string "unavailable reason" "unavailable"
    (reason_of unavailable_id);
  check Alcotest.string "budget-trip reason" "budget-trip"
    (reason_of tripped_id);
  check Alcotest.string "retried reason" "retried" (reason_of retried_id);
  check Alcotest.int "all four counted retained" 4 (Obs.Flightrec.retained ());
  (* the stitched forest is fetchable and complete (root + inner span) *)
  (match Obs.Flightrec.find degraded_id with
  | None -> Alcotest.fail "degraded trace not fetchable"
  | Some roots ->
      check Alcotest.int "one root" 1 (List.length roots);
      let root = List.hd roots in
      check Alcotest.string "rooted at the query span" "service.stgq"
        root.Obs.Trace.t_span.Obs.Trace.sp_name;
      check Alcotest.int "inner span stitched" 1
        (List.length root.Obs.Trace.t_children));
  match Obs.Flightrec.trace_json degraded_id with
  | None -> Alcotest.fail "no trace json"
  | Some json ->
      check Alcotest.bool "json names the trace id" true
        (contains json (string_of_int degraded_id));
      check Alcotest.bool "json names the span" true
        (contains json "service.stgq")

let test_normal_queries_reservoir_sampled () =
  with_plane @@ fun () ->
  Obs.Flightrec.configure ~sample_every:3 ();
  let ids = List.init 6 (fun _ -> fake_query ()) in
  check Alcotest.int "every 3rd normal query sampled" 2
    (Obs.Flightrec.sampled ());
  check Alcotest.int "none pinned" 0 (Obs.Flightrec.retained ());
  let retained_ids =
    List.map
      (fun (s : Obs.Flightrec.summary) -> s.s_trace_id)
      (Obs.Flightrec.entries ())
  in
  check Alcotest.int "store holds exactly the sampled ones" 2
    (List.length retained_ids);
  List.iter
    (fun id ->
      check Alcotest.bool "sampled id came from the workload" true
        (List.mem id ids))
    retained_ids;
  List.iter
    (fun id ->
      match
        List.find_opt
          (fun (s : Obs.Flightrec.summary) -> s.s_trace_id = id)
          (Obs.Flightrec.entries ())
      with
      | Some s -> check Alcotest.string "reason" "sampled" s.s_reason
      | None -> ())
    retained_ids

let test_slow_queries_pinned_after_threshold () =
  with_plane @@ fun () ->
  (* no latency samples yet: the slow criterion is disabled *)
  check (Alcotest.float 0.) "threshold starts at 0" 0.
    (Obs.Flightrec.latency_threshold_ns ());
  (* feed the service histogram so the rolling p99 exists *)
  let h = Obs.histogram "service.stgq.latency_ns" in
  for _ = 1 to 100 do
    Obs.Histogram.observe h 1e6
  done;
  check Alcotest.bool "threshold now positive" true
    (Obs.Flightrec.latency_threshold_ns () > 0.);
  let slow_id = fake_query ~latency_ns:1e12 () in
  match
    List.find_opt
      (fun (s : Obs.Flightrec.summary) -> s.s_trace_id = slow_id)
      (Obs.Flightrec.entries ())
  with
  | Some s ->
      check Alcotest.string "slow reason" "slow" s.s_reason;
      check Alcotest.bool "pinned" true s.s_pinned
  | None -> Alcotest.fail "slow query not retained"

(* ------------------------------------------------------------------ *)
(* Eviction.                                                           *)

let test_eviction_oldest_unpinned_first () =
  with_plane @@ fun () ->
  Obs.Flightrec.configure ~capacity:3 ~sample_every:1 ();
  let sampled_id = fake_query () in
  let pinned_a = fake_query ~degraded:true () in
  let pinned_b = fake_query ~degraded:true () in
  check Alcotest.int "store full" 3 (Obs.Flightrec.size ());
  (* one more pinned admission: the sampled entry goes first, not the
     older pinned ones *)
  let pinned_c = fake_query ~degraded:true () in
  check Alcotest.int "still at capacity" 3 (Obs.Flightrec.size ());
  check Alcotest.int "one eviction" 1 (Obs.Flightrec.evicted ());
  check Alcotest.bool "sampled entry evicted" true
    (Obs.Flightrec.find sampled_id = None);
  List.iter
    (fun id ->
      check Alcotest.bool
        (Printf.sprintf "pinned %d survives" id)
        true
        (Obs.Flightrec.find id <> None))
    [ pinned_a; pinned_b; pinned_c ];
  (* a fully-pinned store falls back to evicting its oldest entry *)
  let pinned_d = fake_query ~degraded:true () in
  check Alcotest.int "capacity still holds" 3 (Obs.Flightrec.size ());
  check Alcotest.bool "oldest pinned aged out" true
    (Obs.Flightrec.find pinned_a = None);
  check Alcotest.bool "newest pinned present" true
    (Obs.Flightrec.find pinned_d <> None)

let test_refresh_restitches () =
  with_plane @@ fun () ->
  let tid = ref 0 in
  let spans_at_observe = ref 0 in
  Obs.Trace.with_span "server.request" (fun () ->
      (match Obs.Trace.current () with
      | Some ctx -> tid := ctx.Obs.Trace.trace_id
      | None -> Alcotest.fail "no ctx");
      Obs.Trace.with_span "service.stgq" (fun () -> ());
      (* observe while the envelope span is still open, as the service
         layer does on the wire path *)
      Obs.Flightrec.observe ~trace_id:!tid ~kind:"stgq" ~latency_ns:1e6
        ~degraded:true ~unavailable:false ~retries:0 ();
      (match
         List.find_opt
           (fun (s : Obs.Flightrec.summary) -> s.s_trace_id = !tid)
           (Obs.Flightrec.entries ())
       with
      | Some s -> spans_at_observe := s.s_spans
      | None -> Alcotest.fail "not retained at observe time"));
  (* the envelope span has closed; refresh picks it up *)
  Obs.Flightrec.refresh !tid;
  match
    List.find_opt
      (fun (s : Obs.Flightrec.summary) -> s.s_trace_id = !tid)
      (Obs.Flightrec.entries ())
  with
  | Some s ->
      check Alcotest.bool "refresh grew the stitch" true
        (s.s_spans > !spans_at_observe);
      check Alcotest.int "envelope included" 2 s.s_spans
  | None -> Alcotest.fail "trace lost across refresh"

(* ------------------------------------------------------------------ *)
(* Event log: ring, record shape, rotation discipline.                 *)

let test_events_ring_and_tail () =
  with_plane @@ fun () ->
  for i = 1 to 5 do
    Obs.Events.emit ~kind:"unit.test" [ ("seq", string_of_int i) ]
  done;
  check Alcotest.int "emitted" 5 (Obs.Events.emitted ());
  let tail = Obs.Events.tail 3 in
  check Alcotest.int "tail bounded" 3 (List.length tail);
  (* oldest-first within the tail window: 3, 4, 5 *)
  List.iteri
    (fun i line ->
      check Alcotest.bool
        (Printf.sprintf "tail[%d] ordered" i)
        true
        (contains line (Printf.sprintf "\"seq\": %d" (i + 3)));
      check Alcotest.bool "jsonl line" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      check Alcotest.bool "self-describing" true
        (contains line "\"event\": \"unit.test\"");
      check Alcotest.bool "timestamped" true (contains line "\"ts_ns\""))
    tail

let test_query_record_shape () =
  with_plane @@ fun () ->
  Obs.Events.query_completed ~trace_id:42 ~kind:"stgq" ~initiator:7
    ~params:[ ("p", 3); ("s", 2); ("k", 1); ("m", 4) ]
    ~rung:"anytime-best" ~outcome:"degraded" ~gap:0.25 ~trip:"deadline"
    ~retries:1 ~latency_ns:5e6 ~cache_hit:true ~journalled_bytes:0 ();
  match Obs.Events.tail 1 with
  | [ line ] ->
      List.iter
        (fun needle ->
          check Alcotest.bool (needle ^ " present") true (contains line needle))
        [
          "\"event\": \"query\"";
          "\"trace_id\": 42";
          "\"kind\": \"stgq\"";
          "\"initiator\": 7";
          "\"p\": 3";
          "\"s\": 2";
          "\"k\": 1";
          "\"m\": 4";
          "\"rung\": \"anytime-best\"";
          "\"outcome\": \"degraded\"";
          "\"gap\": 0.25";
          "\"trip\": \"deadline\"";
          "\"retries\": 1";
          "\"cache_hit\": true";
          "\"journalled_bytes\": 0";
        ]
  | other -> Alcotest.failf "expected one record, got %d" (List.length other)

(* A query event's [cache_hit] is the outcome of the lookup that served
   that request, whatever other requests' lookups did: each initiator's
   first request misses and its repeat hits. *)
let test_query_events_report_own_cache_hit () =
  with_plane @@ fun () ->
  let ti = Workload.Scenario.coauthor ~seed:11 ~days:2 ~n:300 () in
  let graph = ti.Stgq_core.Query.social.Stgq_core.Query.graph in
  let a = Workload.Scenario.pick_initiator ~rank:10 graph in
  let b = Workload.Scenario.pick_initiator ~rank:20 graph in
  let service = Stgq_core.Service.create ti in
  let q = { Stgq_core.Query.p = 3; s = 2; k = 1; m = 4 } in
  let answered = function Ok _ -> () | Error _ -> Alcotest.fail "query failed" in
  List.iter
    (fun initiator -> answered (Stgq_core.Service.stgq_r service ~initiator q))
    [ a; a; b; b ];
  let hits =
    List.filter_map
      (fun line ->
        if contains line "\"event\": \"query\"" then
          Some (contains line "\"cache_hit\": true")
        else None)
      (Obs.Events.tail 64)
  in
  check (Alcotest.list Alcotest.bool)
    "miss, hit, miss, hit"
    [ false; true; false; true ]
    hits

let test_sink_rotation_discipline () =
  with_plane @@ fun () ->
  let dir = Filename.temp_dir "stgq_events_test" "" in
  Obs.Events.configure ~dir ~max_bytes:256 ~generations:2 ();
  (* each record is ~90 bytes; 40 of them forces several rotations *)
  for i = 1 to 40 do
    Obs.Events.emit ~kind:"unit.rotate" [ ("seq", string_of_int i) ]
  done;
  Obs.Events.stop ();
  check Alcotest.bool "rotations happened" true (Obs.Events.rotations () >= 3);
  let files = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
  let rotated =
    List.filter
      (fun f ->
        String.length f > 7
        && String.sub f 0 7 = "events-"
        && Filename.check_suffix f ".jsonl")
      files
  in
  (* the retention cap prunes old generations as new ones publish *)
  check Alcotest.bool "rotated generations kept" true (List.length rotated >= 1);
  check Alcotest.bool "retention cap enforced" true (List.length rotated <= 2);
  (* fsync latency was observed per record *)
  check Alcotest.bool "fsync histogram fed" true
    (Obs.Histogram.count (Obs.histogram "obs.events.fsync_ns") > 0);
  (* every surviving line is intact JSONL — no torn writes *)
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      if Filename.check_suffix f ".jsonl" then
        In_channel.with_open_text path (fun ic ->
            In_channel.input_lines ic
            |> List.iter (fun line ->
                   check Alcotest.bool
                     (Printf.sprintf "%s line intact" f)
                     true
                     (contains line "\"event\": \"unit.rotate\""))))
    files;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Unix.rmdir dir

let test_events_totals_in_snapshot () =
  with_plane @@ fun () ->
  Obs.Events.emit ~kind:"unit.snap" [];
  let snap = Obs.snapshot () in
  match List.assoc_opt "obs.events.emitted" snap.Obs.counters with
  | Some v -> check Alcotest.int "obs.events.emitted surfaces" 1 v
  | None -> Alcotest.fail "obs.events.emitted missing from snapshot"

(* ------------------------------------------------------------------ *)
(* Runtime sampler.                                                    *)

let test_sample_once_and_history () =
  with_plane @@ fun () ->
  Obs.Runtime.sample_once ();
  (* allocate many small blocks between samples — large arrays go
     straight to the major heap and would not move the minor delta *)
  let acc = ref [] in
  for i = 1 to 10_000 do
    acc := (i, i) :: !acc
  done;
  ignore (Sys.opaque_identity !acc : (int * int) list);
  Obs.Runtime.sample_once ();
  check Alcotest.int "two samples" 2 (Obs.Runtime.samples ());
  let history = Obs.Runtime.history () in
  check Alcotest.int "history holds both" 2 (List.length history);
  (match history with
  | [ first; second ] ->
      check Alcotest.bool "oldest first" true
        (first.Obs.Runtime.m_ts_ns <= second.Obs.Runtime.m_ts_ns);
      check Alcotest.bool "allocation delta seen" true
        (second.Obs.Runtime.m_minor_words > 0.);
      check Alcotest.bool "heap level plausible" true
        (second.Obs.Runtime.m_heap_words > 0)
  | _ -> Alcotest.fail "history shape");
  let json = Obs.Runtime.history_json () in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " in json") true (contains json needle))
    [
      "\"ts_ns\"";
      "\"minor_words\"";
      "\"major_collections\"";
      "\"heap_words\"";
      "\"pool_queue_depth\"";
      "\"pool_busy_pct\"";
      "\"cache_entries\"";
      "\"server_inflight\"";
    ]

let test_sampler_thread_stops_promptly () =
  with_plane @@ fun () ->
  Obs.Runtime.start ~interval_ms:20 ();
  check Alcotest.bool "running" true (Obs.Runtime.running ());
  (* second start is a no-op, not a second thread *)
  Obs.Runtime.start ~interval_ms:20 ();
  let rec wait n =
    if Obs.Runtime.samples () = 0 && n > 0 then begin
      Unix.sleepf 0.01;
      wait (n - 1)
    end
  in
  wait 300;
  check Alcotest.bool "sampled on its own" true (Obs.Runtime.samples () > 0);
  let t0 = Unix.gettimeofday () in
  Obs.Runtime.stop ();
  let elapsed = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "stopped" false (Obs.Runtime.running ());
  (* prompt even against much longer intervals: the thread sleeps in
     short slices and checks the stop flag *)
  check Alcotest.bool "stop under a second" true (elapsed < 1.0);
  Obs.Runtime.stop () (* idempotent *)

(* ------------------------------------------------------------------ *)
(* Exposition: the flight-recorder routes and edge cases.              *)

let test_new_routes_serve () =
  with_plane @@ fun () ->
  let baseline = Obs.snapshot () in
  let respond path = Obs.Exposition.respond ~baseline path in
  let degraded_id = fake_query ~degraded:true () in
  Obs.Runtime.sample_once ();
  Obs.Events.emit ~kind:"unit.route" [ ("marker", "777123") ];
  (* /traces lists the retained summary *)
  let s, ct, body = respond "/traces" in
  check Alcotest.int "/traces ok" 200 s;
  check Alcotest.bool "/traces json" true (contains ct "application/json");
  check Alcotest.bool "/traces lists the trace" true
    (contains body (string_of_int degraded_id));
  check Alcotest.bool "/traces carries the reason" true
    (contains body "degraded");
  (* /trace/:id serves the stitched tree *)
  let s, _, body = respond (Printf.sprintf "/trace/%d" degraded_id) in
  check Alcotest.int "/trace/:id ok" 200 s;
  check Alcotest.bool "tree json" true (contains body "service.stgq");
  (* /events/tail respects ?n= *)
  let s, ct, body = respond "/events/tail?n=5" in
  check Alcotest.int "/events/tail ok" 200 s;
  check Alcotest.bool "jsonl content type" true (contains ct "application/jsonl");
  check Alcotest.bool "event present" true (contains body "777123");
  (* /metrics/history serves the sampler ring *)
  let s, _, body = respond "/metrics/history" in
  check Alcotest.int "/metrics/history ok" 200 s;
  check Alcotest.bool "history sample served" true (contains body "heap_words")

let test_unretained_trace_is_typed_404 () =
  with_plane @@ fun () ->
  let baseline = Obs.snapshot () in
  (* never-retained id *)
  let s, ct, body = Obs.Exposition.respond ~baseline "/trace/999999" in
  check Alcotest.int "404" 404 s;
  check Alcotest.bool "typed json error" true (contains ct "application/json");
  check Alcotest.bool "names the id" true (contains body "999999");
  check Alcotest.bool "typed reason" true (contains body "not retained");
  (* an admitted-then-evicted id answers the same way *)
  Obs.Flightrec.configure ~capacity:1 ~sample_every:1 ();
  let evicted_id = fake_query () in
  let _survivor = fake_query ~degraded:true () in
  check Alcotest.bool "entry evicted" true
    (Obs.Flightrec.find evicted_id = None);
  let s, _, body =
    Obs.Exposition.respond ~baseline (Printf.sprintf "/trace/%d" evicted_id)
  in
  check Alcotest.int "evicted 404" 404 s;
  check Alcotest.bool "evicted typed reason" true (contains body "not retained");
  (* a non-numeric id is a bad request, not a crash *)
  let s, _, body = Obs.Exposition.respond ~baseline "/trace/bogus" in
  check Alcotest.int "bad id 404" 404 s;
  check Alcotest.bool "bad id typed" true (contains body "bad trace id")

let test_unknown_route_serves_help () =
  with_plane @@ fun () ->
  let baseline = Obs.snapshot () in
  let s, _, body = Obs.Exposition.respond ~baseline "/definitely/not/a/route" in
  check Alcotest.int "404" 404 s;
  (* the 404 body carries the generated index so a curl typo is
     self-correcting *)
  List.iter
    (fun (route, _) ->
      check Alcotest.bool (route ^ " listed in help") true (contains body route))
    Obs.Exposition.routes

let test_concurrent_scrape_vs_sampler () =
  with_plane @@ fun () ->
  Obs.Runtime.start ~interval_ms:1 ();
  let baseline = Obs.snapshot () in
  let scrapers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 50 do
              List.iter
                (fun path ->
                  let s, _, _ = Obs.Exposition.respond ~baseline path in
                  if s <> 200 then Alcotest.failf "%s -> %d under load" path s)
                [ "/metrics"; "/metrics/history"; "/traces"; "/events/tail?n=10" ]
            done;
            true))
  in
  let ok = List.for_all Domain.join scrapers in
  Obs.Runtime.stop ();
  check Alcotest.bool "all scrapes served during sampling" true ok

(* ------------------------------------------------------------------ *)
(* Real service queries.                                               *)

(* Retention of bad outcomes is a contract, not a heuristic: every
   query a node limit of 1 cuts short (the dense instance crosses a
   budget checkpoint at any initiator) is pinned as degraded, its
   stitched trace is served by /trace/:id, and its JSONL query record
   is in the event tail. *)
let test_degraded_service_queries_retained () =
  let open Stgq_core in
  with_plane @@ fun () ->
  let service = Service.create Gen.dense_ti in
  let policy =
    { Resilience.default_policy with node_limit = Some 1; max_retries = 0 }
  in
  let ids =
    List.map
      (fun initiator ->
        let r = Service.stgq_r ~policy service ~initiator Gen.dense_q in
        check Alcotest.bool "the node limit degrades the answer" true
          (Resilience.classify r).c_degraded;
        match Obs.Trace.last () with
        | Some tree -> tree.Obs.Trace.t_span.Obs.Trace.sp_trace
        | None -> Alcotest.fail "no trace recorded")
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "every degraded query retained" (List.length ids)
    (Obs.Flightrec.retained ());
  let baseline = Obs.snapshot () in
  let tail = String.concat "" (Obs.Events.tail 256) in
  List.iter
    (fun id ->
      (match
         List.find_opt
           (fun (s : Obs.Flightrec.summary) -> s.s_trace_id = id)
           (Obs.Flightrec.entries ())
       with
      | Some s ->
          check Alcotest.bool "pinned" true s.s_pinned;
          check Alcotest.string "reason" "degraded" s.s_reason
      | None -> Alcotest.failf "trace %d not retained" id);
      let status, _, _ =
        Obs.Exposition.respond ~baseline (Printf.sprintf "/trace/%d" id)
      in
      check Alcotest.int "/trace/:id serves it" 200 status;
      check Alcotest.bool "its query event is in the tail" true
        (contains tail (Printf.sprintf "\"trace_id\": %d" id)))
    ids

(* An initiator outside the dataset is a malformed query: with the
   whole plane on, the request raises before the ladder runs, so it
   emits no query event, retains no trace and is not counted as an
   unavailable query. *)
let test_out_of_range_initiator_not_unavailable () =
  let open Stgq_core in
  with_plane @@ fun () ->
  let service = Service.create Gen.dense_ti in
  let n = Service.n_vertices service in
  List.iter
    (fun initiator ->
      match Service.stgq_r service ~initiator Gen.dense_q with
      | exception Invalid_argument _ -> ()
      | r ->
          Alcotest.failf "initiator %d: expected Invalid_argument, got %s" initiator
            (if (Resilience.classify r).c_unavailable then "an unavailable answer"
             else "an answer"))
    [ -1; n ];
  check Alcotest.int "no query event" 0
    (List.length
       (List.filter
          (fun line -> contains line "\"event\": \"query\"")
          (Obs.Events.tail 64)));
  check Alcotest.int "no trace retained" 0 (Obs.Flightrec.retained ());
  check Alcotest.int "service.unavailable untouched" 0
    (Obs.Counter.value (Obs.counter "service.unavailable"))

(* The whole plane (metrics, tracing, retention with its default
   sampling stride, the in-memory event ring) costs at most 5% more
   minor words than the plane off, over a cached replay on one domain.
   Sixteen queries span one sampling stride, so exactly one sampled
   trace is stitched and stored.  The runtime sampler stays off: its
   thread would allocate on this domain's minor heap. *)
let test_plane_allocates_within_5pct () =
  let open Stgq_core in
  let service = Service.create Gen.replay_ti in
  let replay () =
    for _ = 1 to 4 do
      List.iter
        (fun q ->
          ignore (Service.stgq_r service ~initiator:Gen.replay_initiator q))
        Gen.replay_queries
    done
  in
  replay () (* contexts built and cached *);
  let off = Gen.minor_words replay in
  let on =
    with_plane @@ fun () ->
    replay ();
    Gen.minor_words (fun () ->
        Obs.Trace.reset ();
        Obs.Flightrec.reset ();
        replay ())
  in
  let ratio = float_of_int on /. float_of_int off in
  check Alcotest.bool
    (Printf.sprintf "plane on allocates %d words vs %d off (%.4fx, at most 1.05x)"
       on off ratio)
    true (ratio <= 1.05)

(* ------------------------------------------------------------------ *)
(* The docs route table is generated, not hand-maintained.             *)

let test_docs_route_table_in_sync () =
  let doc =
    match Gen.repo_path "docs/OBSERVABILITY.md" with
    | Some path -> In_channel.with_open_text path In_channel.input_all
    | None -> Alcotest.fail "docs/OBSERVABILITY.md not found"
  in
  let table = Obs.Exposition.route_table_markdown () in
  check Alcotest.bool
    "docs/OBSERVABILITY.md embeds Exposition.route_table_markdown () verbatim \
     (regenerate the block if routes changed)"
    true (contains doc table);
  (* and the CLI help body agrees with the same route list *)
  List.iter
    (fun (route, _) ->
      check Alcotest.bool (route ^ " in index body") true
        (contains Obs.Exposition.index_body route))
    Obs.Exposition.routes

let suite =
  [
    Alcotest.test_case "bad outcomes are pinned with stitched trees" `Quick
      test_retention_pins_bad_outcomes;
    Alcotest.test_case "normal queries are reservoir-sampled" `Quick
      test_normal_queries_reservoir_sampled;
    Alcotest.test_case "slow queries pin once the p99 threshold exists" `Quick
      test_slow_queries_pinned_after_threshold;
    Alcotest.test_case "eviction is oldest-unpinned-first" `Quick
      test_eviction_oldest_unpinned_first;
    Alcotest.test_case "refresh re-stitches the server envelope" `Quick
      test_refresh_restitches;
    Alcotest.test_case "event ring and tail ordering" `Quick
      test_events_ring_and_tail;
    Alcotest.test_case "query record carries the full shape" `Quick
      test_query_record_shape;
    Alcotest.test_case "query events report their own cache hit" `Quick
      test_query_events_report_own_cache_hit;
    Alcotest.test_case "sink rotation follows the durability discipline" `Quick
      test_sink_rotation_discipline;
    Alcotest.test_case "event totals surface in snapshots" `Quick
      test_events_totals_in_snapshot;
    Alcotest.test_case "runtime samples and history json" `Quick
      test_sample_once_and_history;
    Alcotest.test_case "sampler thread stops promptly" `Quick
      test_sampler_thread_stops_promptly;
    Alcotest.test_case "flight-recorder routes serve" `Quick
      test_new_routes_serve;
    Alcotest.test_case "unretained /trace/:id is a typed 404" `Quick
      test_unretained_trace_is_typed_404;
    Alcotest.test_case "unknown route serves the help index" `Quick
      test_unknown_route_serves_help;
    Alcotest.test_case "concurrent scrapes during sampling" `Quick
      test_concurrent_scrape_vs_sampler;
    Alcotest.test_case "docs route table matches the generated one" `Quick
      test_docs_route_table_in_sync;
    Alcotest.test_case "an out-of-range initiator is not an unavailable query"
      `Quick test_out_of_range_initiator_not_unavailable;
    Alcotest.test_case "degraded service queries are retained" `Quick
      test_degraded_service_queries_retained;
    Alcotest.test_case "the plane allocates within 5%" `Quick
      test_plane_allocates_within_5pct;
  ]
