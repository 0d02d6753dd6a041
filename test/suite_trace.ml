(* Query-level tracing: cross-domain stitching of pooled solves, the
   trace-off differential, the pruning-waterfall accounting identity,
   snapshot deltas and the exposition server. *)

open Stgq_core

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* Every test leaves tracing disabled and the buffers empty. *)
let with_trace f =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
    f

let small_ti () =
  let ti = Workload.Scenario.coauthor ~seed:11 ~days:2 ~n:300 () in
  let graph = ti.Query.social.Query.graph in
  let initiator = Workload.Scenario.pick_initiator ~rank:10 graph in
  { ti with Query.social = { ti.Query.social with Query.initiator } }

let stg_query = { Query.p = 3; s = 2; k = 1; m = 4 }

(* ------------------------------------------------------------------ *)
(* Cross-domain stitching.                                             *)

let test_pooled_single_tree () =
  let ti = small_ti () in
  with_trace @@ fun () ->
  (Engine.Pool.with_pool ~size:2 @@ fun pool ->
   ignore (Parallel.solve_report ~pool ti stg_query : Parallel.report));
  let spans = Obs.Trace.spans () in
  let roots = Obs.Trace.trees spans in
  check Alcotest.int "exactly one root" 1 (List.length roots);
  let root =
    match roots with
    | [ t ] -> t.Obs.Trace.t_span
    | _ -> Alcotest.fail "no tree"
  in
  check Alcotest.string "rooted at the solve" "parallel.solve"
    root.Obs.Trace.sp_name;
  List.iter
    (fun (sp : Obs.Trace.span) ->
      check Alcotest.int
        (Printf.sprintf "span %S carries the root trace id" sp.Obs.Trace.sp_name)
        root.Obs.Trace.sp_trace sp.Obs.Trace.sp_trace)
    spans;
  check Alcotest.bool "bucket spans present" true
    (List.exists
       (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_name = "parallel.bucket")
       spans);
  (* Pool workers are their own domains: the stitched tree must span
     more than the submitting one. *)
  check Alcotest.bool "spans cross domains" true
    (List.exists
       (fun (sp : Obs.Trace.span) ->
         sp.Obs.Trace.sp_domain <> root.Obs.Trace.sp_domain)
       spans)

(* The served tree of a pooled request: the caller's span holds
   [service.stgq], which runs on a worker domain and carries its queue
   wait; the sequential kernel answers under it, with no bucket spans.
   Every span below the hop stays on that one domain. *)
let test_pooled_request_one_domain_hop () =
  let ti = small_ti () in
  with_trace @@ fun () ->
  (Engine.Pool.with_pool ~size:2 @@ fun pool ->
   let service = Service.create ~pool ti in
   Obs.Trace.with_span "caller" @@ fun () ->
   ignore
     (Gen.served
        (Service.stgq_r service ~initiator:ti.Query.social.Query.initiator
           stg_query)
       : Query.stg_solution option));
  let rec all t = t.Obs.Trace.t_span :: List.concat_map all t.Obs.Trace.t_children in
  match Obs.Trace.trees (Obs.Trace.spans ()) with
  | [ { Obs.Trace.t_span = caller; t_children = [ served ] } ] ->
      let hop = served.Obs.Trace.t_span in
      check Alcotest.string "the caller's child" "service.stgq" hop.Obs.Trace.sp_name;
      check Alcotest.bool "on a worker domain" true
        (hop.Obs.Trace.sp_domain <> caller.Obs.Trace.sp_domain);
      check Alcotest.bool "carries its queue wait" true
        (List.mem_assoc "queue_wait_us" hop.Obs.Trace.sp_attrs);
      let below = all served in
      check Alcotest.bool "the sequential kernel answers" true
        (List.exists (fun (sp : Obs.Trace.span) -> sp.sp_name = "stgselect.solve") below);
      check Alcotest.bool "no bucket spans" false
        (List.exists (fun (sp : Obs.Trace.span) -> sp.sp_name = "parallel.bucket") below);
      check Alcotest.bool "one worker domain below the hop" true
        (List.for_all
           (fun (sp : Obs.Trace.span) -> sp.sp_domain = hop.Obs.Trace.sp_domain)
           below)
  | trees -> Alcotest.failf "expected one tree of one hop, got %d trees" (List.length trees)

(* The served tree: the request root holds the exact rung, and the rung
   holds both the solve and the certification of its answer. *)
let test_service_root_covers_certify () =
  let ti = small_ti () in
  with_trace @@ fun () ->
  let service = Service.create ti in
  ignore
    (Gen.served
       (Service.stgq_r service ~initiator:ti.Query.social.Query.initiator
          stg_query)
      : Query.stg_solution option);
  let names tree =
    List.map
      (fun t -> t.Obs.Trace.t_span.Obs.Trace.sp_name)
      tree.Obs.Trace.t_children
  in
  match Obs.Trace.last () with
  | None -> Alcotest.fail "no trace recorded"
  | Some tree -> (
      check Alcotest.string "service root" "service.stgq"
        tree.Obs.Trace.t_span.Obs.Trace.sp_name;
      check (Alcotest.list Alcotest.string) "the root holds the exact rung"
        [ "resilience.exact" ] (names tree);
      match tree.Obs.Trace.t_children with
      | [ rung ] ->
          let children = names rung in
          check Alcotest.bool "solver under the rung" true
            (List.mem "stgselect.solve" children);
          check Alcotest.bool "certify under the rung" true
            (List.mem "service.certify" children)
      | _ -> Alcotest.fail "expected one rung span")

(* Every rung certifies what it answers.  On this instance the exact
   rung meets a zero node limit (a trip at its first 256-node
   checkpoint) before it holds an incumbent, so the beam rung answers,
   and its answer is certified under the beam rung's own span. *)
let test_beam_rung_covers_certify () =
  let ti = Workload.Scenario.coauthor ~seed:3 ~days:2 ~n:300 () in
  let initiator =
    Workload.Scenario.pick_initiator ~rank:10 ti.Query.social.Query.graph
  in
  let q = { Query.p = 5; s = 2; k = 1; m = 2 } in
  let policy = { Resilience.default_policy with node_limit = Some 0 } in
  with_trace @@ fun () ->
  let service = Service.create ti in
  (match Service.stgq_r ~policy service ~initiator q with
  | Ok { Resilience.rung = Resilience.Heuristic; value = Some _; _ } -> ()
  | _ -> Alcotest.fail "expected an answer from the beam rung");
  let names tree =
    List.map
      (fun t -> t.Obs.Trace.t_span.Obs.Trace.sp_name)
      tree.Obs.Trace.t_children
  in
  match Obs.Trace.last () with
  | None -> Alcotest.fail "no trace recorded"
  | Some tree -> (
      check (Alcotest.list Alcotest.string) "the root holds both rungs"
        [ "resilience.exact"; "resilience.heuristic" ]
        (names tree);
      match tree.Obs.Trace.t_children with
      | [ exact; beam ] ->
          check Alcotest.bool "nothing to certify on the exact rung" false
            (List.mem "service.certify" (names exact));
          check Alcotest.bool "certify under the beam rung" true
            (List.mem "service.certify" (names beam))
      | _ -> Alcotest.fail "expected two rung spans")

(* ------------------------------------------------------------------ *)
(* The off path records nothing and changes nothing.                   *)

let test_disabled_records_no_spans () =
  let ti = small_ti () in
  Obs.Trace.set_enabled false;
  Obs.Trace.reset ();
  let off = Stgselect.solve ti stg_query in
  check Alcotest.int "nothing recorded" 0 (Obs.Trace.total_recorded ());
  check Alcotest.bool "span list empty" true (Obs.Trace.spans () = []);
  let on = with_trace (fun () -> Stgselect.solve ti stg_query) in
  check Alcotest.bool "tracing changes no answer" true (off = on)

(* Tracing costs per span, not per search node: on one domain it adds
   the same minor words to a cached query whose search visits a handful
   of nodes as to one that visits hundreds (give or take a few words of
   attribute strings), and at most 5% of either query's allocation. *)
let test_tracing_words_independent_of_nodes () =
  let service = Service.create Gen.replay_ti in
  let ask q () =
    ignore
      (Service.stgq_r service ~initiator:Gen.replay_initiator q
        : (Query.stg_solution Resilience.answer, Resilience.error) result)
  in
  let nodes q =
    (Stgselect.solve_report Gen.replay_ti q).Stgselect.stats.Search_core.nodes
  in
  check Alcotest.bool "the heavy query searches hundreds of nodes more" true
    (nodes Gen.heavy_q - nodes Gen.tiny_q >= 2 * Budget.check_interval);
  let cost q =
    ask q () (* context built and cached *);
    let off = Gen.minor_words (ask q) in
    let on = with_trace (fun () -> ask q (); Gen.minor_words (ask q)) in
    check Alcotest.bool
      (Printf.sprintf "tracing adds %d words to %d (at most 5%%)" (on - off) off)
      true
      (float_of_int on <= 1.05 *. float_of_int off);
    on - off
  in
  let tiny = cost Gen.tiny_q and heavy = cost Gen.heavy_q in
  check Alcotest.bool
    (Printf.sprintf "same traced words at both sizes (%d vs %d)" tiny heavy)
    true
    (abs (heavy - tiny) <= 8)

(* ------------------------------------------------------------------ *)
(* Waterfall accounting identity.                                      *)

let test_waterfall_accounts_for_every_candidate () =
  let ti = small_ti () in
  with_trace @@ fun () ->
  let r = Stgselect.solve_report ti stg_query in
  let stats = r.Stgselect.stats in
  match Obs.Trace.last () with
  | None -> Alcotest.fail "no trace recorded"
  | Some tree ->
      let w = Obs.Trace.waterfall tree in
      check Alcotest.bool "identity balances" true
        (Obs.Trace.waterfall_balanced w);
      check Alcotest.bool "candidates examined" true (w.Obs.Trace.w_examined > 0);
      check Alcotest.int "examined matches the kernel stats"
        stats.Search_core.examined w.Obs.Trace.w_examined;
      check Alcotest.int "includes match" stats.Search_core.includes
        w.Obs.Trace.w_included;
      check Alcotest.int "deferrals match" stats.Search_core.deferred
        w.Obs.Trace.w_deferred;
      check Alcotest.int "temporal removals match"
        stats.Search_core.removed_temporal w.Obs.Trace.w_removed_temporal

(* ------------------------------------------------------------------ *)
(* Snapshot deltas and trace totals.                                   *)

let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let counter_in snap name =
  match List.assoc_opt name snap.Obs.counters with Some v -> v | None -> -1

let test_delta_subtracts_counters () =
  with_obs @@ fun () ->
  let c = Obs.counter "test.delta.counter" in
  Obs.Counter.add c 3;
  let older = Obs.snapshot () in
  Obs.Counter.add c 4;
  let newer = Obs.snapshot () in
  let d = Obs.delta older newer in
  check Alcotest.int "counter rate" 4 (counter_in d "test.delta.counter");
  check Alcotest.int "cumulative total untouched" 7
    (counter_in newer "test.delta.counter");
  (* A counter reset between the snapshots clamps at 0, never negative. *)
  Obs.Counter.reset c;
  let after_reset = Obs.snapshot () in
  check Alcotest.int "clamped at zero" 0
    (counter_in (Obs.delta newer after_reset) "test.delta.counter")

(* The trace totals must reach snapshots through the counter source:
   a snapshot taken while tracing is on reports exactly what the Trace
   module counted (the obs.trace.spans counter /metrics publishes). *)
let test_trace_totals_surface_in_snapshot () =
  with_obs @@ fun () ->
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
  @@ fun () ->
  for _ = 1 to 7 do
    Obs.Trace.with_span "outer" (fun () ->
        Obs.Trace.with_span "inner" (fun () -> ()))
  done;
  check Alcotest.int "module total" 14 (Obs.Trace.total_recorded ());
  check Alcotest.int "snapshot agrees with Trace.total_recorded" 14
    (counter_in (Obs.snapshot ()) "obs.trace.spans");
  check Alcotest.int "no drops" 0
    (counter_in (Obs.snapshot ()) "obs.trace.dropped")

(* ------------------------------------------------------------------ *)
(* Exposition: routing and the wire formats.                           *)

let test_exposition_routes () =
  with_obs @@ fun () ->
  Fun.protect ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
  @@ fun () ->
  let c = Obs.counter "test.expo.requests" in
  Obs.Counter.add c 2;
  let baseline = Obs.snapshot () in
  Obs.Counter.add c 5;
  let status path =
    let s, _, _ = Obs.Exposition.respond ~baseline path in
    s
  in
  let body path =
    let _, _, b = Obs.Exposition.respond ~baseline path in
    b
  in
  check Alcotest.int "index ok" 200 (status "/");
  check Alcotest.bool "index lists the liveness probe" true
    (contains (body "/") "/healthz");
  check Alcotest.int "healthz ok" 200 (status "/healthz");
  check Alcotest.bool "healthz body" true (contains (body "/healthz") "ok");
  check Alcotest.int "metrics ok" 200 (status "/metrics");
  check Alcotest.bool "prometheus name mangling + total" true
    (contains (body "/metrics") "stgq_test_expo_requests 7");
  check Alcotest.bool "delta subtracts the baseline" true
    (contains (body "/metrics/delta") "stgq_test_expo_requests 5");
  check Alcotest.int "404 while no trace is buffered" 404 (status "/trace/last");
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Obs.Trace.with_span "unit.root" (fun () -> ());
  check Alcotest.int "trace served" 200 (status "/trace/last");
  check Alcotest.bool "tree json names the span" true
    (contains (body "/trace/last") "unit.root");
  check Alcotest.int "unknown path" 404 (status "/nope")

let test_unix_socket_serve () =
  with_obs @@ fun () ->
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "stgq-expo-%d.sock" (Unix.getpid ()))
  in
  let baseline = Obs.snapshot () in
  let server =
    Domain.spawn (fun () ->
        Obs.Exposition.serve ~baseline ~max_requests:1
          (Obs.Exposition.Unix_path path))
  in
  let rec wait n =
    if (not (Sys.file_exists path)) && n > 0 then begin
      Unix.sleepf 0.01;
      wait (n - 1)
    end
  in
  wait 500;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let req = "GET /metrics HTTP/1.1\r\nHost: unit\r\n\r\n" in
  ignore (Unix.write_substring sock req 0 (String.length req) : int);
  let buf = Bytes.create 65536 in
  let rec read_all acc =
    match Unix.read sock buf 0 (Bytes.length buf) with
    | 0 -> acc
    | n -> read_all (acc ^ Bytes.sub_string buf 0 n)
  in
  let response = read_all "" in
  Unix.close sock;
  Domain.join server;
  check Alcotest.bool "HTTP 200" true (contains response "200 OK");
  check Alcotest.bool "prometheus body" true (contains response "# TYPE")

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)

let test_chrome_export_shape () =
  with_trace @@ fun () ->
  Obs.Trace.with_span "outer" ~attrs:[ ("key", "value") ] (fun () ->
      Obs.Trace.with_span "inner" (fun () -> ()));
  let json = Obs.Trace.chrome_json (Obs.Trace.spans ()) in
  List.iter
    (fun needle ->
      check Alcotest.bool (needle ^ " present") true (contains json needle))
    [
      "\"traceEvents\"";
      "\"ph\": \"X\"";
      "\"outer\"";
      "\"inner\"";
      "\"key\": \"value\"";
      "\"displayTimeUnit\"";
    ]

let suite =
  [
    Alcotest.test_case "pooled solve yields one rooted tree" `Quick
      test_pooled_single_tree;
    Alcotest.test_case "pooled request hops to one worker domain" `Quick
      test_pooled_request_one_domain_hop;
    Alcotest.test_case "service root covers solver and certify" `Quick
      test_service_root_covers_certify;
    Alcotest.test_case "disabled tracing records nothing" `Quick
      test_disabled_records_no_spans;
    Alcotest.test_case "waterfall accounts for every candidate" `Quick
      test_waterfall_accounts_for_every_candidate;
    Alcotest.test_case "snapshot delta" `Quick test_delta_subtracts_counters;
    Alcotest.test_case "beam rung certifies its answer" `Quick
      test_beam_rung_covers_certify;
    Alcotest.test_case "trace totals surface in snapshots" `Quick
      test_trace_totals_surface_in_snapshot;
    Alcotest.test_case "exposition routing" `Quick test_exposition_routes;
    Alcotest.test_case "exposition over a unix socket" `Quick
      test_unix_socket_serve;
    Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape;
    Alcotest.test_case "tracing words do not grow with search nodes" `Quick
      test_tracing_words_independent_of_nodes;
  ]
