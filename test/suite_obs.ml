(* The observability layer itself: quantile bounds, domain-shard merges,
   registry semantics, and the end-to-end invariants the instrumented
   stack must keep (hits + misses = lookups; answers never change). *)

open Stgq_core

module G = QCheck.Gen

(* Every test leaves instrumentation disabled, whatever happens. *)
let with_obs f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Histogram quantile bounds.                                          *)

let samples_arb =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_float l))
    G.(list_size (1 -- 120) (float_bound_inclusive 3e9))

let prop_histogram_quantile_bounds =
  Gen.qtest ~count:200 "histogram quantile bounds" samples_arb (fun samples ->
      with_obs (fun () ->
          let h = Obs.Histogram.make "test.hist" in
          List.iter (Obs.Histogram.observe h) samples;
          let n = List.length samples in
          (* Mirror the histogram's whole-ns truncation. *)
          let trunc = List.map (fun v -> float_of_int (int_of_float v)) samples in
          let sorted = List.sort compare trunc in
          let max_sample = List.fold_left Float.max 0. trunc in
          let q p = Obs.Histogram.quantile h p in
          (* The bucketed estimate may overshoot, never undershoot, the
             exact order statistic at the same rank. *)
          let exact p =
            let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
            List.nth sorted (rank - 1)
          in
          Obs.Histogram.count h = n
          && q 1.0 = max_sample
          && q 0.5 <= q 0.9
          && q 0.9 <= q 0.99
          && q 0.99 <= q 1.0
          && List.for_all (fun v -> v <= q 1.0) trunc
          && q 0.5 >= exact 0.5
          && q 0.9 >= exact 0.9
          && q 0.99 >= exact 0.99))

let test_histogram_sum_and_reset () =
  with_obs (fun () ->
      let h = Obs.Histogram.make "test.sum" in
      List.iter (Obs.Histogram.observe h) [ 10.; 20.; 30. ];
      Alcotest.check (Alcotest.float 1e-9) "sum" 60. (Obs.Histogram.sum h);
      Alcotest.check Alcotest.int "count" 3 (Obs.Histogram.count h);
      Obs.Histogram.reset h;
      Alcotest.check Alcotest.int "count after reset" 0 (Obs.Histogram.count h);
      Alcotest.check (Alcotest.float 0.) "empty quantile" 0.
        (Obs.Histogram.quantile h 0.99))

(* ------------------------------------------------------------------ *)
(* Counter shard merges across real domains.                           *)

let test_counter_domain_merge () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.merge" in
      let per_domain = [ 1000; 2000; 3000; 4000 ] in
      let workers =
        List.map
          (fun n ->
            Domain.spawn (fun () ->
                for _ = 1 to n do
                  Obs.Counter.incr c
                done))
          per_domain
      in
      List.iter Domain.join workers;
      let total = List.fold_left ( + ) 0 per_domain in
      Alcotest.check Alcotest.int "merged total" total (Obs.Counter.value c);
      (* Merge associativity: any fold order over the shards agrees. *)
      let shards = Obs.Counter.shard_values c in
      Alcotest.check Alcotest.int "left fold" total (Array.fold_left ( + ) 0 shards);
      Alcotest.check Alcotest.int "right fold" total
        (Array.fold_right ( + ) shards 0);
      let pairwise =
        Array.to_list shards
        |> List.rev
        |> List.fold_left (fun acc v -> v + acc) 0
      in
      Alcotest.check Alcotest.int "reversed fold" total pairwise)

let test_disabled_records_nothing () =
  Obs.set_enabled false;
  let c = Obs.Counter.make "test.disabled.counter" in
  let g = Obs.Gauge.make "test.disabled.gauge" in
  let h = Obs.Histogram.make "test.disabled.hist" in
  Obs.Counter.add c 5;
  Obs.Gauge.set g 7;
  Obs.Histogram.observe h 9.;
  Alcotest.check Alcotest.int "counter" 0 (Obs.Counter.value c);
  Alcotest.check Alcotest.int "gauge" 0 (Obs.Gauge.value g);
  Alcotest.check Alcotest.int "gauge hwm" 0 (Obs.Gauge.high_water g);
  Alcotest.check Alcotest.int "histogram" 0 (Obs.Histogram.count h)

let test_gauge_high_water () =
  with_obs (fun () ->
      let g = Obs.Gauge.make "test.hwm" in
      Obs.Gauge.set g 5;
      Obs.Gauge.set g 3;
      Alcotest.check Alcotest.int "level follows last write" 3 (Obs.Gauge.value g);
      Alcotest.check Alcotest.int "high water sticks" 5 (Obs.Gauge.high_water g))

(* ------------------------------------------------------------------ *)
(* Registry semantics.                                                 *)

let test_registry_intern_and_kind_clash () =
  let a = Obs.counter "test.registry.shared" in
  let b = Obs.counter "test.registry.shared" in
  with_obs (fun () ->
      Obs.Counter.incr a;
      Obs.Counter.incr b;
      Alcotest.check Alcotest.int "same interned counter" 2 (Obs.Counter.value a));
  match Obs.gauge "test.registry.shared" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on a metric-kind clash"

(* One span mechanism: a context build counts once and records one
   [context.build] trace span; a warm repeat of the query records
   neither. *)
let test_context_build_traced_once () =
  with_obs @@ fun () ->
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
  @@ fun () ->
  let builds = Obs.counter "engine.context.builds" in
  let case = Gen.stg_case_gen (Random.State.make [| 5 |]) in
  let service = Service.create (Gen.temporal_instance_of_stg_case case) in
  let query = Gen.stgq_of_stg_case case in
  let build_spans () =
    List.length
      (List.filter
         (fun (sp : Obs.Trace.span) -> sp.Obs.Trace.sp_name = "context.build")
         (Obs.Trace.spans ()))
  in
  let ask () =
    ignore
      (Gen.served (Service.stgq_r service ~initiator:0 query)
        : Query.stg_solution option)
  in
  ask ();
  Alcotest.check Alcotest.int "one build counted" 1 (Obs.Counter.value builds);
  Alcotest.check Alcotest.int "one build span" 1 (build_spans ());
  ask ();
  Alcotest.check Alcotest.int "a warm repeat builds nothing" 1
    (Obs.Counter.value builds);
  Alcotest.check Alcotest.int "and records no build span" 1 (build_spans ())

(* ------------------------------------------------------------------ *)
(* Instrumented stack invariants.                                      *)

let prop_cache_invariant =
  Gen.qtest ~count:40 "cache hits + misses = lookups after service workloads"
    (Gen.stg_case ())
    (fun case ->
      with_obs (fun () ->
          let ti = Gen.temporal_instance_of_stg_case case in
          let query = Gen.stgq_of_stg_case case in
          let service = Service.create ~cache_capacity:2 ti in
          let rounds = ref 0 in
          for initiator = 0 to min 3 (case.Gen.sg.Gen.n - 1) do
            for _repeat = 1 to 2 do
              ignore
                (Gen.served (Service.stgq_r service ~initiator query)
                  : Query.stg_solution option);
              ignore
                (Gen.served
                   (Service.sgq_r service ~initiator (Query.sgq_of_stgq query))
                  : Query.sg_solution option);
              incr rounds
            done
          done;
          let v name = Obs.Counter.value (Obs.counter name) in
          let hits = v "engine.cache.hits" in
          let misses = v "engine.cache.misses" in
          let lookups = v "engine.cache.lookups" in
          let st = Service.cache_stats service in
          hits + misses = lookups
          && lookups = 2 * !rounds
          && st.Service.hits = hits
          && st.Service.misses = misses
          && Obs.Histogram.count (Obs.histogram "service.stgq.latency_ns")
             = !rounds
          && Obs.Histogram.count (Obs.histogram "service.sgq.latency_ns")
             = !rounds
          && Obs.Histogram.count (Obs.histogram "service.certify.latency_ns")
             = 2 * !rounds))

let prop_instrumentation_changes_no_answer =
  Gen.qtest ~count:60 "enabling instrumentation changes no answer"
    (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let q = Gen.stgq_of_stg_case case in
      let sgq = Query.sgq_of_stgq q in
      Obs.set_enabled false;
      let stg_off = Stgselect.solve ti q in
      let sg_off = Sgselect.solve ti.Query.social sgq in
      let stg_on, sg_on =
        with_obs (fun () ->
            (Stgselect.solve ti q, Sgselect.solve ti.Query.social sgq))
      in
      stg_off = stg_on && sg_off = sg_on)

let test_snapshot_reports_required_names () =
  with_obs (fun () ->
      let case = Gen.stg_case_gen (Random.State.make [| Gen.test_seed |]) in
      let ti = Gen.temporal_instance_of_stg_case case in
      let service = Service.create ti in
      ignore
        (Gen.served
           (Service.stgq_r service ~initiator:0 (Gen.stgq_of_stg_case case))
          : Query.stg_solution option);
      let snap = Obs.snapshot () in
      let json = Obs.json snap in
      let table = Obs.table snap in
      List.iter
        (fun name ->
          Alcotest.check Alcotest.bool (name ^ " in json") true
            (contains json name);
          Alcotest.check Alcotest.bool (name ^ " in table") true
            (contains table name))
        [
          "engine.cache.lookups";
          "engine.cache.hits";
          "engine.cache.misses";
          "engine.context.builds";
          "engine.pool.jobs_submitted";
          "engine.pool.jobs_completed";
          "engine.pool.queue_depth_hwm";
          "search.nodes";
          "search.pruned.distance";
          "service.stgq.latency_ns";
          "service.certify.latency_ns";
          "obs.trace.spans";
          "obs.flightrec.retained";
          "obs.flightrec.sampled";
          "obs.flightrec.evicted";
          "obs.events.emitted";
          "obs.events.fsync_ns";
          "obs.runtime.samples";
        ])

let suite =
  [
    prop_histogram_quantile_bounds;
    Alcotest.test_case "histogram sum and reset" `Quick test_histogram_sum_and_reset;
    Alcotest.test_case "counter merge across domains" `Quick
      test_counter_domain_merge;
    Alcotest.test_case "disabled records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "gauge high-water mark" `Quick test_gauge_high_water;
    Alcotest.test_case "registry interning and kind clash" `Quick
      test_registry_intern_and_kind_clash;
    Alcotest.test_case "context build traced once" `Quick
      test_context_build_traced_once;
    prop_cache_invariant;
    prop_instrumentation_changes_no_answer;
    Alcotest.test_case "snapshot carries required metrics" `Quick
      test_snapshot_reports_required_names;
  ]
