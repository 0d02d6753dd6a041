(* Optimality and validity of SGSelect / STGSelect against brute-force
   oracles — the core guarantee of the paper (Theorems 2 and 3). *)

open Stgq_core

let close a b = Float.abs (a -. b) <= 1e-6

let graph edges n = Socgraph.Graph.of_edges n edges
let inst ?(q = 0) g = { Query.graph = g; initiator = q }

let check = Alcotest.check
let bool_c = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Hand-checked fixtures.                                              *)

let star =
  (* q=0 linked to 1,2,3 with distances 1,2,3; leaves mutually unlinked. *)
  graph [ (0, 1, 1.); (0, 2, 2.); (0, 3, 3.) ] 4

let test_star_k2 () =
  match Sgselect.solve (inst star) { p = 3; s = 1; k = 2 } with
  | Some { attendees; total_distance } ->
      check (Alcotest.list Alcotest.int) "group" [ 0; 1; 2 ] attendees;
      check bool_c "distance" true (close total_distance 3.)
  | None -> Alcotest.fail "expected a solution"

let test_star_k0_infeasible () =
  check bool_c "no clique of 3 in a star" true
    (Sgselect.solve (inst star) { p = 3; s = 1; k = 0 } = None)

let test_clique () =
  let g =
    graph [ (0, 1, 1.); (0, 2, 1.); (0, 3, 1.); (1, 2, 1.); (1, 3, 1.); (2, 3, 1.) ] 4
  in
  match Sgselect.solve (inst g) { p = 4; s = 1; k = 0 } with
  | Some { total_distance; _ } -> check bool_c "distance 3" true (close total_distance 3.)
  | None -> Alcotest.fail "clique should qualify"

let test_two_triangles () =
  let g =
    graph
      [ (0, 1, 1.); (0, 2, 2.); (1, 2, 3.); (0, 3, 10.); (0, 4, 10.); (3, 4, 1.) ]
      5
  in
  match Sgselect.solve (inst g) { p = 3; s = 1; k = 0 } with
  | Some { attendees; total_distance } ->
      check (Alcotest.list Alcotest.int) "cheap triangle" [ 0; 1; 2 ] attendees;
      check bool_c "distance 3" true (close total_distance 3.)
  | None -> Alcotest.fail "expected a solution"

let test_lemma3_printed_bound_is_unsafe () =
  (* Star with three leaves, p = 4, k = 2: {q, a, b, c} qualifies (each
     leaf has exactly 2 unacquainted others), and the search finds it.
     At the root VS = {q} and VA = {a, b, c}: r = 3 members are missing
     and VA's inner degrees sum to 0.  The paper's printed Lemma 3 cuts
     when that sum is below r·(r−k) = 3, so it would prune the root; the
     safe bound r·max(0, r−1−k) = 0 does not (docs/LEMMAS.md §3). *)
  let q = { Query.p = 4; s = 1; k = 2 } in
  (match Sgselect.solve (inst star) q with
  | Some { attendees; total_distance } ->
      check (Alcotest.list Alcotest.int) "the whole star" [ 0; 1; 2; 3 ] attendees;
      check bool_c "distance 6" true (close total_distance 6.);
      check bool_c "a qualified group" true (Socgraph.Kplex.satisfies star ~k:q.k attendees)
  | None -> Alcotest.fail "the safe bound must find the star group");
  let va = [ 1; 2; 3 ] in
  let r = q.p - 1 in
  let inner =
    List.fold_left
      (fun acc v ->
        acc + List.length (List.filter (fun w -> Socgraph.Graph.adjacent star v w) va))
      0 va
  in
  check Alcotest.int "r at the root" 3 r;
  check Alcotest.int "inner degree sum at the root" 0 inner;
  check bool_c "printed bound prunes the root" true (inner < r * (r - q.k));
  check bool_c "safe bound keeps the root" false (inner < r * max 0 (r - 1 - q.k))

let test_radius () =
  let g = graph [ (0, 1, 1.); (1, 2, 2.) ] 3 in
  check bool_c "s=1 cannot reach 2" true
    (Sgselect.solve (inst g) { p = 3; s = 1; k = 2 } = None);
  match Sgselect.solve (inst g) { p = 3; s = 2; k = 1 } with
  | Some { total_distance; _ } -> check bool_c "s=2 distance 4" true (close total_distance 4.)
  | None -> Alcotest.fail "expected a solution at s=2"

let test_hop_bounded_distance () =
  (* Definition 1: with s=1 the direct heavy edge counts; with s=2 the
     2-hop detour is cheaper. *)
  let g = graph [ (0, 1, 10.); (0, 2, 1.); (2, 1, 1.) ] 3 in
  let dist s =
    match Sgselect.solve (inst g) { p = 3; s; k = 0 } with
    | Some { total_distance; _ } -> total_distance
    | None -> Alcotest.fail "expected a solution"
  in
  check bool_c "s=1 pays the direct edge: 10+1" true (close (dist 1) 11.);
  check bool_c "s=2 detours: 2+1" true (close (dist 2) 3.)

let avail_of_runs horizon runs =
  let a = Timetable.Availability.create ~horizon in
  List.iter (fun (lo, hi) -> Timetable.Availability.set_free a lo hi) runs;
  a

let test_stg_disjoint_schedules () =
  let g = graph [ (0, 1, 1.); (0, 2, 2.) ] 3 in
  let horizon = 12 in
  let schedules =
    [|
      avail_of_runs horizon [ (0, 11) ];
      avail_of_runs horizon [ (0, 5) ];
      avail_of_runs horizon [ (6, 11) ];
    |]
  in
  let ti = { Query.social = inst g; schedules } in
  (match Stgselect.solve ti { p = 2; s = 1; k = 1; m = 3 } with
  | Some { st_attendees; st_total_distance; start_slot } ->
      check (Alcotest.list Alcotest.int) "group" [ 0; 1 ] st_attendees;
      check bool_c "distance 1" true (close st_total_distance 1.);
      check bool_c "window inside v1's schedule" true (start_slot + 2 <= 5)
  | None -> Alcotest.fail "expected a solution");
  check bool_c "no common window for all three" true
    (Stgselect.solve ti { p = 3; s = 1; k = 2; m = 3 } = None)

let test_stg_example_shapes () =
  (* A schedule where the only feasible window straddles a pivot but
     starts off-pivot — exercises the pivot-interval scan. *)
  let g = graph [ (0, 1, 1.) ] 2 in
  let horizon = 12 in
  let schedules =
    [| avail_of_runs horizon [ (4, 7) ]; avail_of_runs horizon [ (4, 7) ] |]
  in
  let ti = { Query.social = inst g; schedules } in
  match Stgselect.solve ti { p = 2; s = 1; k = 0; m = 3 } with
  | Some { start_slot; _ } ->
      check bool_c "start in [4,5]" true (start_slot >= 4 && start_slot <= 5)
  | None -> Alcotest.fail "expected a solution"

let test_vacuous_k_is_pure_distance_selection () =
  (* With k = p-1 the acquaintance constraint is vacuous: the optimum is
     simply the p-1 nearest candidates. *)
  let g =
    graph [ (0, 1, 3.); (0, 2, 1.); (0, 3, 7.); (0, 4, 2.) ] 5
  in
  match Sgselect.solve (inst g) { p = 3; s = 1; k = 2 } with
  | Some { attendees; total_distance } ->
      check (Alcotest.list Alcotest.int) "two nearest" [ 0; 2; 4 ] attendees;
      check bool_c "distance 3" true (close total_distance 3.)
  | None -> Alcotest.fail "expected a solution"

let test_isolated_initiator () =
  let g = graph [ (1, 2, 1.) ] 3 in
  check bool_c "p=2 from an isolated q" true
    (Sgselect.solve (inst g) { p = 2; s = 2; k = 1 } = None);
  match Sgselect.solve (inst g) { p = 1; s = 1; k = 0 } with
  | Some { attendees; _ } -> check (Alcotest.list Alcotest.int) "alone" [ 0 ] attendees
  | None -> Alcotest.fail "p=1 is always feasible"

let test_m_one_any_common_slot () =
  let g = graph [ (0, 1, 1.) ] 2 in
  let horizon = 9 in
  let schedules =
    [| avail_of_runs horizon [ (8, 8) ]; avail_of_runs horizon [ (8, 8) ] |]
  in
  let ti = { Query.social = inst g; schedules } in
  match Stgselect.solve ti { p = 2; s = 1; k = 0; m = 1 } with
  | Some { start_slot; _ } -> check Alcotest.int "slot 8" 8 start_slot
  | None -> Alcotest.fail "a single shared slot suffices at m=1"

let test_window_longer_than_horizon () =
  let g = graph [ (0, 1, 1.) ] 2 in
  let horizon = 4 in
  let schedules =
    [| avail_of_runs horizon [ (0, 3) ]; avail_of_runs horizon [ (0, 3) ] |]
  in
  let ti = { Query.social = inst g; schedules } in
  check bool_c "m beyond horizon" true
    (Stgselect.solve ti { p = 2; s = 1; k = 0; m = 5 } = None)

let test_query_validation () =
  let g = graph [ (0, 1, 1.) ] 2 in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Sgselect.solve (inst g) { p = 0; s = 1; k = 0 });
  expect_invalid (fun () -> Sgselect.solve (inst g) { p = 2; s = 0; k = 0 });
  expect_invalid (fun () -> Sgselect.solve (inst g) { p = 2; s = 1; k = -1 });
  expect_invalid (fun () -> Sgselect.solve { Query.graph = g; initiator = 9 } { p = 2; s = 1; k = 0 });
  let ti = { Query.social = inst g; schedules = [| avail_of_runs 4 [] |] } in
  expect_invalid (fun () -> Stgselect.solve ti { p = 2; s = 1; k = 0; m = 2 })

(* A candidate that can never join leaves VA the first time it is
   examined, whatever θ and φ are, and is never deferred.  Here q = 0
   reaches 4 and 5 in one hop and 1 and 3 in two.  1 and 3 each have a
   stranger in {0} (U = 1 > k = 0), so they leave at once, where
   Definition 2 alone would defer each at θ = 2 and 1 and remove it only
   at θ = 0 (9 examinations, 4 of them deferrals).  4 and 5 are not
   adjacent, so there is no answer. *)
let test_doomed_candidate_leaves_at_first_sight () =
  let g = graph [ (0, 4, 4.); (0, 5, 3.); (1, 4, 3.); (3, 4, 5.); (3, 5, 4.) ] 6 in
  let r = Sgselect.solve_report (inst g) { p = 3; s = 2; k = 0 } in
  let st = r.Sgselect.stats in
  check bool_c "no answer" true (r.Sgselect.solution = None);
  check (Alcotest.list Alcotest.int) "examined, deferred, removed interior, exterior"
    [ 5; 0; 1; 3 ]
    [ st.Search_core.examined; st.deferred; st.removed_interior; st.removed_exterior ]

(* Its STGQ twin.  All four are acquainted, k = 0, p = 3, m = 3.  At
   pivot 5 (interval 3-7) q and 3 are free throughout, 1 at 3-6 and 2 at
   5-7.  Once 1 joins, TS is 3-6 and 2's run meets it in two slots
   (X = -1), so 2 is removed at once, where Definition 5 alone would
   defer it at every θ and φ below the threshold (6 deferrals) and
   remove it only there.  The answer, {0, 1, 3} from slot 3, is the one
   the search always found. *)
let test_doomed_window_leaves_at_first_sight () =
  let g =
    graph [ (0, 1, 1.); (0, 2, 2.); (0, 3, 3.); (1, 2, 1.); (1, 3, 1.); (2, 3, 1.) ] 4
  in
  let horizon = 12 in
  let schedules =
    [|
      avail_of_runs horizon [ (0, 11) ];
      avail_of_runs horizon [ (3, 6) ];
      avail_of_runs horizon [ (5, 7) ];
      avail_of_runs horizon [ (0, 11) ];
    |]
  in
  let ti = { Query.social = inst g; schedules } in
  let r = Stgselect.solve_report ti { p = 3; s = 1; k = 0; m = 3 } in
  let st = r.Stgselect.stats in
  (match r.Stgselect.solution with
  | Some { st_attendees; st_total_distance; start_slot } ->
      check (Alcotest.list Alcotest.int) "group" [ 0; 1; 3 ] st_attendees;
      check bool_c "distance 4" true (close st_total_distance 4.);
      check Alcotest.int "start" 3 start_slot
  | None -> Alcotest.fail "expected a solution");
  check (Alcotest.list Alcotest.int) "examined, deferred, removed temporal"
    [ 3; 0; 1 ]
    [ st.Search_core.examined; st.deferred; st.removed_temporal ]

(* The prune checks run when a node starts and after each change to
   VA, not before every candidate: a deferral or a new θ/φ round
   changes nothing that Lemmas 2, 3 and 5 read.  A sink that keeps the
   strictly better group, as the single-best sink does, and counts its
   [bound] reads sees at most one per node and one per include or
   removal.  At p = 5, s = 2, k = 2 each of [hot]'s initiators defers
   more candidates than the search has nodes (from 1.8 to 18 times as
   many), so a read before every examination would pass that count.
   The answer is SGSelect's. *)
let test_bound_read_after_changes_only () =
  let ds = Workload.Hot.world () in
  let graph = ds.Workload.People194.graph in
  let q = { Query.p = 5; s = 2; k = 2 } in
  List.iter
    (fun initiator ->
      let instance = { Query.graph; initiator } in
      let ctx = Query.sg_context instance ~s:q.s in
      let cell = ref None and reads = ref 0 in
      let sink =
        {
          Search_core.offer =
            (fun f ->
              match !cell with
              | Some (best : Search_core.found) when f.distance >= best.distance -. 1e-9 -> ()
              | Some _ | None -> cell := Some f);
          bound =
            (fun () ->
              incr reads;
              match !cell with Some f -> f.Search_core.distance | None -> infinity);
        }
      in
      let stats = Search_core.fresh_stats () in
      check bool_c "complete" true
        (Search_core.solve_social_sink ctx ~p:q.p ~k:q.k ~config:Search_core.default_config
           ~stats ~sink
        = None);
      let limit =
        stats.nodes + stats.includes + stats.removed_exterior + stats.removed_interior
        + stats.removed_temporal
      in
      check bool_c
        (Printf.sprintf "initiator %d: %d deferrals over %d nodes" initiator stats.deferred
           stats.nodes)
        true
        (stats.deferred > stats.nodes);
      check bool_c
        (Printf.sprintf "initiator %d: %d bound reads, at most %d" initiator !reads limit)
        true (!reads <= limit);
      match (!cell, Sgselect.solve instance q) with
      | Some f, Some { attendees; total_distance } ->
          check (Alcotest.list Alcotest.int) "SGSelect's group" attendees
            (Engine.Feasible.originals ctx.Engine.Context.fg f.group);
          check bool_c "SGSelect's distance" true (close f.distance total_distance)
      | None, None -> ()
      | Some _, None | None, Some _ -> Alcotest.fail "SGSelect disagrees on feasibility")
    (Workload.Hot.initiators graph)

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

let agree_sg ?config case =
  let instance = Gen.instance_of_sg_case case in
  let fast = Sgselect.solve ?config instance case.Gen.query in
  let brute = (Baseline.sgq_brute instance case.Gen.query).Baseline.solution in
  match (fast, brute) with
  | None, None -> true
  | Some f, Some b ->
      close f.Query.total_distance b.Query.total_distance
      && Validate.is_valid_sg instance case.Gen.query f
  | Some _, None | None, Some _ -> false

let prop_sgselect_optimal = Gen.qtest ~count:300 "SGSelect = brute force" (Gen.sg_case ()) agree_sg

let ablation_config ~ordering ~distance ~acquaintance =
  {
    Search_core.default_config with
    Search_core.use_access_ordering = ordering;
    use_distance_pruning = distance;
    use_acquaintance_pruning = acquaintance;
  }

let prop_ablations_stay_optimal =
  let configs =
    [
      ablation_config ~ordering:false ~distance:true ~acquaintance:true;
      ablation_config ~ordering:true ~distance:false ~acquaintance:true;
      ablation_config ~ordering:true ~distance:true ~acquaintance:false;
      ablation_config ~ordering:false ~distance:false ~acquaintance:false;
    ]
  in
  Gen.qtest ~count:100 "SGSelect optimal under every safe ablation" (Gen.sg_case ())
    (fun case -> List.for_all (fun config -> agree_sg ~config case) configs)

let agree_stg case =
  let ti = Gen.temporal_instance_of_stg_case case in
  let query = Gen.stgq_of_stg_case case in
  let fast = Stgselect.solve ti query in
  let brute = (Baseline.stgq_brute ti query).Baseline.st_solution in
  match (fast, brute) with
  | None, None -> true
  | Some f, Some b ->
      close f.Query.st_total_distance b.Query.st_total_distance
      && Validate.is_valid_stg ti query f
  | Some _, None | None, Some _ -> false

let prop_stgselect_optimal =
  Gen.qtest ~count:150 "STGSelect = per-window brute force" (Gen.stg_case ()) agree_stg

(* Wide activity windows drive the pivot count down and make the
   interval scan straddle run boundaries — a regime the default
   generator (m <= 4) rarely reaches. *)
let prop_stgselect_optimal_wide_m =
  Gen.qtest ~count:80 "STGSelect = brute force at wide m"
    (Gen.stg_case ~max_n:7 ~max_m:8 ())
    agree_stg

(* Long horizons and wide windows: a pivot interval of 2m - 1 slots
   often crosses one of the calendar's 62-slot words, and from m = 32
   it fills two of the kernel's busy words.  The default generator's
   horizons of 16-32 slots never cross a word.  Calendars free but for
   a few short busy runs keep windows of up to 40 slots common. *)
let prop_stgselect_optimal_word_edges =
  Gen.qtest ~count:150 "STGSelect = per-window brute force across word edges"
    (Gen.stg_case ~max_n:7 ~max_m:40 ~horizons:(60, 140) ~mostly_free:true ())
    agree_stg

let agree_stg_with config case =
  let ti = Gen.temporal_instance_of_stg_case case in
  let query = Gen.stgq_of_stg_case case in
  let fast = Stgselect.solve ~config ti query in
  let brute = (Baseline.stgq_brute ti query).Baseline.st_solution in
  match (fast, brute) with
  | None, None -> true
  | Some f, Some b -> close f.Query.st_total_distance b.Query.st_total_distance
  | Some _, None | None, Some _ -> false

let prop_stg_ablations_stay_optimal =
  let base = Search_core.default_config in
  let configs =
    [
      { base with Search_core.use_availability_pruning = false };
      { base with Search_core.use_access_ordering = false };
      { base with Search_core.use_distance_pruning = false };
      { base with Search_core.use_acquaintance_pruning = false };
      {
        Search_core.use_availability_pruning = false;
        use_access_ordering = false;
        use_distance_pruning = false;
        use_acquaintance_pruning = false;
      };
    ]
  in
  Gen.qtest ~count:60 "STGSelect optimal under every safe ablation"
    (Gen.stg_case ~max_n:7 ())
    (fun case -> List.for_all (fun config -> agree_stg_with config case) configs)

let prop_stgselect_vs_per_slot =
  Gen.qtest ~count:100 "STGSelect = per-slot SGSelect baseline" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let a = Stgselect.solve ti query in
      let b = (Baseline.stgq_per_slot ti query).Baseline.st_solution in
      match (a, b) with
      | None, None -> true
      | Some x, Some y -> close x.Query.st_total_distance y.Query.st_total_distance
      | _ -> false)

let prop_always_free_reduces_to_sgq =
  Gen.qtest ~count:100 "STGQ over always-free schedules = SGQ" (Gen.sg_case ~max_n:9 ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let horizon = 24 in
      let schedules =
        Array.init case.Gen.n (fun _ -> avail_of_runs horizon [ (0, horizon - 1) ])
      in
      let ti = { Query.social = instance; schedules } in
      let ({ p; s; k } : Query.sgq) = case.Gen.query in
      let sg = Sgselect.solve instance case.Gen.query in
      let stg = Stgselect.solve ti { p; s; k; m = 3 } in
      match (sg, stg) with
      | None, None -> true
      | Some a, Some b -> close a.Query.total_distance b.Query.st_total_distance
      | _ -> false)

let prop_k_monotone =
  Gen.qtest ~count:100 "looser k never worsens the optimum" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let ({ p; s; k } : Query.sgq) = case.Gen.query in
      let d q =
        Option.map (fun r -> r.Query.total_distance) (Sgselect.solve instance q)
      in
      match (d { Query.p; s; k }, d { Query.p; s; k = k + 1 }) with
      | Some tight, Some loose -> loose <= tight +. 1e-6
      | None, _ -> true
      | Some _, None -> false)

let prop_s_monotone =
  Gen.qtest ~count:100 "larger radius never worsens the optimum" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let ({ p; s; k } : Query.sgq) = case.Gen.query in
      let d q =
        Option.map (fun r -> r.Query.total_distance) (Sgselect.solve instance q)
      in
      match (d { Query.p; s; k }, d { Query.p; s = s + 1; k }) with
      | Some tight, Some loose -> loose <= tight +. 1e-6
      | None, _ -> true
      | Some _, None -> false)

let prop_p1_trivial =
  Gen.qtest ~count:50 "p=1 always succeeds with distance 0" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      match Sgselect.solve instance { Query.p = 1; s = 1; k = 0 } with
      | Some { attendees; total_distance } -> attendees = [ 0 ] && close total_distance 0.
      | None -> false)

(* The anytime gap is [max 0 (distance - lb)], where [lb], the sum of
   the [p-1] smallest candidate distances, is admissible: it never
   exceeds the brute-force optimum, so an incumbent at distance [d] is
   at most [gap d] above it. *)
let prop_gap_bounds_optimum =
  Gen.qtest ~count:150 "anytime gap bounds the distance to the optimum" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let ({ p; s; _ } : Query.sgq) = case.Gen.query in
      let fg = Engine.Feasible.extract instance.Query.graph ~initiator:0 ~s in
      let smallest =
        List.init (Engine.Feasible.size fg) Fun.id
        |> List.filter (fun v -> v <> fg.Engine.Feasible.q)
        |> List.map (fun v -> fg.Engine.Feasible.dist.(v))
        |> List.sort compare
      in
      let lb =
        if List.length smallest < p - 1 then infinity
        else List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < p - 1) smallest)
      in
      let gap = Search_core.gap fg ~p in
      List.for_all (fun d -> close (gap d) (Float.max 0. (d -. lb))) [ 0.; 1.; 7.5; 100. ]
      && Search_core.gap ~eligible:(fun _ -> false) fg ~p 5. = 0.
      &&
      match (Baseline.sgq_brute instance case.Gen.query).Baseline.solution with
      | None -> true
      | Some opt ->
          let d = opt.Query.total_distance in
          lb <= d +. 1e-9
          && List.for_all (fun extra -> gap (d +. extra) >= extra -. 1e-9) [ 0.; 0.5; 3.; 40. ])

(* Planner and Parallel merge per-pivot and per-bucket results with
   [best_of]: the smallest (distance, window start, group), whatever
   order the results arrive in. *)
let found_list =
  let open QCheck.Gen in
  let found =
    map3
      (fun d window_start group ->
        { Search_core.distance = float_of_int d; window_start; group = List.sort_uniq compare group })
      (int_bound 3) (opt (int_bound 3))
      (list_size (int_range 1 3) (int_bound 4))
  in
  QCheck.make
    ~print:
      (QCheck.Print.list
         (QCheck.Print.option (fun (f : Search_core.found) ->
              Printf.sprintf "%g@%s{%s}" f.distance
                (match f.window_start with Some w -> string_of_int w | None -> "-")
                (String.concat "," (List.map string_of_int f.group)))))
    (list_size (int_bound 8) (opt found))

let prop_best_of_order_independent =
  Gen.qtest ~count:200 "best_of merges to the least result in any order" found_list
    (fun results ->
      let merge l = List.fold_left Search_core.best_of None l in
      let key (f : Search_core.found) = (f.distance, f.window_start, f.group) in
      let least =
        match List.sort (fun a b -> compare (key a) (key b)) (List.filter_map Fun.id results) with
        | [] -> None
        | f :: _ -> Some f
      in
      let rotated = match results with [] -> [] | x :: rest -> rest @ [ x ] in
      merge results = least && merge (List.rev results) = least && merge rotated = least)

(* Pivot setup costs what qualifying pivots cost: with the initiator
   busy at every pivot, a cached STGSelect over the replay world's
   485-member ball reads no other member's run and builds no search
   state, so it allocates a few words per ball member in all (its run
   arrays, busy-slot masks and calendar slab), not run arrays at every
   pivot.  A window far longer than the horizon has no pivot, and its
   masks are sized by the horizon, not by m. *)
let test_busy_initiator_setup_words () =
  let ti = Gen.replay_ti in
  let schedules = Array.copy ti.Query.schedules in
  let initiator = Gen.replay_initiator in
  schedules.(initiator) <-
    Timetable.Availability.create
      ~horizon:(Timetable.Availability.horizon schedules.(initiator));
  let ti = { ti with Query.schedules } in
  let q = { Query.p = 3; s = 2; k = 1; m = 2 } in
  let ctx, _ = Query.stg_context ti ~s:q.s in
  let size = Engine.Feasible.size ctx.Engine.Context.fg in
  check bool_c "a ball of hundreds" true (size >= 200);
  List.iter
    (fun q ->
      let solve () = Stgselect.solve_report ~ctx ti q in
      let r = solve () in
      check bool_c "no answer" true (r.Stgselect.solution = None);
      check Alcotest.int "no search node" 0 r.Stgselect.stats.Search_core.nodes;
      let words = Gen.allocated_words (fun () -> ignore (solve () : Stgselect.report)) in
      check bool_c
        (Printf.sprintf "m = %d: %d words over %d pivots at |V_F| = %d (at most 8 |V_F|)"
           q.m words r.Stgselect.pivots_scanned size)
        true
        (words <= 8 * size))
    [ q; { q with m = 1_000_000 } ]

let suite =
  [
    Alcotest.test_case "star p=3 k=2" `Quick test_star_k2;
    Alcotest.test_case "star p=3 k=0 infeasible" `Quick test_star_k0_infeasible;
    Alcotest.test_case "clique p=4 k=0" `Quick test_clique;
    Alcotest.test_case "two triangles pick the cheap one" `Quick test_two_triangles;
    Alcotest.test_case "printed Lemma 3 counterexample" `Quick
      test_lemma3_printed_bound_is_unsafe;
    Alcotest.test_case "radius constraint" `Quick test_radius;
    Alcotest.test_case "hop-bounded distances" `Quick test_hop_bounded_distance;
    Alcotest.test_case "STGQ disjoint schedules" `Quick test_stg_disjoint_schedules;
    Alcotest.test_case "STGQ off-pivot window" `Quick test_stg_example_shapes;
    Alcotest.test_case "vacuous k = nearest selection" `Quick
      test_vacuous_k_is_pure_distance_selection;
    Alcotest.test_case "isolated initiator" `Quick test_isolated_initiator;
    Alcotest.test_case "m=1 single shared slot" `Quick test_m_one_any_common_slot;
    Alcotest.test_case "m beyond horizon" `Quick test_window_longer_than_horizon;
    Alcotest.test_case "query validation" `Quick test_query_validation;
    Alcotest.test_case "a stranger past k leaves VA at first sight" `Quick
      test_doomed_candidate_leaves_at_first_sight;
    Alcotest.test_case "a run too short for TS leaves VA at first sight" `Quick
      test_doomed_window_leaves_at_first_sight;
    Alcotest.test_case "bound read once per node and per change to VA" `Quick
      test_bound_read_after_changes_only;
    prop_sgselect_optimal;
    prop_ablations_stay_optimal;
    prop_stgselect_optimal;
    prop_stgselect_optimal_wide_m;
    prop_stgselect_optimal_word_edges;
    prop_stg_ablations_stay_optimal;
    prop_stgselect_vs_per_slot;
    prop_always_free_reduces_to_sgq;
    prop_k_monotone;
    prop_s_monotone;
    prop_p1_trivial;
    prop_gap_bounds_optimum;
    prop_best_of_order_independent;
    Alcotest.test_case "busy initiator: setup words follow |V_F|" `Quick
      test_busy_initiator_setup_words;
  ]
