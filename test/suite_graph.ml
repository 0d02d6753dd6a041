(* Graph substrate: structure, traversals, hop-bounded distances, k-plex
   predicates, generators and persistence. *)

module G = Socgraph.Graph
module BD = Socgraph.Bounded_dist
module T = Socgraph.Traversal
module K = Socgraph.Kplex

let check = Alcotest.check

let diamond =
  (* 0-1, 0-2, 1-3, 2-3, 1-2 *)
  G.of_edges 4 [ (0, 1, 1.); (0, 2, 4.); (1, 3, 2.); (2, 3, 1.); (1, 2, 1.) ]

let test_structure () =
  check Alcotest.int "vertices" 4 (G.n_vertices diamond);
  check Alcotest.int "edges" 5 (G.n_edges diamond);
  check Alcotest.int "degree 1" 3 (G.degree diamond 1);
  check Alcotest.bool "adjacent" true (G.adjacent diamond 0 2);
  check Alcotest.bool "not adjacent" false (G.adjacent diamond 0 3);
  check Alcotest.bool "no self adjacency" false (G.adjacent diamond 2 2);
  check (Alcotest.option (Alcotest.float 0.)) "weight" (Some 4.) (G.edge_weight diamond 0 2);
  check (Alcotest.list Alcotest.int) "neighbors sorted" [ 0; 2; 3 ] (G.neighbor_ids diamond 1)

let test_dedup_keeps_min () =
  let g = G.of_edges 2 [ (0, 1, 5.); (1, 0, 3.); (0, 1, 7.) ] in
  check Alcotest.int "single edge" 1 (G.n_edges g);
  check (Alcotest.option (Alcotest.float 0.)) "min weight kept" (Some 3.)
    (G.edge_weight g 0 1)

let test_rejects_bad_edges () =
  let raises name f = Alcotest.check_raises name (Invalid_argument "") f in
  ignore raises;
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> G.of_edges 3 [ (0, 0, 1.) ]);
  expect_invalid (fun () -> G.of_edges 3 [ (0, 3, 1.) ]);
  expect_invalid (fun () -> G.of_edges 3 [ (0, 1, 0.) ]);
  expect_invalid (fun () -> G.of_edges 3 [ (0, 1, -2.) ]);
  expect_invalid (fun () -> G.of_edges 3 [ (0, 1, Float.nan) ])

let test_induced () =
  (* sub ids 0, 1, 2 are vertices 0, 1, 3 *)
  let sub = G.induced diamond [| 0; 1; 3 |] in
  check Alcotest.int "induced vertices" 3 (G.n_vertices sub);
  check Alcotest.int "induced edges" 2 (G.n_edges sub);
  check Alcotest.bool "0-1 kept" true (G.adjacent sub 0 1);
  check Alcotest.bool "1-3 kept" true (G.adjacent sub 1 2);
  check Alcotest.bool "0-3 absent" false (G.adjacent sub 0 2);
  check (Alcotest.option (Alcotest.float 0.)) "1-3 weight" (Some 2.)
    (G.edge_weight sub 1 2);
  let expect_invalid vs =
    match G.induced diamond vs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid [| 1; 0 |];
  expect_invalid [| 1; 1 |];
  expect_invalid [| 0; 4 |]

let test_bounded_dist_fixture () =
  let d1 = BD.distances diamond ~src:0 ~max_edges:1 in
  check (Alcotest.float 0.) "1 hop to 1" 1. d1.(1);
  check (Alcotest.float 0.) "1 hop to 2" 4. d1.(2);
  check Alcotest.bool "3 unreachable in 1 hop" true (d1.(3) = infinity);
  let d2 = BD.distances diamond ~src:0 ~max_edges:2 in
  check (Alcotest.float 0.) "2-hop to 2 via 1" 2. d2.(2);
  check (Alcotest.float 0.) "2-hop to 3" 3. d2.(3);
  let d3 = BD.distances diamond ~src:0 ~max_edges:3 in
  check (Alcotest.float 0.) "3-hop to 3" 3. d3.(3)

(* Oracle: enumerate all simple paths up to [h] edges. *)
let brute_bounded g ~src ~max_edges =
  let n = G.n_vertices g in
  let best = Array.make n infinity in
  best.(src) <- 0.;
  let rec walk v used total =
    if total < best.(v) then best.(v) <- total;
    if used < max_edges then
      G.iter_neighbors g v (fun u w -> walk u (used + 1) (total +. w))
  in
  walk src 0 0.;
  best

let small_graph_arb =
  QCheck.make
    ~print:(fun (n, edges) -> Printf.sprintf "n=%d [%s]" n (Gen.pp_edges edges))
    QCheck.Gen.(
      4 -- 9 >>= fun n ->
      let edges st = Gen.graph_edges ~n ~density:0.4 st in
      pair (return n) edges)

(* Weights from a four-value set, so tied distances and equal-weight
   multipaths are common, and 0.1 + 0.2 <> 0.3 makes any change in the
   order of additions show in the last bit. *)
let tied_graph_arb =
  let weights = [| 0.1; 0.2; 0.3; 1. |] in
  QCheck.make
    ~print:(fun (n, edges) -> Printf.sprintf "n=%d [%s]" n (Gen.pp_edges edges))
    QCheck.Gen.(
      4 -- 9 >>= fun n ->
      let edges st =
        List.map
          (fun (u, v, _) -> (u, v, weights.(int_bound 3 st)))
          (Gen.graph_edges ~n ~density:0.4 st)
      in
      pair (return n) edges)

let sources_and_radii n =
  List.concat_map (fun src -> List.map (fun s -> (src, s)) [ 1; 2; 3; 4 ]) (List.init n Fun.id)

(* [ball] claims the DP's values bit for bit (the same additions, and
   [min] is exact), so it is compared with [=], not a tolerance. *)
let prop_bounded_dist =
  Gen.qtest ~count:150 "Definition-1 DP = path enumeration" tied_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      List.for_all
        (fun (src, s) ->
          let dp = BD.distances g ~src ~max_edges:s in
          let oracle = brute_bounded g ~src ~max_edges:s in
          let ids, dist = BD.ball g ~src ~max_edges:s in
          Array.for_all2
            (fun a b -> (a = infinity && b = infinity) || Float.abs (a -. b) < 1e-9)
            dp oracle
          && ids = Array.of_list (List.filter (fun v -> dp.(v) < infinity) (List.init n Fun.id))
          && dist = Array.map (fun v -> dp.(v)) ids)
        (sources_and_radii n))

(* The ball's membership, three ways: hop counts, the feasible graph's
   [sub_id]/[of_sub] pair, and the certifier's own recomputation, which
   must flag exactly the attendees [distances] leaves infinite and sum
   the others to [distances]' total. *)
let prop_hop_consistency =
  Gen.qtest ~count:150 "finite bounded distance iff within hops" tied_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      let everyone = List.init n Fun.id in
      List.for_all
        (fun (src, s) ->
          let hops = T.bfs_hops g src in
          let d = BD.distances g ~src ~max_edges:s in
          let fg = Engine.Feasible.extract g ~initiator:src ~s in
          let total =
            List.fold_left
              (fun acc v -> if Float.is_finite d.(v) then acc +. d.(v) else acc)
              0. everyone
          in
          let violations =
            Stgq_core.Validate.check_sg
              { Stgq_core.Query.graph = g; initiator = src }
              { Stgq_core.Query.p = n; s; k = n }
              { Stgq_core.Query.attendees = everyone; total_distance = total }
          in
          let flagged =
            List.filter_map
              (function Stgq_core.Validate.Radius_violation v -> Some v | _ -> None)
              violations
          in
          List.for_all (fun v -> Float.is_finite d.(v) = (hops.(v) <= s)) everyone
          && Array.for_all (fun v -> Float.is_finite d.(v)) fg.Engine.Feasible.of_sub
          && Array.for_all
               (fun i -> Engine.Feasible.sub_id fg fg.Engine.Feasible.of_sub.(i) = i)
               (Array.init (Engine.Feasible.size fg) Fun.id)
          && List.for_all
               (fun v -> Float.is_finite d.(v) || Engine.Feasible.sub_id fg v = -1)
               everyone
          && Engine.Feasible.sub_id fg (-1) = -1
          && Engine.Feasible.sub_id fg n = -1
          && flagged = List.filter (fun v -> d.(v) = infinity) everyone
          && not
               (List.exists
                  (function
                    | Stgq_core.Validate.Distance_mismatch _ -> true | _ -> false)
                  violations))
        (sources_and_radii n))

let prop_degree_sum =
  Gen.qtest ~count:150 "degree sum = 2|E|" small_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      let sum = List.fold_left (fun acc v -> acc + G.degree g v) 0 (List.init n Fun.id) in
      sum = 2 * G.n_edges g)

let prop_gio_roundtrip =
  Gen.qtest ~count:100 "edge-list save/parse roundtrip" small_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      let g' = Socgraph.Gio.of_string (Socgraph.Gio.to_string g) in
      G.n_vertices g' = n && G.edges g' = G.edges g)

let test_components () =
  let g = G.of_edges 6 [ (0, 1, 1.); (1, 2, 1.); (3, 4, 1.) ] in
  let ids, count = T.components g in
  check Alcotest.int "three components" 3 count;
  check Alcotest.bool "0 and 2 together" true (ids.(0) = ids.(2));
  check Alcotest.bool "0 and 3 apart" true (ids.(0) <> ids.(3));
  check Alcotest.bool "5 isolated" true (ids.(5) <> ids.(3) && ids.(5) <> ids.(0));
  check Alcotest.bool "not connected" false (T.is_connected g)

let test_kplex () =
  (* Star q + 3 leaves: the full set is a 1-acquaintance... each leaf has 2
     non-neighbours, q has 0. *)
  let star = G.of_edges 4 [ (0, 1, 1.); (0, 2, 1.); (0, 3, 1.) ] in
  check Alcotest.bool "k=2 ok" true (K.satisfies star ~k:2 [ 0; 1; 2; 3 ]);
  check Alcotest.bool "k=1 fails" false (K.satisfies star ~k:1 [ 0; 1; 2; 3 ]);
  check Alcotest.int "violators at k=1" 3 (List.length (K.violators star ~k:1 [ 0; 1; 2; 3 ]));
  check Alcotest.int "non-neighbours of leaf" 2 (K.non_neighbors_within star [ 0; 1; 2; 3 ] 1);
  check Alcotest.int "max group at k=1 incl q" 3
    (K.max_group_size star ~k:1 ~must_include:[ 0 ] [ 1; 2; 3 ]);
  check Alcotest.int "max group at k=2 incl q" 4
    (K.max_group_size star ~k:2 ~must_include:[ 0 ] [ 1; 2; 3 ])

let prop_shortest_path_witness =
  Gen.qtest ~count:150 "shortest_path witnesses the DP distance" small_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      let s = 3 in
      let d = BD.distances g ~src:0 ~max_edges:s in
      List.for_all
        (fun dst ->
          match BD.shortest_path g ~src:0 ~max_edges:s ~dst with
          | None -> not (Float.is_finite d.(dst))
          | Some (path, total) ->
              Float.is_finite d.(dst)
              && Float.abs (total -. d.(dst)) < 1e-9
              && List.hd path = 0
              && List.hd (List.rev path) = dst
              && List.length path - 1 <= s
              &&
              (* consecutive vertices are adjacent and weights sum up *)
              let rec walk acc = function
                | a :: (b :: _ as rest) -> (
                    match G.edge_weight g a b with
                    | Some w -> walk (acc +. w) rest
                    | None -> infinity)
                | _ -> acc
              in
              Float.abs (walk 0. path -. total) < 1e-9)
        (List.init n Fun.id))

let test_kplex_enumeration () =
  (* Path 0-1-2: with k=0 the maximal mutually-acquainted sets are the two
     edges; with k=1 the whole path qualifies. *)
  let path = G.of_edges 3 [ (0, 1, 1.); (1, 2, 1.) ] in
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "k=0 maximal cliques"
    [ [ 0; 1 ]; [ 1; 2 ] ]
    (K.enumerate_maximal path ~k:0 ());
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "k=1 whole path"
    [ [ 0; 1; 2 ] ]
    (K.enumerate_maximal path ~k:1 ());
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "min_size filters"
    []
    (K.enumerate_maximal path ~k:0 ~min_size:3 ())

let prop_kplex_enumeration_sound =
  Gen.qtest ~count:60 "maximal k-plex enumeration is sound and complete"
    (QCheck.make
       ~print:(fun (n, edges) -> Printf.sprintf "n=%d [%s]" n (Gen.pp_edges edges))
       QCheck.Gen.(
         4 -- 7 >>= fun n ->
         let edges st = Gen.graph_edges ~n ~density:0.4 st in
         pair (return n) edges))
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      let k = 1 in
      let listed = K.enumerate_maximal g ~k () in
      (* Soundness: every listed set satisfies the bound and is maximal. *)
      let sound =
        List.for_all
          (fun set ->
            K.satisfies g ~k set
            && List.for_all
                 (fun v -> List.mem v set || not (K.satisfies g ~k (v :: set)))
                 (List.init n Fun.id))
          listed
      in
      (* Completeness against subset enumeration. *)
      let all_sets =
        List.init (1 lsl n) (fun mask ->
            List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id))
        |> List.filter (fun set -> set <> [] && K.satisfies g ~k set)
      in
      let maximal =
        List.filter
          (fun set ->
            List.for_all
              (fun v -> List.mem v set || not (K.satisfies g ~k (v :: set)))
              (List.init n Fun.id))
          all_sets
      in
      sound && List.sort compare maximal = listed)

let prop_kplex_monotone =
  Gen.qtest ~count:100 "max k-plex size grows with k" small_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      let pool = List.init n Fun.id in
      let size k = K.max_group_size g ~k ~must_include:[] pool in
      size 0 <= size 1 && size 1 <= size 2 && size 2 <= n)

let rng () = Random.State.make [| 42 |]

let test_generators () =
  let er = Socgraph.Generators.erdos_renyi (rng ()) ~n:50 ~p:0.2 () in
  check Alcotest.int "ER vertices" 50 (G.n_vertices er);
  let ba = Socgraph.Generators.barabasi_albert (rng ()) ~n:100 ~links:3 () in
  check Alcotest.int "BA vertices" 100 (G.n_vertices ba);
  (* Seed clique C(4,2)=6 edges plus 3 per newcomer. *)
  check Alcotest.int "BA edges" (6 + (3 * 96)) (G.n_edges ba);
  check Alcotest.bool "BA connected" true (T.is_connected ba);
  let ws = Socgraph.Generators.watts_strogatz (rng ()) ~n:60 ~neighbors:4 ~beta:0.2 () in
  check Alcotest.int "WS vertices" 60 (G.n_vertices ws);
  check Alcotest.bool "WS edges preserved-ish" true (G.n_edges ws >= 100);
  let cm =
    Socgraph.Generators.community (rng ()) ~sizes:[ 20; 20; 10 ] ~p_in:0.5 ~p_out:0.02 ()
  in
  check Alcotest.int "community vertices" 50 (G.n_vertices cm)

let test_ba_degree_skew () =
  (* Preferential attachment concentrates degree: max degree should far
     exceed the mean. *)
  let ba = Socgraph.Generators.barabasi_albert (rng ()) ~n:400 ~links:3 () in
  let stats = Socgraph.Metrics.degree_stats ba in
  check Alcotest.bool "heavy tail" true
    (float_of_int stats.Socgraph.Metrics.max_degree
    > 3. *. stats.Socgraph.Metrics.mean_degree)

let test_metrics () =
  let tri = G.of_edges 3 [ (0, 1, 1.); (1, 2, 2.); (0, 2, 3.) ] in
  check (Alcotest.float 1e-9) "clustering of triangle" 1. (Socgraph.Metrics.clustering tri 0);
  check (Alcotest.float 1e-9) "mean clustering" 1. (Socgraph.Metrics.mean_clustering tri);
  let ws = Socgraph.Metrics.weight_stats tri in
  check (Alcotest.float 1e-9) "mean weight" 2. ws.Socgraph.Metrics.mean_weight;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "degree histogram" [ (2, 3) ]
    (Socgraph.Metrics.degree_histogram tri)

let suite =
  [
    Alcotest.test_case "structure queries" `Quick test_structure;
    Alcotest.test_case "duplicate edges keep min weight" `Quick test_dedup_keeps_min;
    Alcotest.test_case "rejects malformed edges" `Quick test_rejects_bad_edges;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "bounded distances fixture" `Quick test_bounded_dist_fixture;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "k-plex predicates" `Quick test_kplex;
    Alcotest.test_case "k-plex enumeration fixture" `Quick test_kplex_enumeration;
    Alcotest.test_case "generators" `Quick test_generators;
    Alcotest.test_case "BA degree skew" `Quick test_ba_degree_skew;
    Alcotest.test_case "metrics" `Quick test_metrics;
    prop_bounded_dist;
    prop_hop_consistency;
    prop_degree_sum;
    prop_gio_roundtrip;
    prop_shortest_path_witness;
    prop_kplex_enumeration_sound;
    prop_kplex_monotone;
  ]
