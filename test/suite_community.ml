(* Community search (reference [20]): correctness against exhaustive
   enumeration, plus fixtures showing the SGQ critique. *)

module G = Socgraph.Graph
module CS = Socgraph.Community_search

let check = Alcotest.check

let test_clique_with_pendant () =
  (* Triangle 0-1-2 plus pendant 3 on 0: the best community around 0 is
     the triangle (min degree 2); the pendant would drag it to 1. *)
  let g = G.of_edges 4 [ (0, 1, 1.); (1, 2, 1.); (0, 2, 1.); (0, 3, 1.) ] in
  check (Alcotest.list Alcotest.int) "triangle" [ 0; 1; 2 ] (CS.search g ~anchor:0);
  check Alcotest.int "min degree" 2 (CS.min_internal_degree g [ 0; 1; 2 ])

let test_isolated_anchor () =
  let g = G.of_edges 3 [ (1, 2, 1.) ] in
  check (Alcotest.list Alcotest.int) "alone" [ 0 ] (CS.search g ~anchor:0)

let test_anchor_outside_dense_part () =
  (* A K4 on 1..4 linked to anchor 0 by one edge: the community must
     contain 0, limiting min degree to 1. *)
  let g =
    G.of_edges 5
      [ (1, 2, 1.); (1, 3, 1.); (1, 4, 1.); (2, 3, 1.); (2, 4, 1.); (3, 4, 1.); (0, 1, 1.) ]
  in
  let community = CS.search g ~anchor:0 in
  check Alcotest.bool "contains anchor" true (List.mem 0 community);
  check Alcotest.int "min degree 1" 1 (CS.min_internal_degree g community)

(* Oracle: max over all connected vertex subsets containing the anchor of
   the min internal degree. *)
let brute_best g ~anchor =
  let n = G.n_vertices g in
  let best = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl anchor) <> 0 then begin
      let vs = List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id) in
      (* connectivity within the induced subgraph *)
      let sub = G.induced g (Array.of_list vs) in
      let ids, comps = Socgraph.Traversal.components sub in
      let connected = comps <= 1 || List.length vs <= 1 in
      ignore ids;
      if connected && List.length vs >= 2 then
        best := max !best (CS.min_internal_degree g vs)
    end
  done;
  !best

let small_graph_arb =
  QCheck.make
    ~print:(fun (n, edges) -> Printf.sprintf "n=%d [%s]" n (Gen.pp_edges edges))
    QCheck.Gen.(
      3 -- 8 >>= fun n ->
      let edges st = Gen.graph_edges ~n ~density:0.45 st in
      pair (return n) edges)

let prop_peeling_is_optimal =
  Gen.qtest ~count:100 "global peeling = exhaustive optimum" small_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      ignore n;
      let community = CS.search g ~anchor:0 in
      List.mem 0 community
      && CS.min_internal_degree g community = brute_best g ~anchor:0)

let prop_community_is_connected =
  Gen.qtest ~count:100 "community is connected" small_graph_arb
    (fun (n, edges) ->
      let g = G.of_edges n edges in
      ignore n;
      let community = CS.search g ~anchor:0 in
      let sub = G.induced g (Array.of_list (List.sort_uniq compare community)) in
      Socgraph.Traversal.is_connected sub)

let test_no_size_control () =
  (* The paper's §2 critique: community search cannot ask for "exactly p
     people" — a K6 community stays size 6 no matter what. *)
  let edges = ref [] in
  for u = 0 to 5 do
    for v = u + 1 to 5 do
      edges := (u, v, 1.) :: !edges
    done
  done;
  let g = G.of_edges 6 !edges in
  check Alcotest.int "whole clique" 6 (List.length (CS.search g ~anchor:0))

let suite =
  [
    Alcotest.test_case "clique with pendant" `Quick test_clique_with_pendant;
    Alcotest.test_case "isolated anchor" `Quick test_isolated_anchor;
    Alcotest.test_case "anchor outside dense part" `Quick test_anchor_outside_dense_part;
    Alcotest.test_case "no size control (paper critique)" `Quick test_no_size_control;
    prop_peeling_is_optimal;
    prop_community_is_connected;
  ]
