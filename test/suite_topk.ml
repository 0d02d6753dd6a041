(* Top-N group queries: the returned distance multiset must be the exact
   n smallest over all qualified groups. *)

open Stgq_core

let close a b = Float.abs (a -. b) <= 1e-6

(* Oracle: all qualified SGQ groups, as sorted distances. *)
let all_sg_distances instance (query : Query.sgq) =
  let fg =
    Engine.Feasible.extract instance.Query.graph ~initiator:instance.Query.initiator
      ~s:query.s
  in
  let size = Engine.Feasible.size fg in
  let q = fg.Engine.Feasible.q in
  let acc = ref [] in
  let rec go v group count td =
    if count = query.p then begin
      let ok =
        List.for_all
          (fun x ->
            List.fold_left
              (fun nn w ->
                if w <> x && not (Engine.Feasible.adjacent fg x w) then nn + 1 else nn)
              0 group
            <= query.k)
          group
      in
      if ok then acc := td :: !acc
    end
    else if v < size then begin
      if v <> q then go (v + 1) (v :: group) (count + 1) (td +. fg.Engine.Feasible.dist.(v));
      go (v + 1) group count td
    end
  in
  go 0 [ q ] 1 0.;
  List.sort compare !acc

let take n l = List.filteri (fun i _ -> i < n) l

let prop_topk_sgq_exact =
  Gen.qtest ~count:150 "top-k SGQ distances = n smallest qualified"
    (Gen.sg_case ~max_n:9 ~max_p:5 ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      let n = 4 in
      let entries = Topk.sgq ~n instance case.Gen.query in
      let got = List.map (fun e -> e.Topk.total_distance) entries in
      let want = take n (all_sg_distances instance case.Gen.query) in
      List.length got = List.length want
      && List.for_all2 close got want
      && List.for_all
           (fun e ->
             Validate.is_valid_sg instance case.Gen.query
               {
                 Query.attendees = e.Topk.attendees;
                 total_distance = e.Topk.total_distance;
               })
           entries)

let prop_top1_equals_sgselect =
  Gen.qtest ~count:150 "top-1 = SGSelect" (Gen.sg_case ())
    (fun case ->
      let instance = Gen.instance_of_sg_case case in
      match (Topk.sgq ~n:1 instance case.Gen.query, Sgselect.solve instance case.Gen.query)
      with
      | [], None -> true
      | [ e ], Some s -> close e.Topk.total_distance s.Query.total_distance
      | _ -> false)

let prop_topk_sorted_and_distinct =
  Gen.qtest ~count:100 "top-k entries sorted, groups distinct" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      let entries = Topk.stgq ~n:5 ti query in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            a.Topk.total_distance <= b.Topk.total_distance +. 1e-9 && sorted rest
        | _ -> true
      in
      let groups = List.map (fun e -> e.Topk.attendees) entries in
      sorted entries
      && List.length (List.sort_uniq compare groups) = List.length groups
      && List.for_all
           (fun e ->
             match e.Topk.start_slot with
             | None -> false
             | Some start ->
                 Validate.is_valid_stg ti query
                   {
                     Query.st_attendees = e.Topk.attendees;
                     st_total_distance = e.Topk.total_distance;
                     start_slot = start;
                   })
           entries)

let prop_top1_stgq_equals_stgselect =
  Gen.qtest ~count:100 "top-1 STGQ = STGSelect" (Gen.stg_case ())
    (fun case ->
      let ti = Gen.temporal_instance_of_stg_case case in
      let query = Gen.stgq_of_stg_case case in
      match (Topk.stgq ~n:1 ti query, Stgselect.solve ti query) with
      | [], None -> true
      | [ e ], Some s -> close e.Topk.total_distance s.Query.st_total_distance
      | _ -> false)

let test_topk_zero () =
  let g = Socgraph.Graph.of_edges 3 [ (0, 1, 1.); (0, 2, 2.) ] in
  let instance = { Query.graph = g; initiator = 0 } in
  Alcotest.check Alcotest.int "n=0 yields nothing" 0
    (List.length (Topk.sgq ~n:0 instance { Query.p = 2; s = 1; k = 1 }))

let test_topk_more_than_exist () =
  let g = Socgraph.Graph.of_edges 3 [ (0, 1, 1.); (0, 2, 2.) ] in
  let instance = { Query.graph = g; initiator = 0 } in
  (* Only two groups of size 2 exist. *)
  let entries = Topk.sgq ~n:10 instance { Query.p = 2; s = 1; k = 1 } in
  Alcotest.check Alcotest.int "both groups" 2 (List.length entries);
  match entries with
  | [ a; b ] ->
      Alcotest.check Alcotest.bool "ordered" true
        (a.Topk.total_distance <= b.Topk.total_distance)
  | _ -> Alcotest.fail "expected two entries"

let suite =
  [
    Alcotest.test_case "n=0" `Quick test_topk_zero;
    Alcotest.test_case "n beyond available groups" `Quick test_topk_more_than_exist;
    prop_topk_sgq_exact;
    prop_top1_equals_sgselect;
    prop_topk_sorted_and_distinct;
    prop_top1_stgq_equals_stgselect;
  ]
