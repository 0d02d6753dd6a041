let world () = People194.generate ~days:7 ()

let initiators graph =
  let n = Socgraph.Graph.n_vertices graph in
  let ranked = Array.init n Fun.id in
  Array.stable_sort
    (fun u v -> compare (Socgraph.Graph.degree graph v) (Socgraph.Graph.degree graph u))
    ranked;
  List.init 8 (fun i -> ranked.(i * n / 8))

let sgq_shapes =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun k -> List.map (fun s -> { Stgq_core.Query.p; s; k }) [ 1; 2 ])
        [ 1; 2; 3 ])
    [ 3; 4; 5 ]

let stgq_shapes =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun k ->
          List.concat_map
            (fun m -> List.map (fun s -> { Stgq_core.Query.p; s; k; m }) [ 1; 2 ])
            [ 2; 4; 6; 8 ])
        [ 1; 2 ])
    [ 3; 4; 5 ]
