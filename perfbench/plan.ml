(* Seeded inputs: the world snapshot and the request streams of each
   workload.  Everything here is a pure function of (workload, seed,
   seconds); [make] runs twice per benchmark run and the two results are
   compared byte for byte.

   Every run must do the same work whatever its seed, so runs with
   different seeds can be compared.  The worlds are therefore the
   generators' canonical datasets (the paper's 194-person network and a
   100,000-member coauthor network), and the queries of every workload are
   a fixed multiset of (initiator, shape) requests that the seed only
   orders; scale's initiators are a fixed uniform sample of its members.
   The seed also draws the calendar edits of hot's traced run. *)

open Stgq_core

type kind = Hot | Scale

let kind_of_string = function "hot" -> Some Hot | "scale" -> Some Scale | _ -> None
let kind_name = function Hot -> "hot" | Scale -> "scale"

type t = {
  kind : kind;
  state : Store.state;
  snapshot : string;  (** the encoded snapshot the server loads *)
  warm : Proto.request array;
      (** one trivial query per working-set context, sent before timing *)
  queries : Proto.request array;
      (** hot and scale: [rounds] consecutive rounds, each a seeded
          permutation of the workload's request multiset *)
  rounds : int;
  edits : Proto.request array;
      (** hot: the durable edits its traced run replays in-process *)
  checkpoint_bytes : int;  (** the replayed store's checkpoint threshold *)
  tail_q : float;  (** the query-latency tail percentile reported *)
}

let days = 7

(* scale: the size ROADMAP item 2 asks for.  (At the paper's largest
   size, n = 12,800, a request takes about 3 ms and CPU time stolen by
   the host moves its p90 a lot: over five runs of identical work on a
   2-vCPU host its spread was 0.39 of the median, against 0.07 at
   n = 100,000 in runs interleaved with them.) *)
let scale_n = 100_000

(* hot: 8 initiators x s in {1,2} = 16 contexts, a quarter of the
   server's 64-entry context cache, so after warm-up every lookup hits.
   They are spread evenly over the degree ranking. *)
let hot_initiators = 8

(* Fig. 1's parameter ranges (p 3..11, k 1..6, m 2..24), cut to the
   part a 2-core host answers interactively, with s in {1, 2}: groups of
   6-7 at s = 2 take up to 300 ms each on well-connected members, and a
   handful of them would set every time this benchmark reports. *)
let hot_shapes =
  let sg =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun k -> List.map (fun s -> `Sg { Query.p; s; k }) [ 1; 2 ])
          [ 1; 2; 3 ])
      [ 3; 4; 5 ]
  in
  let stg =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun k ->
            List.concat_map
              (fun m -> List.map (fun s -> `Stg { Query.p; s; k; m }) [ 1; 2 ])
              [ 2; 4; 6; 8 ])
          [ 1; 2 ])
      [ 3; 4; 5 ]
  in
  sg @ stg

(* Fig. 1(d)-(f) run the large networks at s = 1.  A scale round is
   four passes over these shapes, every request with its own initiator
   from the uniform sample, so the 64-entry cache misses on nearly
   every lookup. *)
let scale_shapes =
  let sg =
    List.concat_map
      (fun p -> List.map (fun k -> `Sg { Query.p; s = 1; k }) [ 1; 2; 3 ])
      [ 3; 4; 5 ]
  in
  let stg =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun k -> List.map (fun m -> `Stg { Query.p; s = 1; k; m }) [ 2; 4 ])
          [ 1; 2; 3 ])
      [ 3; 4; 5 ]
  in
  sg @ stg

let scale_round_passes = 4

(* Stream lengths scale with --seconds but are whole rounds of the
   workload's request multiset; the per-second figures are about the
   parent's throughput on a 2-core host, so a run measures about
   --seconds there. *)
let hot_queries_per_s = 450.
let scale_queries_per_s = 36.

(* hot's traced run replays this many durable edits in-process. *)
let hot_durable_edits = 600

(* A checkpoint every [edits_per_checkpoint] edits, so hot's traced
   run spans many checkpoints. *)
let edits_per_checkpoint = 20

let request initiator = function
  | `Sg q -> Proto.Sgq { initiator; q; policy = None }
  | `Stg q -> Proto.Stgq { initiator; q; policy = None }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let rounds ~per_s ~seconds ~size =
  max 1 (int_of_float (Float.round (per_s *. float_of_int seconds /. float_of_int size)))

let edit_stream rng ~n_vertices ~n =
  let archetypes = Array.of_list Timetable.Sched_gen.all_archetypes in
  Array.init n (fun _ ->
      let vertex = Random.State.int rng n_vertices in
      let archetype = archetypes.(Random.State.int rng (Array.length archetypes)) in
      Proto.Update_schedule
        { vertex; avail = Timetable.Sched_gen.person rng ~days ~archetype })

let by_degree graph =
  let n = Socgraph.Graph.n_vertices graph in
  let a = Array.init n Fun.id in
  Array.stable_sort
    (fun u v -> compare (Socgraph.Graph.degree graph v) (Socgraph.Graph.degree graph u))
    a;
  a

let warm_query s initiator =
  Proto.Sgq { initiator; q = { Query.p = 1; s; k = 0 }; policy = None }

let make kind ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let graph, schedules =
    match kind with
    | Hot ->
        let ds = Workload.People194.generate ~days () in
        (ds.Workload.People194.graph, ds.Workload.People194.schedules)
    | Scale ->
        let ds = Workload.Coauthor.generate ~days ~n:scale_n () in
        (ds.Workload.Coauthor.graph, ds.Workload.Coauthor.schedules)
  in
  let state = Store.state_of_instance graph schedules in
  let n = Socgraph.Graph.n_vertices graph in
  let record =
    String.length
      (Store.encode_record (Store.Schedule_set { vertex = 0; avail = schedules.(0) }))
  in
  let base =
    {
      kind;
      state;
      snapshot = Store.encode_snapshot state;
      warm = [||];
      queries = [||];
      rounds = 1;
      edits = [||];
      checkpoint_bytes = edits_per_checkpoint * record;
      tail_q = 0.99;
    }
  in
  match kind with
  | Hot ->
      let ranked = by_degree graph in
      let initiators =
        Array.init hot_initiators (fun i -> ranked.(i * n / hot_initiators))
      in
      let warm =
        Array.append (Array.map (warm_query 1) initiators) (Array.map (warm_query 2) initiators)
      in
      let combos =
        Array.of_list
          (List.concat_map
             (fun shape -> Array.to_list (Array.map (fun q -> request q shape) initiators))
             hot_shapes)
      in
      let r = rounds ~per_s:hot_queries_per_s ~seconds ~size:(Array.length combos) in
      let queries = Array.concat (List.init r (fun _ -> shuffle rng (Array.copy combos))) in
      let edits = edit_stream rng ~n_vertices:n ~n:hot_durable_edits in
      { base with warm; queries; rounds = r; edits }
  | Scale ->
      (* round i always holds the sample's i-th slice of initiators: the
         work is the same in every run, and an initiator seldom recurs *)
      let sample = Random.State.make [| scale_n |] in
      let shapes = Array.of_list scale_shapes in
      let per_round = scale_round_passes * Array.length shapes in
      let r = rounds ~per_s:scale_queries_per_s ~seconds ~size:per_round in
      let round () =
        Array.init per_round (fun i ->
            request (Random.State.int sample n) shapes.(i mod Array.length shapes))
      in
      let queries = Array.concat (List.init r (fun _ -> shuffle rng (round ()))) in
      let warm = [| warm_query 1 (Random.State.int sample n) |] in
      { base with warm; queries; rounds = r; tail_q = 0.9 }

(* Digest of everything the server receives: snapshot + frames. *)
let digest t =
  let d = Buffer.create 4096 in
  Buffer.add_string d (Digest.string t.snapshot);
  Array.iter
    (fun r -> Buffer.add_string d (Digest.string (Proto.encode_request r)))
    (Array.concat [ t.warm; t.queries; t.edits ]);
  Digest.to_hex (Digest.string (Buffer.contents d))
