type t = {
  sub : Socgraph.Graph.t;
  of_sub : int array;
  q : int;
  dist : float array;
  by_dist : int array;
}

(* Binary search over the sorted [of_sub]: O(log |V_F|) and no n-sized
   inverse map, which at n = 100k would cost each cached context 800 KB. *)
let index_of (of_sub : int array) (v : int) =
  let lo = ref 0 and hi = ref (Array.length of_sub - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = of_sub.(mid) in
    if x = v then begin
      res := mid;
      lo := !hi + 1
    end
    else if x < v then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let sub_id t v = index_of t.of_sub v

let extract g ~initiator ~s =
  if initiator < 0 || initiator >= Socgraph.Graph.n_vertices g then
    invalid_arg "Engine.Feasible.extract: initiator out of range";
  if s < 1 then invalid_arg "Engine.Feasible.extract: s must be >= 1";
  let of_sub, dist = Socgraph.Bounded_dist.ball g ~src:initiator ~max_edges:s in
  let sub = Socgraph.Graph.induced g of_sub in
  let q = index_of of_sub initiator in
  (* The only distance sort in the solvers: they filter this order. *)
  let by_dist = Array.init (Array.length of_sub - 1) (fun i -> if i < q then i else i + 1) in
  Array.sort
    (fun a b -> match Float.compare dist.(a) dist.(b) with 0 -> Int.compare a b | c -> c)
    by_dist;
  { sub; of_sub; q; dist; by_dist }

let size t = Array.length t.of_sub
let adjacent t u v = Socgraph.Graph.adjacent t.sub u v

let total_distance t subs = List.fold_left (fun acc v -> acc +. t.dist.(v)) 0. subs

let originals t subs = List.sort compare (List.map (fun v -> t.of_sub.(v)) subs)

let slab t schedules =
  (* [of_sub] is increasing, so its last entry is the largest id read. *)
  if t.of_sub.(size t - 1) >= Array.length schedules then
    invalid_arg "Engine.Feasible.slab: a ball member has no schedule";
  let horizon = Timetable.Availability.horizon schedules.(t.of_sub.(t.q)) in
  Array.map
    (fun orig ->
      let a = schedules.(orig) in
      if Timetable.Availability.horizon a <> horizon then
        invalid_arg "Engine.Feasible.slab: schedules disagree on horizon";
      a)
    t.of_sub
