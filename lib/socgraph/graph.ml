type edge = int * int * float

(* Compressed sparse row: neighbours of [v] live at indices
   [row.(v) .. row.(v+1) - 1] of [adj]/[wgt], sorted by neighbour id. *)
type t = {
  n : int;
  m : int;
  row : int array;
  adj : int array;
  wgt : float array;
}

let n_vertices g = g.n
let n_edges g = g.m
let degree g v = g.row.(v + 1) - g.row.(v)
let csr g = (g.row, g.adj)

let validate_edge n (u, v, w) =
  if u = v then invalid_arg (Printf.sprintf "Graph: self-loop at %d" u);
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: edge (%d,%d) out of [0,%d)" u v n);
  if not (Float.is_finite w) || w <= 0. then
    invalid_arg (Printf.sprintf "Graph: weight %g of (%d,%d) not positive" w u v)

let of_edges n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative vertex count";
  List.iter (validate_edge n) edges;
  (* Deduplicate, keeping the smallest weight per unordered pair. *)
  let tbl = Hashtbl.create (List.length edges * 2) in
  let add (u, v, w) =
    let key = if u < v then (u, v) else (v, u) in
    match Hashtbl.find_opt tbl key with
    | Some w' when w' <= w -> ()
    | _ -> Hashtbl.replace tbl key w
  in
  List.iter add edges;
  let m = Hashtbl.length tbl in
  let deg = Array.make n 0 in
  Hashtbl.iter
    (fun (u, v) _ ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    tbl;
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + deg.(v)
  done;
  let adj = Array.make (max 1 (2 * m)) 0 in
  let wgt = Array.make (max 1 (2 * m)) 0. in
  let cursor = Array.copy row in
  Hashtbl.iter
    (fun (u, v) w ->
      adj.(cursor.(u)) <- v;
      wgt.(cursor.(u)) <- w;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      wgt.(cursor.(v)) <- w;
      cursor.(v) <- cursor.(v) + 1)
    tbl;
  (* Sort each row by neighbour id (weights follow). *)
  for v = 0 to n - 1 do
    let lo = row.(v) and hi = row.(v + 1) in
    let pairs = Array.init (hi - lo) (fun i -> (adj.(lo + i), wgt.(lo + i))) in
    Array.sort compare pairs;
    Array.iteri
      (fun i (u, w) ->
        adj.(lo + i) <- u;
        wgt.(lo + i) <- w)
      pairs
  done;
  { n; m; row; adj; wgt }

(* Build directly from columnar edge arrays already in canonical order:
   u < v per edge, (u, v) strictly ascending.  Two counting passes over
   the arrays, no hashtable — because the input order is the order
   [edges] emits, every CSR row comes out sorted without a per-row sort.
   This is the snapshot loader's single-pass path: the codec validates
   byte-level shape, this validates graph-level shape, and the arrays
   flow straight into CSR. *)
let of_sorted_arrays ~n ~us ~vs ~ws =
  if n < 0 then invalid_arg "Graph.of_sorted_arrays: negative vertex count";
  let m = Array.length us in
  if Array.length vs <> m || Array.length ws <> m then
    invalid_arg "Graph.of_sorted_arrays: column lengths differ";
  for i = 0 to m - 1 do
    validate_edge n (us.(i), vs.(i), ws.(i));
    if us.(i) >= vs.(i) then
      invalid_arg
        (Printf.sprintf "Graph.of_sorted_arrays: edge (%d,%d) not u < v" us.(i)
           vs.(i));
    if i > 0 && (us.(i - 1) > us.(i) || (us.(i - 1) = us.(i) && vs.(i - 1) >= vs.(i)))
    then
      invalid_arg
        (Printf.sprintf
           "Graph.of_sorted_arrays: edges not strictly ascending at index %d" i)
  done;
  let deg = Array.make (max 1 n) 0 in
  for i = 0 to m - 1 do
    deg.(us.(i)) <- deg.(us.(i)) + 1;
    deg.(vs.(i)) <- deg.(vs.(i)) + 1
  done;
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + deg.(v)
  done;
  let adj = Array.make (max 1 (2 * m)) 0 in
  let wgt = Array.make (max 1 (2 * m)) 0. in
  let cursor = Array.copy row in
  (* In ascending (u, v) order, vertex [x] receives first its smaller
     neighbours (from edges (y, x), y ascending) and then its larger
     ones (from edges (x, v'), v' ascending) — rows are born sorted. *)
  for i = 0 to m - 1 do
    let u = us.(i) and v = vs.(i) and w = ws.(i) in
    adj.(cursor.(u)) <- v;
    wgt.(cursor.(u)) <- w;
    cursor.(u) <- cursor.(u) + 1;
    adj.(cursor.(v)) <- u;
    wgt.(cursor.(v)) <- w;
    cursor.(v) <- cursor.(v) + 1
  done;
  { n; m; row; adj; wgt }

(* First index of the sorted slice [lo, hi) of [a] holding a value
   >= [x]: where [x] sits or would be inserted. *)
let lower_bound (a : int array) lo hi (x : int) =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of [x] in the sorted slice [lo, hi) of [a], or -1. *)
let find_sorted a lo hi x =
  let i = lower_bound a lo hi x in
  if i < hi && a.(i) = x then i else -1

(* The slot of [u] within the sorted row of [v], or -1. *)
let find_slot g v u = find_sorted g.adj g.row.(v) g.row.(v + 1) u

let adjacent g u v = u <> v && find_slot g u v >= 0

let edge_weight g u v =
  if u = v then None
  else
    let s = find_slot g u v in
    if s < 0 then None else Some g.wgt.(s)

let iter_neighbors g v f =
  for i = g.row.(v) to g.row.(v + 1) - 1 do
    f g.adj.(i) g.wgt.(i)
  done

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun u w -> acc := f u w !acc);
  !acc

let neighbors g v = List.rev (fold_neighbors g v (fun u w acc -> (u, w) :: acc) [])
let neighbor_ids g v = List.map fst (neighbors g v)

let edges g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    iter_neighbors g v (fun u w -> if v < u then acc := (v, u, w) :: !acc)
  done;
  !acc

(* Sub ids follow [vs]'s order, so each sub row inherits the sortedness
   of the row it filters.  A sub row holds at most min(degree, |vs| - 1)
   entries, which bounds the arrays for a single filling pass. *)
let induced g vs =
  let k = Array.length vs in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= g.n then invalid_arg "Graph.induced: vertex out of range";
      if i > 0 && vs.(i - 1) >= v then
        invalid_arg "Graph.induced: ids not strictly increasing")
    vs;
  let cap = Array.fold_left (fun acc v -> acc + min (degree g v) (k - 1)) 0 vs in
  let adj = Array.make (max 1 cap) 0 in
  let wgt = Array.make (max 1 cap) 0. in
  let row = Array.make (k + 1) 0 in
  Array.iteri
    (fun i v ->
      let at = ref row.(i) in
      for e = g.row.(v) to g.row.(v + 1) - 1 do
        let s = find_sorted vs 0 k g.adj.(e) in
        if s >= 0 then begin
          adj.(!at) <- s;
          wgt.(!at) <- g.wgt.(e);
          incr at
        end
      done;
      row.(i + 1) <- !at)
    vs;
  let len = max 1 row.(k) in
  { n = k; m = row.(k) / 2; row; adj = Array.sub adj 0 len; wgt = Array.sub wgt 0 len }

let pp ppf g = Format.fprintf ppf "graph(%d vertices, %d edges)" g.n g.m

let pp_full ppf g =
  pp ppf g;
  List.iter (fun (u, v, w) -> Format.fprintf ppf "@\n%d -- %d  (%g)" u v w) (edges g)
