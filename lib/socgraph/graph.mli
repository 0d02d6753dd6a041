(** Immutable weighted undirected graphs over vertices [0 .. n-1].

    Edge weights model social distance: strictly positive floats, smaller =
    socially closer.  The representation is a compressed sparse row
    adjacency with neighbour lists sorted by vertex id, giving
    [O(log deg)] adjacency tests and cache-friendly neighbour scans — the
    two operations SGSelect/STGSelect perform innermost. *)

type t

(** A weighted undirected edge [(u, v, w)]; [u < v] in normalised output. *)
type edge = int * int * float

(** [of_edges n edges] builds a graph with [n] vertices.  Duplicate edges
    keep the smallest weight; orientation of input pairs is irrelevant.
    @raise Invalid_argument on self-loops, out-of-range endpoints,
    non-positive or non-finite weights. *)
val of_edges : int -> edge list -> t

(** [of_sorted_arrays ~n ~us ~vs ~ws] builds a graph from columnar edge
    arrays already in canonical order: [us.(i) < vs.(i)] and [(u, v)]
    pairs strictly ascending — the order {!edges} emits.  Two counting
    passes, no hashtable and no per-row sort; this is the snapshot
    loader's single-pass path into CSR.
    @raise Invalid_argument if a column length differs, an edge violates
    {!of_edges}'s invariants, or the order is not strictly ascending. *)
val of_sorted_arrays :
  n:int -> us:int array -> vs:int array -> ws:float array -> t

(** [n_vertices g] is the number of vertices (isolated ones included). *)
val n_vertices : t -> int

(** [n_edges g] is the number of undirected edges. *)
val n_edges : t -> int

(** [degree g v] is the number of neighbours of [v]. *)
val degree : t -> int -> int

(** [adjacent g u v] tests whether edge [{u,v}] exists ([false] if [u = v]):
    a binary search of [u]'s row, O(log deg). *)
val adjacent : t -> int -> int -> bool

(** [edge_weight g u v] is [Some w] when [{u,v}] exists. *)
val edge_weight : t -> int -> int -> float option

(** [iter_neighbors g v f] applies [f u w] for each neighbour [u] of [v] in
    increasing [u] order. *)
val iter_neighbors : t -> int -> (int -> float -> unit) -> unit

(** [fold_neighbors g v f init] folds [f u w acc] over neighbours of [v]. *)
val fold_neighbors : t -> int -> (int -> float -> 'a -> 'a) -> 'a -> 'a

(** [neighbors g v] is the sorted list of [(neighbour, weight)] pairs. *)
val neighbors : t -> int -> (int * float) list

(** [neighbor_ids g v] is the sorted list of neighbour ids. *)
val neighbor_ids : t -> int -> int list

(** [csr g] is [(row, adj)], [g]'s compressed rows: the neighbours of
    [v] are [adj.(row.(v)) .. adj.(row.(v + 1) - 1)], in increasing
    order.  These are [g]'s own arrays, not copies, so a caller that
    walks rows in a hot loop pays one call per graph instead of one per
    row; it must never write to them. *)
val csr : t -> int array * int array

(** [edges g] lists every undirected edge once, with [u < v], sorted. *)
val edges : t -> edge list

(** [induced g vs] is the subgraph induced by [vs], a strictly
    increasing array of vertex ids: sub id [i] is vertex [vs.(i)], so
    [vs] itself maps sub ids back to [g]'s ids.  Builds the sub-CSR
    directly, locating neighbours in [vs] by binary search, in
    O(sum of the members' degrees x log |vs|) with no n-sized array.
    @raise Invalid_argument if [vs] is not strictly increasing or holds
    an out-of-range id. *)
val induced : t -> int array -> t

(** [pp] prints a terse [n/m] summary. *)
val pp : Format.formatter -> t -> unit

(** [pp_full] prints every edge, one per line. *)
val pp_full : Format.formatter -> t -> unit
