(** Hop-bounded shortest distances (Definition 1 of the paper).

    The {e i-edge minimum distance} between [v] and the source [q] is the
    total weight of the cheapest path from [q] to [v] using at most [i]
    edges.  SGQ's social radius constraint requires [d^s_{v,q}] — note this
    differs both from the unbounded shortest path (which may need more than
    [s] edges) and from the minimum-hop path (which may be heavier). *)

(** [distances g ~src ~max_edges] is the array [d] with [d.(v)] the
    [max_edges]-edge minimum distance from [src] to [v]; [infinity] when no
    path of at most [max_edges] edges exists.  [d.(src) = 0].
    Runs the dynamic program of Definition 1: up to [max_edges]
    synchronous relaxation rounds over two buffers (in-place relaxation
    would let paths exceed the hop bound), stopping early once a round
    improves no distance — [max_edges] beyond the graph's hop diameter
    costs nothing extra.
    @raise Invalid_argument if [src] is out of range or [max_edges < 0]. *)
val distances : Graph.t -> src:int -> max_edges:int -> float array

(** [ball g ~src ~max_edges] is [(ids, dist)]: [ids] lists, in
    increasing order, the vertices at finite [max_edges]-edge distance
    from [src] ([src] included), and [dist.(i)] is that distance for
    [ids.(i)] — bit for bit the value {!distances} computes.
    Frontier relaxation: round [h] pushes only from the vertices that
    improved in round [h-1], at their round-[h-1] values, so the work
    and allocation follow the ball, not [n].  The n-sized scratch comes
    from a process-wide free-list of reset buffers and is reset through
    the touched vertices; concurrent calls from any thread or domain
    take distinct buffers.
    @raise Invalid_argument if [src] is out of range or [max_edges < 0]. *)
val ball : Graph.t -> src:int -> max_edges:int -> int array * float array

(** [shortest_path g ~src ~max_edges ~dst] is [Some (path, distance)]
    where [path] is a minimum-distance path from [src] to [dst] using at
    most [max_edges] edges ([src] first, [dst] last), or [None] when
    [dst] is out of reach.  [distance] equals
    [(distances g ~src ~max_edges).(dst)]. *)
val shortest_path :
  Graph.t -> src:int -> max_edges:int -> dst:int -> (int list * float) option
