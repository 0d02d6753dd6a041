(** The served mix of the wire benchmark's [hot] workload: its world,
    its initiators and its query shapes, for the tests and the paper
    harness to solve in process.

    perfbench/plan.ml builds the same mix for the wire benchmark from
    its own copy of these definitions; a benchmark change can switch it
    to this module. *)

(** [world ()] generates the 194-person network over 7 days with the
    default seed. *)
val world : unit -> People194.dataset

(** [initiators graph] ranks the vertices by degree, highest first (ties
    in vertex order), and takes eight spread evenly over the ranking. *)
val initiators : Socgraph.Graph.t -> int list

(** The 18 SGQ shapes: p in 3-5, k in 1-3, s in {1, 2}. *)
val sgq_shapes : Stgq_core.Query.sgq list

(** The 48 STGQ shapes: p in 3-5, k in {1, 2}, m in {2, 4, 6, 8},
    s in {1, 2}. *)
val stgq_shapes : Stgq_core.Query.stgq list
