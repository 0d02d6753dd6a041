(** Cooperative solve budgets: deadline, node cap, external cancellation.

    SGQ/STGQ are NP-hard, so a pathological query can run effectively
    forever.  A [Budget.t] bounds a solve by three independent limits —
    an absolute {e monotonic} deadline, a search-node budget, and a
    cancellation flag another domain may set at any time — and the
    search layers poll it cooperatively at a coarse checkpoint (every
    {!check_interval} node expansions), cheap enough to leave on in
    production: a budget adds a constant number of words per solve,
    never per node (test/suite_resilience.ml).

    One budget may be shared by several domains (the parallel solver
    gives every pivot bucket the same budget): node charges accumulate
    atomically across domains and the first trip latches, so all buckets
    stop for the same {!reason} within one checkpoint.

    The default {!unlimited} budget never trips and costs one branch per
    checkpoint; with it, solver results are bit-identical to the
    unbudgeted code. *)

(** Why a budget tripped. *)
type reason =
  | Deadline  (** the monotonic deadline passed *)
  | Node_limit  (** more than [node_limit] nodes charged *)
  | Cancelled  (** {!cancel} was called (possibly from another domain) *)

val reason_name : reason -> string

val pp_reason : Format.formatter -> reason -> unit

type t

(** Monotonic clock, in nanoseconds from an arbitrary origin.  Solver
    code must use this (never wall-clock time — enforced by the
    stgq-lint [wall-clock] rule): deadlines survive clock adjustments. *)
val now_ns : unit -> int64

(** Solvers poll the budget every this many node expansions. *)
val check_interval : int

(** The no-op budget: never trips, checked in O(1). *)
val unlimited : t

val is_unlimited : t -> bool

(** [create ?deadline_ns ?node_limit ?cancel ()] — [deadline_ns] is an
    {e absolute} {!now_ns} instant; [node_limit] caps total charged
    nodes; [cancel] shares an external cancellation flag (e.g. one flag
    fanned out to many queries).
    @raise Invalid_argument if [node_limit < 0]. *)
val create :
  ?deadline_ns:int64 -> ?node_limit:int -> ?cancel:bool Atomic.t -> unit -> t

(** [within_ms ?node_limit ms] — deadline [ms] milliseconds from now
    ([ms <= 0] yields an already-expired budget). *)
val within_ms : ?node_limit:int -> int -> t

(** [cancel t] trips the budget from any domain; observed by every
    solver sharing [t] at its next checkpoint.  No-op on {!unlimited}. *)
val cancel : t -> unit

val cancelled : t -> bool

(** Total nodes charged so far (all domains). *)
val nodes_charged : t -> int

(** Time left until the deadline, if one is set (0 when expired). *)
val remaining_ns : t -> int64 option

(** The latched trip reason.  Once set it never changes: every sharer
    observes the same first cause. *)
val tripped : t -> reason option

(** [check t] evaluates all three limits (latching on first trip)
    without charging nodes. *)
val check : t -> reason option

(** [charge t n] adds [n] nodes and then {!check}s.  Solvers call this
    once per {!check_interval} expansions, not per node. *)
val charge : t -> int -> reason option
