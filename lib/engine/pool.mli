(** Persistent, supervised domain worker pool with typed futures.

    The seed code spawned (and joined) fresh domains on every
    [Parallel.solve_report] call, paying domain start-up per query.  A
    pool spawns its workers once and feeds them thunks through a queue,
    so repeated queries reuse warm domains.

    The submission API is future-based: {!submit} enqueues a typed thunk
    and returns immediately with an ['a future]; {!await} blocks for one
    result, {!await_all} for a whole set of jobs, so a caller can keep
    working while its jobs run.

    Workers are supervised: a worker that dies (in practice, via the
    {!Faultinject.Pool_job_start} injection site — submitted thunks are
    wrapped, so ordinary task failures resolve the future instead of
    killing a domain) spawns a replacement before retiring, keeping the
    pool at full strength; a job the dead worker had not yet started is
    requeued, never lost — its future still resolves.  Respawns are
    counted by the [engine.pool.respawns] metric.

    Tasks must not {!await} a future of the pool that executes them:
    workers draining the queue are the only consumers, so a nested await
    from a worker can deadlock once all workers block on it. *)

type t

(** A handle on one submitted job.  Resolves exactly once — to the
    thunk's value or its exception — and may be awaited from any domain,
    any number of times. *)
type 'a future

(** Raised by {!submit} when the pool has been {!shutdown} — typed, so
    callers can distinguish a lifecycle bug from an arbitrary
    [Invalid_argument]. *)
exception Pool_closed

(** Raised by {!await_all} when at least one task failed: {e all} task
    errors, in input (submission-index) order — not just the first.
    Registered with [Printexc] so the payload prints. *)
exception Task_errors of exn list

(** [create ?size ()] spawns the worker domains.  The size is resolved
    as: explicit [size] argument, else the [STGQ_DOMAINS] environment
    variable (positive integer; malformed values are logged and
    ignored), else [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [size < 1]. *)
val create : ?size:int -> unit -> t

(** Number of worker domains. *)
val size : t -> int

(** [submit t thunk] enqueues [thunk] and returns its future without
    blocking.  The submitter's trace context is captured and installed
    around the thunk on whichever worker runs it, so pooled work joins
    the submitting query's trace.  A raising thunk fails its future; it
    never kills a worker.
    @raise Pool_closed if the pool has been {!shutdown}. *)
val submit : t -> (unit -> 'a) -> 'a future

(** [await fut] blocks until the job completes and returns its value.
    Re-raises the thunk's exception if the job failed. *)
val await : 'a future -> 'a

(** [await_all futs] awaits every future and returns the values in input
    order.  Every job runs to its own completion or failure before
    [await_all] returns.
    @raise Task_errors if any thunk raised (all errors, input order). *)
val await_all : 'a future list -> 'a list

(** [shutdown t] drains outstanding work (queued futures still resolve),
    stops the workers and joins them (including any respawned
    replacements).  Idempotent; subsequent {!submit} calls raise
    {!Pool_closed}. *)
val shutdown : t -> unit

(** [with_pool ?size f] brackets [f] with {!create} and a guaranteed
    {!shutdown} (also on exception), so callers cannot leak worker
    domains. *)
val with_pool : ?size:int -> (t -> 'a) -> 'a

(** A process-wide shared pool, spawned lazily on first use and never
    shut down (blocked worker domains do not prevent process exit). *)
val default : unit -> t
