(** The degradation ladder: resilient query answering under deadlines,
    cancellation and injected faults.

    A resilient solve walks down a ladder of rungs until one yields an
    answer it can stand behind:

    + {b Exact} — the optimal solver ran to completion within budget.
    + {b Anytime} — the budget tripped but the solver had an incumbent:
      the best feasible answer so far, with its optimality-gap bound
      (see {!Anytime}).
    + {b Heuristic} — no incumbent survived; a budgeted beam
      heuristic answers instead (no gap bound).
    + Typed failure — {!Degraded} (resource-bounded, nothing found) or
      {!Unavailable} (hard fault), never a hang or a raw exception.

    Transient faults ({!Faultinject.Injected_fault} with
    [transient = true]) are retried with bounded, deterministically
    jittered exponential backoff before the ladder gives up.

    Every outcome is counted ([service.deadline_hits],
    [service.degraded], [service.retries], [service.unavailable]) and
    timed per rung ([service.rung.{exact,anytime,heuristic}.latency_ns]);
    see docs/OBSERVABILITY.md. *)

type rung = Exact | Anytime_best | Heuristic

val rung_name : rung -> string

val pp_rung : Format.formatter -> rung -> unit

type policy = {
  deadline_ms : float option;  (** wall budget per attempt; [None] = none *)
  node_limit : int option;  (** node-expansion budget; [None] = none *)
  degrade : bool;  (** allow the heuristic rung (default [true]) *)
  max_retries : int;  (** transient-fault retries (not rung descents) *)
  backoff_ms : float;  (** base backoff, doubled per retry, jittered *)
  seed : int;  (** jitter seed — retry schedules are reproducible *)
}

(** No budget, degradation allowed, 2 retries from a 5 ms base. *)
val default_policy : policy

(** [backoff_s policy ~attempt] — the sleep (in seconds) before retry
    number [attempt] (0-based): [backoff_ms], doubled per attempt,
    scaled by a deterministic seeded jitter in [0.5, 1.0).  Exposed so
    other retry loops (e.g. {!Server.Client} connecting to a server
    still replaying its WAL) share one reproducible schedule. *)
val backoff_s : policy -> attempt:int -> float

type 'a answer = {
  value : 'a option;
      (** [None] only on the [Exact] rung: certified infeasible *)
  rung : rung;
  gap : float option;
      (** [Some 0.] when exact; an upper bound on suboptimality on the
          anytime rung; [None] on the heuristic rung (unknown) *)
  retries : int;  (** transient retries consumed *)
  reason : Budget.reason option;  (** why descent happened, if it did *)
}

type error =
  | Degraded of { reason : Budget.reason; retries : int }
      (** the budget expired and no rung produced an answer (or
          degradation was disabled by policy) *)
  | Unavailable of { error : exn; retries : int }
      (** a non-budget failure survived the retry allowance *)

val pp_error : Format.formatter -> error -> unit

(** The flight-recorder view of a finished ladder run, flattened from
    the [Ok]/[Error] shape in one place so the service layer and the
    server classify outcomes identically (see [Obs.Flightrec] retention
    and the [Obs.Events] query records). *)
type classification = {
  c_rung : string;
      (** {!rung_name} of the answering rung, or ["degraded"] /
          ["unavailable"] for the typed failures *)
  c_ok : bool;
  c_degraded : bool;  (** any outcome below an exact answer *)
  c_unavailable : bool;
  c_retries : int;
  c_trip : string option;  (** budget reason that tripped, if any *)
  c_gap : float option;
}

val classify : ('a answer, error) result -> classification

(** [certify_outcome ~certify outcome] re-checks the solution an outcome
    carries (feasibility, {e not} optimality — see {!Validate}): both
    [Optimal] and anytime [Feasible_best] answers pass through
    [certify], which raises on violation.  A certifier that answers
    [None] for a [Feasible_best] degrades it to [Exhausted]. *)
val certify_outcome :
  certify:('a option -> 'a option) -> 'a Anytime.outcome -> 'a Anytime.outcome

(** [run ?policy ?cancel ?submitted ~exact ~heuristic ()] walks the
    ladder.  Each attempt builds a fresh {!Budget.t} from [policy]
    (sharing [cancel] when given, so an external flag aborts whichever
    rung is running) and calls [exact]; its {!Anytime.outcome} selects
    the rung as described above.  The first attempt's deadline counts
    from [submitted] (a {!Budget.now_ns} instant; default: when the
    attempt starts), so a request that waited in a queue has spent that
    wait; retries count from their own start.  [heuristic] runs under
    its own fresh budget and only when [exact] was [Exhausted].
    Exceptions from either closure are classified: transient injected
    faults retry with backoff, the rest return {!Unavailable}. *)
val run :
  ?policy:policy ->
  ?cancel:bool Atomic.t ->
  ?submitted:int64 ->
  exact:(Budget.t -> 'a Anytime.outcome) ->
  heuristic:(Budget.t -> 'a option) ->
  unit ->
  ('a answer, error) result
