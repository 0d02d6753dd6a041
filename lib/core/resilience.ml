let log = Logs.Src.create "stgq.resilience" ~doc:"Degradation ladder"

module Log = (val Logs.src_log log)

type rung = Exact | Anytime_best | Heuristic

let rung_name = function
  | Exact -> "exact"
  | Anytime_best -> "anytime"
  | Heuristic -> "heuristic"

let pp_rung ppf r = Format.pp_print_string ppf (rung_name r)

type policy = {
  deadline_ms : float option;
  node_limit : int option;
  degrade : bool;
  max_retries : int;
  backoff_ms : float;
  seed : int;
}

let default_policy =
  {
    deadline_ms = None;
    node_limit = None;
    degrade = true;
    max_retries = 2;
    backoff_ms = 5.;
    seed = 0x5747;
  }

type 'a answer = {
  value : 'a option;
  rung : rung;
  gap : float option;
  retries : int;
  reason : Budget.reason option;
}

type error =
  | Degraded of { reason : Budget.reason; retries : int }
  | Unavailable of { error : exn; retries : int }

let pp_error ppf = function
  | Degraded { reason; retries } ->
      Format.fprintf ppf "degraded (budget %s, %d retries)"
        (Budget.reason_name reason) retries
  | Unavailable { error; retries } ->
      Format.fprintf ppf "unavailable (%s, %d retries)"
        (Printexc.to_string error) retries

(* --- outcome classification ---------------------------------------- *)

(* The flight-recorder view of a finished ladder run: which rung
   answered, whether the caller got less than exact, and why — the one
   place the Ok/Error shape is flattened for retention and the event
   log, so Service and the server classify identically. *)
type classification = {
  c_rung : string;  (* answering rung, or "unavailable" *)
  c_ok : bool;
  c_degraded : bool;  (* any outcome below an exact answer *)
  c_unavailable : bool;
  c_retries : int;
  c_trip : string option;  (* budget reason that tripped, if any *)
  c_gap : float option;
}

let classify (result : ('a answer, error) result) =
  match result with
  | Ok a ->
      {
        c_rung = rung_name a.rung;
        c_ok = true;
        c_degraded = a.rung <> Exact;
        c_unavailable = false;
        c_retries = a.retries;
        c_trip = Option.map Budget.reason_name a.reason;
        c_gap = a.gap;
      }
  | Error (Degraded { reason; retries }) ->
      {
        c_rung = "degraded";
        c_ok = false;
        c_degraded = true;
        c_unavailable = false;
        c_retries = retries;
        c_trip = Some (Budget.reason_name reason);
        c_gap = None;
      }
  | Error (Unavailable { error = _; retries }) ->
      {
        c_rung = "unavailable";
        c_ok = false;
        c_degraded = false;
        c_unavailable = true;
        c_retries = retries;
        c_trip = None;
        c_gap = None;
      }

(* --- metrics ------------------------------------------------------- *)

let m_deadline_hits = Obs.counter "service.deadline_hits"

let m_degraded = Obs.counter "service.degraded"

let m_retries = Obs.counter "service.retries"

let m_unavailable = Obs.counter "service.unavailable"

let h_exact = Obs.histogram "service.rung.exact.latency_ns"

let h_anytime = Obs.histogram "service.rung.anytime.latency_ns"

let h_heuristic = Obs.histogram "service.rung.heuristic.latency_ns"

let hist_of_rung = function
  | Exact -> h_exact
  | Anytime_best -> h_anytime
  | Heuristic -> h_heuristic

(* --- retry --------------------------------------------------------- *)

(* Deterministic jitter: a seeded splitmix step per attempt, so retry
   schedules are reproducible (no wall-clock, no global RNG). *)
let jitter ~seed ~attempt =
  let z = Int64.of_int (seed + (attempt * 0x9E3779B9)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  let u = Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992. in
  0.5 +. (u /. 2.)  (* in [0.5, 1.0): full backoff is the ceiling *)

let backoff_s policy ~attempt =
  let base = policy.backoff_ms *. (2. ** float_of_int attempt) /. 1000. in
  base *. jitter ~seed:policy.seed ~attempt

let is_transient = function
  | Faultinject.Injected_fault { transient; _ } -> transient
  | _ -> false

(* --- the ladder ---------------------------------------------------- *)

let budget_of policy ~cancel =
  match (policy.deadline_ms, policy.node_limit, cancel) with
  | None, None, None -> Budget.unlimited
  | deadline_ms, node_limit, cancel ->
      let deadline_ns =
        Option.map
          (fun ms ->
            Int64.add (Budget.now_ns ()) (Int64.of_float (ms *. 1e6)))
          deadline_ms
      in
      Budget.create ?deadline_ns ?node_limit ?cancel ()

let observe_rung rung ~t0 =
  let dt = Int64.to_float (Int64.sub (Budget.now_ns ()) t0) in
  Obs.Histogram.observe (hist_of_rung rung) dt

let count_reason = function
  | Some Budget.Deadline -> Obs.Counter.incr m_deadline_hits
  | Some Budget.Node_limit | Some Budget.Cancelled | None -> ()

let outcome_attr = function
  | Anytime.Optimal _ -> "optimal"
  | Anytime.Feasible_best _ -> "anytime"
  | Anytime.Exhausted _ -> "exhausted"

(* Run one rung inside its own span, tagging how it answered — so a
   trace shows which rung served the query and why the ladder moved. *)
let rung_span name outcome_of f =
  Obs.Trace.with_span name @@ fun () ->
  let result = f () in
  Obs.Trace.add_attrs [ ("outcome", outcome_of result) ];
  result

(* One pass down the ladder with a fresh budget; returns the result or
   lets the failure escape for [run] to retry or classify. *)
let descend policy ~cancel ~exact ~heuristic ~retries ~t0 =
  let budget = budget_of policy ~cancel in
  match rung_span "resilience.exact" outcome_attr (fun () -> exact budget) with
  | Anytime.Optimal value ->
      observe_rung Exact ~t0;
      Ok { value; rung = Exact; gap = Some 0.; retries; reason = None }
  | Anytime.Feasible_best { best; gap; reason } ->
      count_reason (Some reason);
      Obs.Counter.incr m_degraded;
      observe_rung Anytime_best ~t0;
      Ok
        {
          value = Some best;
          rung = Anytime_best;
          gap = Some gap;
          retries;
          reason = Some reason;
        }
  | Anytime.Exhausted reason -> (
      count_reason (Some reason);
      (* The budget expired before any incumbent: drop to the heuristic
         rung (its own small budget, so it cannot hang either). *)
      if not policy.degrade then begin
        Obs.Counter.incr m_degraded;
        Error (Degraded { reason; retries })
      end
      else
        let hb = budget_of policy ~cancel in
        match
          rung_span "resilience.heuristic"
            (function Some _ -> "answered" | None -> "empty")
            (fun () -> heuristic hb)
        with
        | Some v ->
            Obs.Counter.incr m_degraded;
            observe_rung Heuristic ~t0;
            Ok
              {
                value = Some v;
                rung = Heuristic;
                gap = None;
                retries;
                reason = Some reason;
              }
        | None ->
            Obs.Counter.incr m_degraded;
            Error (Degraded { reason; retries }))

let certify_outcome ~certify (outcome : 'a Anytime.outcome) =
  match outcome with
  | Anytime.Optimal v -> Anytime.Optimal (certify v)
  | Anytime.Feasible_best fb -> (
      match certify (Some fb.best) with
      | Some best -> Anytime.Feasible_best { fb with best }
      | None -> Anytime.Exhausted fb.reason)
  | Anytime.Exhausted _ as e -> e

(* Each attempt descends with fresh budgets; a transient fault retries
   after a jittered backoff, anything else surviving is [Unavailable]. *)
let run ?(policy = default_policy) ?cancel ~exact ~heuristic () =
  let rec attempt n =
    let t0 = Budget.now_ns () in
    match descend policy ~cancel ~exact ~heuristic ~retries:n ~t0 with
    | result -> result
    | exception e when is_transient e && n < policy.max_retries ->
        Obs.Counter.incr m_retries;
        let delay = backoff_s policy ~attempt:n in
        Log.info (fun m ->
            m "transient fault (%s); retry %d/%d after %.1f ms"
              (Printexc.to_string e) (n + 1) policy.max_retries (delay *. 1000.));
        Unix.sleepf delay;
        attempt (n + 1)
    | exception e ->
        Obs.Counter.incr m_unavailable;
        Error (Unavailable { error = e; retries = n })
  in
  attempt 0
