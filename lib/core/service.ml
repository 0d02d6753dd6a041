type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

type t = {
  config : Search_core.config;
  engine : Engine.Cache.t;
  pool : Engine.Pool.t option;
}

(* [Engine.Cache.create] checks the capacity and the calendars. *)
let create ?(config = Search_core.default_config) ?(cache_capacity = 64) ?pool
    (ti : Query.temporal_instance) =
  let schedules = Array.map Timetable.Availability.copy ti.schedules in
  let engine =
    Engine.Cache.create ~capacity:cache_capacity ~schedules ti.social.Query.graph
  in
  { config; engine; pool }

let n_vertices t = Socgraph.Graph.n_vertices (Engine.Cache.graph t.engine)

let check_initiator (world : Engine.Cache.world) initiator =
  let n = Socgraph.Graph.n_vertices world.graph in
  if initiator < 0 || initiator >= n then
    invalid_arg
      (Printf.sprintf "initiator %d out of range (dataset has %d members)"
         initiator n)

(* --- query kinds -----------------------------------------------------

   Everything the request path needs to know about SGQ or STGQ — how to
   check it, log it, build its instance, solve it exactly or by beam
   and certify it — so the ladder, the spans and the publication below
   are written once for both.  Every answer leaves the service with a
   validated certificate: the solution is re-checked against the raw
   instance by Validate (which shares no code with the search) before a
   caller can see it. *)

type ('q, 'inst, 'sol) kind = {
  name : string;
  span : string;
  latency : Obs.Histogram.t;
  check : 'q -> unit;
  params : 'q -> (string * int) list;
  radius : 'q -> int;
  instance : Engine.Cache.world -> initiator:int -> 'inst;
  exact :
    t -> ctx:Engine.Context.t -> budget:Budget.t -> 'inst -> 'q ->
    'sol Anytime.outcome;
  beam : ctx:Engine.Context.t -> budget:Budget.t -> 'inst -> 'q -> 'sol option;
  certify : 'inst -> 'q -> 'sol option -> 'sol option;
}

let sg =
  {
    name = "sgq";
    span = "service.sgq";
    latency = Instr.sgq_latency;
    check = Query.check_sgq;
    params = (fun (q : Query.sgq) -> [ ("p", q.p); ("s", q.s); ("k", q.k) ]);
    radius = (fun (q : Query.sgq) -> q.s);
    instance = (fun world ~initiator -> { Query.graph = world.graph; initiator });
    exact =
      (fun t ~ctx ~budget instance q ->
        (Sgselect.solve_report ~config:t.config ~ctx ~budget instance q)
          .Sgselect.outcome);
    beam = (fun ~ctx ~budget instance q -> Heuristics.beam_sgq ~ctx ~budget instance q);
    certify = Validate.certify_sg;
  }

let stg =
  {
    name = "stgq";
    span = "service.stgq";
    latency = Instr.stgq_latency;
    check = Query.check_stgq;
    params =
      (fun (q : Query.stgq) -> [ ("p", q.p); ("s", q.s); ("k", q.k); ("m", q.m) ]);
    radius = (fun (q : Query.stgq) -> q.s);
    instance =
      (fun world ~initiator ->
        {
          Query.social = { Query.graph = world.graph; initiator };
          schedules = world.schedules;
        });
    exact =
      (fun t ~ctx ~budget ti q ->
        (Stgselect.solve_report ~config:t.config ~ctx ~budget ti q)
          .Stgselect.outcome);
    beam = (fun ~ctx ~budget ti q -> Heuristics.beam_stgq ~ctx ~budget ti q);
    certify = Validate.certify_stg;
  }

(* --- flight-recorder publication ------------------------------------

   Every completed query reports its outcome once: to {!Obs.Flightrec}
   (which decides whether the stitched trace is worth retaining) and to
   {!Obs.Events} (one JSONL record).  Costs two atomic loads per query
   while both sinks are off. *)

let plane_on () = Obs.Flightrec.enabled () || Obs.Events.enabled ()

let current_trace_id () =
  match Obs.Trace.current () with
  | Some c -> c.Obs.Trace.trace_id
  | None -> 0

let publish ~kind ~initiator ~params ~trace_id ~latency_ns ~cache_hit
    (c : Resilience.classification) =
  Obs.Flightrec.observe ~trace_id ~kind ~latency_ns
    ~degraded:c.Resilience.c_degraded ~unavailable:c.c_unavailable
    ~retries:c.c_retries ?trip:c.c_trip ();
  Obs.Events.query_completed ~trace_id ~kind ~initiator ~params
    ~rung:c.c_rung
    ~outcome:
      (if c.c_ok then "ok"
       else if c.c_unavailable then "unavailable"
       else "degraded")
    ?gap:c.c_gap ?trip:c.c_trip ~retries:c.c_retries ~latency_ns ~cache_hit
    ~journalled_bytes:0 ()

(* --- the request path -------------------------------------------------

   [request] answers one query.  It opens the [service.<kind>] root span
   (every solver, context-build and certify span below it stitches into
   one tree) and walks the {!Resilience} ladder: the exact rung, the
   anytime incumbent with its gap, then a budgeted beam — each rung's
   answer certified under a [service.certify] span.  With the root span
   closed, so the tree is complete, it classifies and publishes the
   outcome once.

   The request reads the cache's world once, on entry, and answers
   wholly against it: the initiator check, the instance, every lookup,
   solve, retry and certificate.  Worlds are immutable, so an edit that
   lands meanwhile publishes a new world without waiting and shows in
   the next request, never between a solve and its certificate.  Each
   rung looks the context up in the cache, so a faulted build is
   retried; the query event's [cache_hit] is the outcome of the first
   lookup that returned.

   [submitted] is set when the request waited in the pool's queue: the
   wait is recorded, the first attempt's deadline counts from
   submission, so queueing spends the budget, and the service latency
   ([service.<kind>.latency_ns], and the [latency_ns] published to the
   flight recorder and the event log) runs from submission too, so it
   is the latency the caller sees. *)

let queue_wait = Obs.histogram "service.queue_wait_ns"

let waited_ns submitted =
  let waited = Int64.to_float (Int64.sub (Budget.now_ns ()) submitted) in
  Obs.Histogram.observe queue_wait waited;
  waited

let request kind ?policy ?cancel ?submitted t ~initiator q =
  let hit = ref None in
  let answer () =
    let world = Engine.Cache.world t.engine in
    kind.check q;
    check_initiator world initiator;
    let instance = kind.instance world ~initiator in
    let context () =
      let found =
        Engine.Cache.lookup t.engine world ~initiator ~s:(kind.radius q)
      in
      if Option.is_none !hit then hit := Some found.hit;
      found.ctx
    in
    let certify solution =
      Obs.Trace.with_span "service.certify" @@ fun () ->
      Obs.time_hist Instr.certify_latency @@ fun () ->
      kind.certify instance q solution
    in
    Resilience.run ?policy ?cancel ?submitted
      ~exact:(fun budget ->
        Resilience.certify_outcome ~certify
          (kind.exact t ~ctx:(context ()) ~budget instance q))
      ~heuristic:(fun budget ->
        certify (kind.beam ~ctx:(context ()) ~budget instance q))
      ()
  in
  let waited = Option.map waited_ns submitted in
  let attrs =
    ("initiator", string_of_int initiator)
    :: Option.to_list
         (Option.map
            (fun w -> ("queue_wait_us", Printf.sprintf "%.1f" (w /. 1e3)))
            waited)
  in
  if not (Obs.enabled () || plane_on ()) then
    Obs.Trace.with_span kind.span ~attrs answer
  else begin
    let t0 = Obs.now_ns () -. Option.value waited ~default:0. in
    let latency () =
      let ns = Obs.now_ns () -. t0 in
      Obs.Histogram.observe kind.latency ns;
      ns
    in
    let trace_id = ref 0 in
    let result =
      match
        Obs.Trace.with_span kind.span ~attrs (fun () ->
            trace_id := current_trace_id ();
            answer ())
      with
      | result -> result
      | exception e ->
          ignore (latency () : float);
          raise e
    in
    let latency_ns = latency () in
    if plane_on () then
      publish ~kind:kind.name ~initiator ~params:(kind.params q)
        ~trace_id:!trace_id ~latency_ns ~cache_hit:(!hit = Some true)
        (Resilience.classify result);
    result
  end

(* With a pool, the whole request is one job on one worker domain; the
   caller, typically a connection thread, blocks on its future. *)
let serve kind ?policy ?cancel t ~initiator q =
  match t.pool with
  | None -> request kind ?policy ?cancel t ~initiator q
  | Some pool ->
      let submitted = Budget.now_ns () in
      Engine.Pool.await
        (Engine.Pool.submit pool (fun () ->
             request kind ?policy ?cancel ~submitted t ~initiator q))

let sgq_r ?policy ?cancel t ~initiator q = serve sg ?policy ?cancel t ~initiator q

let stgq_r ?policy ?cancel t ~initiator q = serve stg ?policy ?cancel t ~initiator q

let cache_stats t =
  let s = Engine.Cache.stats t.engine in
  {
    hits = s.Engine.Cache.hits;
    misses = s.Engine.Cache.misses;
    evictions = s.Engine.Cache.evictions;
    entries = s.Engine.Cache.entries;
  }

let horizon t =
  let schedules = (Engine.Cache.world t.engine).schedules in
  if Array.length schedules = 0 then 0
  else Timetable.Availability.horizon schedules.(0)

let graph t = Engine.Cache.graph t.engine

let schedules t =
  Array.map Timetable.Availability.copy (Engine.Cache.world t.engine).schedules

let update_graph t graph = Engine.Cache.set_graph t.engine graph

let update_schedule t ~vertex schedule =
  Engine.Cache.set_schedule t.engine ~vertex schedule
