(* In-process replay of a plan's request stream against a Service set
   up like the server's, with the benchmark's own spans around every
   call into a layer's public functions.

   Service.sgq_r / stgq_r are opaque to spans recorded out here, so
   each query is followed by a second, decomposed call of the same
   request: Engine.Cache.context on a mirror cache (same graph, same
   calendars, same LRU capacity, same key sequence, hence the same
   hits and misses), then the kernel's solve_report, then
   Validate.certify_*.  The service layer's own cost is the service
   span minus that split. *)

open Stgq_core

let now = Wire.now
let ns_since = Wire.ns_since

(* The response the server would send for [req] — Listener.solve's
   mapping, trace id 0. *)
let of_error : Resilience.error -> Proto.response = function
  | Resilience.Degraded { reason; retries } ->
      Proto.Failed (Proto.Degraded { reason; retries })
  | Resilience.Unavailable { error; retries } ->
      Proto.Failed
        (Proto.Unavailable { message = Printexc.to_string error; retries })

let answer svc (req : Proto.request) : Proto.response =
  match
    match req with
    | Proto.Sgq { initiator; q; policy = _ } -> (
        match Service.sgq_r svc ~initiator q with
        | Ok a ->
            Proto.Sg_answer
              {
                value = a.Resilience.value;
                rung = a.rung;
                gap = a.gap;
                retries = a.retries;
                reason = a.reason;
                certified = true;
                trace_id = 0;
              }
        | Error e -> of_error e)
    | Proto.Stgq { initiator; q; policy = _ } -> (
        match Service.stgq_r svc ~initiator q with
        | Ok a ->
            Proto.Stg_answer
              {
                value = a.Resilience.value;
                rung = a.rung;
                gap = a.gap;
                retries = a.retries;
                reason = a.reason;
                certified = true;
                trace_id = 0;
              }
        | Error e -> of_error e)
    | Proto.Update_schedule _ | Proto.Hello _ | Proto.Ping _ ->
        invalid_arg "replay: not a query"
  with
  | r -> r
  | exception Invalid_argument message -> Proto.Failed (Proto.Bad_request { message })
  | exception e ->
      Proto.Failed (Proto.Unavailable { message = Printexc.to_string e; retries = 0 })

let zero_trace_id = function
  | Proto.Sg_answer a -> Proto.Sg_answer { a with trace_id = 0 }
  | Proto.Stg_answer a -> Proto.Stg_answer { a with trace_id = 0 }
  | r -> r

(* ------------------------------------------------------------------ *)
(* Environment: a service, its mirror cache, and (for hot's durable
   edits) a store configured like the server's. *)

type env = {
  svc : Service.t;
  mirror : Engine.Cache.t;
  graph : Socgraph.Graph.t;
  mirror_sched : Timetable.Availability.t array;
  pool : Engine.Pool.t option;  (** [None]: everything on one domain *)
  store : (Store.t * string) option;
  mutable generation : int;
}

let make_env ?pool ~store_dir ~checkpoint_bytes (state : Store.state) =
  let ti =
    {
      Query.social = { Query.graph = state.Store.graph; initiator = 0 };
      schedules = state.Store.schedules;
    }
  in
  let svc = Service.create ?pool ti in
  let mirror_sched = Array.map Timetable.Availability.copy state.Store.schedules in
  let mirror = Engine.Cache.create ~schedules:mirror_sched state.Store.graph in
  let store =
    Option.map
      (fun dir ->
        match
          Store.open_dir ~checkpoint_bytes ~init:(fun () -> Store.copy_state state) dir
        with
        | Ok (t, _) -> (t, dir)
        | Error e -> failwith (Store.string_of_error e))
      store_dir
  in
  { svc; mirror; graph = state.Store.graph; mirror_sched; pool; store; generation = 0 }

let close_env env = Option.iter (fun (s, _) -> Store.close s) env.store

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, one record per call, written out at the end. *)

type span = {
  rid : int;  (** request index in the stream *)
  name : string;
  parent : string;  (** "" for a root *)
  t0 : int64;
  t1 : int64;
}

type tracer = { mutable spans : span list; on : bool }

let with_span tr ~rid ~parent name f =
  if not tr.on then f ()
  else begin
    let t0 = now () in
    let r = f () in
    tr.spans <- { rid; name; parent; t0; t1 = now () } :: tr.spans;
    r
  end

let dur s = Int64.to_float (Int64.sub s.t1 s.t0)

(* ------------------------------------------------------------------ *)
(* Work counts, identical across replays of one seed. *)

type counts = {
  mutable queries : int;
  mutable edits : int;
  mutable nodes : int;
  mutable examined : int;  (* SGQ candidates examined *)
  mutable pruned : int;  (* of which pruned *)
  mutable builds : int;
  mutable build_ns : float;  (* lookup time of the lookups that built *)
  mutable feasible : int;  (* summed |V_F| over lookups *)
  mutable bytes : int;  (* request + response frame bytes *)
  mutable wal_bytes : int;
  mutable snapshot_bytes : int;
  mutable checkpoints : int;
  mutable appends : int;
  mutable emits : int;
  mutable calendar_bytes : int;
}

let fresh_counts () =
  {
    queries = 0; edits = 0; nodes = 0; examined = 0; pruned = 0; builds = 0;
    build_ns = 0.; feasible = 0; bytes = 0; wal_bytes = 0; snapshot_bytes = 0;
    checkpoints = 0; appends = 0; emits = 0; calendar_bytes = 0;
  }

(* Listener.durable_update_schedule, step by step: journal, event,
   apply, checkpoint when the log outgrew its threshold. *)
let durable_update env tr c ~rid ~vertex avail =
  let span name f = with_span tr ~rid ~parent:"request" name f in
  (match env.store with
  | None -> ()
  | Some (store, _) ->
      let w0 = Store.wal_bytes store in
      span "store.append" (fun () ->
          Store.append store (Store.Schedule_set { vertex; avail }));
      c.appends <- c.appends + 1;
      c.wal_bytes <- c.wal_bytes + (Store.wal_bytes store - w0);
      if Obs.Events.enabled () then begin
        span "obs.event_emit" (fun () ->
            Obs.Events.emit ~kind:"schedule.update"
              [ ("vertex", string_of_int vertex) ]);
        c.emits <- c.emits + 1
      end);
  span "service.update_schedule" (fun () ->
      Service.update_schedule env.svc ~vertex avail);
  match env.store with
  | Some (store, dir) when Store.should_checkpoint store ->
      span "store.checkpoint" (fun () ->
          Store.checkpoint store
            (Store.state_of_instance (Service.graph env.svc)
               (Service.schedules env.svc)));
      env.generation <- env.generation + 1;
      c.checkpoints <- c.checkpoints + 1;
      c.snapshot_bytes <-
        c.snapshot_bytes
        + (Unix.stat (Store.snapshot_path ~dir ~gen:env.generation)).Unix.st_size
  | _ -> ()

let decompose env tr c ~rid (req : Proto.request) =
  let span name f = with_span tr ~rid ~parent:"decompose" name f in
  let lookup ~initiator ~s =
    let m0 = (Engine.Cache.stats env.mirror).Engine.Cache.misses in
    let t0 = now () in
    let ctx = span "cache.lookup" (fun () -> Engine.Cache.context env.mirror ~initiator ~s) in
    if (Engine.Cache.stats env.mirror).Engine.Cache.misses > m0 then begin
      c.builds <- c.builds + 1;
      c.build_ns <- c.build_ns +. ns_since t0
    end;
    c.feasible <- c.feasible + Array.length ctx.Engine.Context.fg.Engine.Feasible.of_sub;
    ctx
  in
  match req with
  | Proto.Sgq { initiator; q; _ } ->
      with_span tr ~rid ~parent:"" "decompose" @@ fun () ->
      let ctx = lookup ~initiator ~s:q.Query.s in
      let instance = { Query.graph = env.graph; initiator } in
      let r =
        span "kernel.sgq_solve" (fun () -> Sgselect.solve_report ~ctx instance q)
      in
      let st = r.Sgselect.stats in
      c.nodes <- c.nodes + st.Search_core.nodes;
      c.examined <- c.examined + st.Search_core.examined;
      c.pruned <-
        c.pruned + st.Search_core.pruned_distance
        + st.Search_core.pruned_acquaintance + st.Search_core.pruned_availability;
      ignore
        (span "certify" (fun () -> Validate.certify_sg instance q r.Sgselect.solution)
          : Query.sg_solution option)
  | Proto.Stgq { initiator; q; _ } ->
      with_span tr ~rid ~parent:"" "decompose" @@ fun () ->
      let ctx = lookup ~initiator ~s:q.Query.s in
      let ti =
        {
          Query.social = { Query.graph = env.graph; initiator };
          schedules = env.mirror_sched;
        }
      in
      let solution =
        span "kernel.stgq_solve" (fun () ->
            match env.pool with
            | Some pool ->
                let r = Parallel.solve_report ~pool ~ctx ti q in
                c.nodes <- c.nodes + r.Parallel.total_nodes;
                r.Parallel.solution
            | None ->
                let r = Stgselect.solve_report ~ctx ti q in
                c.nodes <- c.nodes + r.Stgselect.stats.Search_core.nodes;
                r.Stgselect.solution)
      in
      ignore
        (span "certify" (fun () -> Validate.certify_stg ti q solution)
          : Query.stg_solution option)
  | Proto.Update_schedule { vertex; avail } ->
      Engine.Cache.set_schedule env.mirror ~vertex avail
  | Proto.Hello _ | Proto.Ping _ -> ()

type result = {
  answers : Proto.response array;
  request_ns : float array;  (* in-process time of each request *)
  service_ns : float array;  (* its Service call alone *)
  counts : counts;
  spans : span list;
  hits : int;
  misses : int;
  alloc_words : float;  (* allocated on the replaying domain *)
  major_gcs : int;
}

(* [run ~traced env reqs] replays [reqs] in order.  Each request goes
   encode -> decode -> Service -> encode -> decode: the server's work
   and the client's codec, without the socket.  [traced] records spans
   and adds the decomposed call after each query. *)
let run ~traced env reqs =
  let tr = { spans = []; on = traced } in
  let c = fresh_counts () in
  let n = Array.length reqs in
  let answers = Array.make n (Proto.Pong "") in
  let request_ns = Array.make n 0. in
  let service_ns = Array.make n 0. in
  let st0 = Service.cache_stats env.svc in
  (* Gc.minor_words is exact; the minor figure of Gc.counters lags
     between minor collections on OCaml 5.1 *)
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let gcs0 = (Gc.quick_stat ()).Gc.major_collections in
  Array.iteri
    (fun rid req ->
      let span name f = with_span tr ~rid ~parent:"request" name f in
      let t0 = now () in
      let resp =
        with_span tr ~rid ~parent:"" "request" @@ fun () ->
        let frame = span "proto.encode_request" (fun () -> Proto.encode_request req) in
        let req =
          match span "proto.decode_request" (fun () -> Proto.decode_request frame) with
          | Ok r -> r
          | Error e -> failwith (Proto.string_of_decode_error e)
        in
        let s0 = now () in
        let resp =
          match req with
          | Proto.Update_schedule { vertex; avail } -> (
              c.edits <- c.edits + 1;
              c.calendar_bytes <-
                c.calendar_bytes + ((Timetable.Availability.horizon avail + 7) / 8);
              match durable_update env tr c ~rid ~vertex avail with
              | () -> Proto.Updated { vertex }
              | exception Invalid_argument message ->
                  Proto.Failed (Proto.Bad_request { message }))
          | _ ->
              c.queries <- c.queries + 1;
              span "service.request" (fun () -> answer env.svc req)
        in
        service_ns.(rid) <- ns_since s0;
        let rframe = span "proto.encode_response" (fun () -> Proto.encode_response resp) in
        (match span "proto.decode_response" (fun () -> Proto.decode_response rframe) with
        | Ok _ -> ()
        | Error e -> failwith (Proto.string_of_decode_error e));
        c.bytes <- c.bytes + String.length frame + String.length rframe;
        resp
      in
      request_ns.(rid) <- ns_since t0;
      answers.(rid) <- resp;
      if traced then decompose env tr c ~rid req)
    reqs;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let st1 = Service.cache_stats env.svc in
  {
    answers;
    request_ns;
    service_ns;
    counts = c;
    spans = tr.spans;
    hits = st1.Service.hits - st0.Service.hits;
    misses = st1.Service.misses - st0.Service.misses;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
    major_gcs = (Gc.quick_stat ()).Gc.major_collections - gcs0;
  }

(* Untimed warm-up: the server's working set before its measured phase. *)
let warm env reqs =
  Array.iter (fun r -> ignore (answer env.svc r : Proto.response)) reqs;
  Array.iter (fun r -> decompose env { spans = []; on = false } (fresh_counts ()) ~rid:0 r) reqs
