let log = Logs.Src.create "stgq.engine.cache" ~doc:"Keyed context cache"

module Log = (val Logs.src_log log)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

(* Registered metrics mirror the per-cache [stats] record so fleet-wide
   totals are readable without a handle on any particular cache. *)
let m_lookups = Obs.counter "engine.cache.lookups"

let m_hits = Obs.counter "engine.cache.hits"

let m_misses = Obs.counter "engine.cache.misses"

let m_evictions = Obs.counter "engine.cache.evictions"

let m_entries = Obs.gauge "engine.cache.entries"

let m_epoch = Obs.gauge "engine.cache.epoch"

(* Intrusive doubly-linked recency list: most recent at [head], eviction
   victim at [tail].  Every operation is O(1), unlike the seed service's
   [List.filter]-per-access ordering. *)
type node = {
  key : int * int;
  ctx : Context.t;
  mutable prev : node option;
  mutable next : node option;
}

type world = {
  graph : Socgraph.Graph.t;
  schedules : Timetable.Availability.t array;
  epoch : int;
}

(* The mutable table fields and the publication of [world] are guarded
   by [lock]; [world] itself is read without it.  A miss releases the
   lock for its [Context.build], whose cost grows with the s-hop ball
   and so with the client's s, so a cold key holds up no other lookup
   or edit. *)
type t = {
  capacity : int;
  world : world Atomic.t;
  table : (int * int, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
}

let create ?(capacity = 64) ?schedules graph =
  if capacity < 1 then invalid_arg "Engine.Cache.create: capacity must be >= 1";
  let schedules =
    match schedules with
    | None -> [||]
    | Some a ->
        (* The one O(n) horizon pass: [set_schedule] checks each edit and
           a solver only the ball it reads. *)
        Timetable.Availability.check_schedules ~n:(Socgraph.Graph.n_vertices graph) a;
        a
  in
  {
    capacity;
    world = Atomic.make { graph; schedules; epoch = 0 };
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
  }

let world t = Atomic.get t.world

let graph t = (world t).graph

let epoch t = (world t).epoch

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some q -> q.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some victim ->
      unlink t victim;
      Hashtbl.remove t.table victim.key;
      t.evictions <- t.evictions + 1;
      Obs.Counter.incr m_evictions;
      Log.debug (fun m ->
          let q, s = victim.key in
          m "evicted context (q=%d, s=%d)" q s)

(* Called with [t.lock] held; returns with it held. *)
let insert t key ctx =
  if Hashtbl.length t.table >= t.capacity then evict_lru t;
  let n = { key; ctx; prev = None; next = None } in
  Hashtbl.replace t.table key n;
  push_front t n;
  Obs.Gauge.set m_entries (Hashtbl.length t.table)

type lookup = { ctx : Context.t; hit : bool }

let lookup t (w : world) ~initiator ~s =
  let key = (initiator, s) in
  Obs.Counter.incr m_lookups;
  let cached =
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.table key with
    | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Some n.ctx
    | None ->
        (* Counted before the build, so a build that raises still counts
           its miss; it inserts nothing. *)
        t.misses <- t.misses + 1;
        None
  in
  match cached with
  | Some ctx ->
      Obs.Counter.incr m_hits;
      Obs.Trace.add_attrs [ ("context.cache", "hit") ];
      Log.debug (fun m -> m "context cache hit for (q=%d, s=%d)" initiator s);
      { ctx; hit = true }
  | None ->
      Obs.Counter.incr m_misses;
      Obs.Trace.add_attrs [ ("context.cache", "miss") ];
      Log.debug (fun m -> m "context cache miss for (q=%d, s=%d)" initiator s);
      let ctx = Context.build w.graph ~initiator ~s in
      (* Another miss on the key may have inserted first; then this
         context answers its caller only. *)
      Mutex.protect t.lock (fun () ->
          if not (Hashtbl.mem t.table key) then insert t key ctx);
      { ctx; hit = false }

let context t ~initiator ~s = (lookup t (world t) ~initiator ~s).ctx

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
      })

let set_schedule t ~vertex schedule =
  (* Copied first, so the caller keeps no handle on the published one. *)
  let schedule = Timetable.Availability.copy schedule in
  (* Under [t.lock], so two edits cannot lose one another. *)
  Mutex.protect t.lock (fun () ->
      let w = world t in
      if Array.length w.schedules = 0 then
        invalid_arg "Engine.Cache.set_schedule: cache has no schedules";
      if vertex < 0 || vertex >= Array.length w.schedules then
        invalid_arg "Engine.Cache.set_schedule: vertex out of range";
      if
        Timetable.Availability.horizon schedule
        <> Timetable.Availability.horizon w.schedules.(vertex)
      then invalid_arg "Engine.Cache.set_schedule: horizon mismatch";
      let schedules = Array.copy w.schedules in
      schedules.(vertex) <- schedule;
      let epoch = w.epoch + 1 in
      Atomic.set t.world { w with schedules; epoch };
      Obs.Gauge.set m_epoch epoch)
