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

(* All mutable fields are guarded by [lock].  A miss releases it for its
   [Context.build], whose cost grows with the s-hop ball and so with the
   client's s, so a cold key holds up no other lookup or region.
   [solvers]/[writers]/[solver_done] are a writer-preferring
   readers-writer discipline: {!with_solves} regions run concurrently
   with each other, {!set_schedule}/{!set_graph} wait for the region
   count to drain so an edit never lands mid-solve, and while any edit
   waits ([writers > 0]) no new region opens, so a steady stream of
   overlapping regions cannot starve it. *)
type t = {
  capacity : int;
  schedules : Timetable.Availability.t array option;
  mutable graph : Socgraph.Graph.t;
  mutable epoch : int;  (* bumped by every mutation *)
  table : (int * int, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  lock : Mutex.t;
  mutable solvers : int;
  mutable writers : int;  (* edits waiting in [wait_no_solves] *)
  solver_done : Condition.t;
}

let create ?(capacity = 64) ?schedules graph =
  if capacity < 1 then invalid_arg "Engine.Cache.create: capacity must be >= 1";
  (match schedules with
  | Some a when Array.length a <> Socgraph.Graph.n_vertices graph ->
      invalid_arg "Engine.Cache.create: need one schedule per vertex"
  | Some a ->
      (* The one O(n) horizon pass: [set_schedule] checks each edit and
         [Context.build] only the ball it reads. *)
      Array.iter
        (fun s ->
          if Timetable.Availability.horizon s <> Timetable.Availability.horizon a.(0)
          then invalid_arg "Engine.Cache.create: schedules disagree on horizon")
        a
  | None -> ());
  {
    capacity;
    schedules;
    graph;
    epoch = 0;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    lock = Mutex.create ();
    solvers = 0;
    writers = 0;
    solver_done = Condition.create ();
  }

let graph t = Mutex.protect t.lock (fun () -> t.graph)

let epoch t = Mutex.protect t.lock (fun () -> t.epoch)

(* Called with [t.lock] held. *)
let bump_epoch_locked t =
  t.epoch <- t.epoch + 1;
  Obs.Gauge.set m_epoch t.epoch

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

let lookup t ~initiator ~s =
  let key = (initiator, s) in
  Obs.Counter.incr m_lookups;
  let cached =
    Mutex.protect t.lock @@ fun () ->
    match Hashtbl.find_opt t.table key with
    | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Either.Left n.ctx
    | None ->
        (* Counted before the build, so a build that raises still counts
           its miss; it inserts nothing. *)
        t.misses <- t.misses + 1;
        Either.Right t.graph
  in
  match cached with
  | Left ctx ->
      Obs.Counter.incr m_hits;
      Obs.Trace.add_attrs [ ("context.cache", "hit") ];
      Log.debug (fun m -> m "context cache hit for (q=%d, s=%d)" initiator s);
      { ctx; hit = true }
  | Right graph ->
      Obs.Counter.incr m_misses;
      Obs.Trace.add_attrs [ ("context.cache", "miss") ];
      Log.debug (fun m -> m "context cache miss for (q=%d, s=%d)" initiator s);
      let ctx = Context.build ?schedules:t.schedules graph ~initiator ~s in
      (* Another miss on the key may have inserted first, and a graph
         swap since the read above makes this context stale: either way
         it answers this caller only.  The graph is compared by
         identity: the one this build read, or one swapped in since. *)
      Mutex.protect t.lock (fun () ->
          (* lint: allow phys-eq *)
          if t.graph == graph && not (Hashtbl.mem t.table key) then
            insert t key ctx);
      { ctx; hit = false }

let context t ~initiator ~s = (lookup t ~initiator ~s).ctx

let with_solves t f =
  Mutex.protect t.lock (fun () ->
      while t.writers > 0 do
        Condition.wait t.solver_done t.lock
      done;
      t.solvers <- t.solvers + 1);
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          t.solvers <- t.solvers - 1;
          if t.solvers = 0 then Condition.broadcast t.solver_done))
    f

(* Called with [t.lock] held; returns with it held and [t.solvers = 0].
   Writers drain the readers, so an edit lands only between
   {!with_solves} regions, never inside one; the waiting edit holds new
   regions back until the last waiting edit is through. *)
let wait_no_solves t =
  t.writers <- t.writers + 1;
  while t.solvers > 0 do
    Condition.wait t.solver_done t.lock
  done;
  t.writers <- t.writers - 1;
  if t.writers = 0 then Condition.broadcast t.solver_done

let stats t =
  Mutex.protect t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
      })

let set_graph t graph =
  if Socgraph.Graph.n_vertices graph <> Socgraph.Graph.n_vertices t.graph then
    invalid_arg "Engine.Cache.set_graph: vertex count changed";
  Mutex.protect t.lock (fun () ->
      wait_no_solves t;
      t.graph <- graph;
      bump_epoch_locked t;
      (* Every context embeds distances derived from the old edges. *)
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      Obs.Gauge.set m_entries 0)

let set_schedule t ~vertex schedule =
  match t.schedules with
  | None -> invalid_arg "Engine.Cache.set_schedule: cache has no schedules"
  | Some schedules ->
      if vertex < 0 || vertex >= Array.length schedules then
        invalid_arg "Engine.Cache.set_schedule: vertex out of range";
      let installed = schedules.(vertex) in
      if
        Timetable.Availability.horizon schedule
        <> Timetable.Availability.horizon installed
      then invalid_arg "Engine.Cache.set_schedule: horizon mismatch";
      (* Rewrite the installed calendar's bits in place: cached contexts
         alias the Availability objects, so they observe the update
         without any invalidation.  Snapshot first in case the caller
         passed the installed object itself.  The rewrite waits out any
         {!with_solves} region, so a solve never reads a half-edited
         calendar. *)
      let snapshot = Bitset.copy (Timetable.Availability.bits schedule) in
      Mutex.protect t.lock (fun () ->
          wait_no_solves t;
          bump_epoch_locked t;
          let bits_old = Timetable.Availability.bits installed in
          Bitset.fill bits_old false;
          Bitset.iter (fun slot -> Bitset.set bits_old slot) snapshot)
