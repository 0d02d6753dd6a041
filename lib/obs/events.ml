(* lint: allow-file toplevel-state *)
(* Structured JSONL event log: one record per completed query plus
   server-lifecycle, shedding, pool-respawn and store-checkpoint
   records.  Records always land in a fixed-size in-memory ring (the
   [/events/tail] source); when a directory is configured they are also
   appended to [events.jsonl] with size-capped rotation.

   Rotation follows the lib/store durability discipline at the file
   level: the active file is fsynced, renamed to its generation slot
   ([events-NNNNNN.jsonl]) and the directory is fsynced, so a crash
   leaves either the old active file or a fully-published generation,
   never a half-renamed log.  Every record is fsynced before [emit]
   returns. *)

(* Domain-safety contract for the typed analysis: all mutable state
   below is guarded by [lock]; cross-domain access is by design. *)
[@@@lint.domain_safe]

type sink = {
  dir : string;
  max_bytes : int;
  generations : int;
  mutable fd : Unix.file_descr option;
  mutable bytes : int;  (* written to the active file *)
  mutable gen : int;  (* next generation number to publish *)
}

type t = {
  lock : Mutex.t;
  ring : string option array;
  mutable next : int;
  mutable sink : sink option;
}

let ring_capacity = 1024

let state =
  {
    lock = Mutex.create ();
    ring = Array.make ring_capacity None;
    next = 0;
    sink = None;
  }

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* Totals are own atomics (not registry counters) so the event log
   counts even when the metric registry is off; a counter source merges
   them into every snapshot, like Trace does. *)
let emitted_total = Atomic.make 0

let dropped_total = Atomic.make 0

let rotations_total = Atomic.make 0

let h_fsync = Registry.histogram "obs.events.fsync_ns"

let active_path dir = Filename.concat dir "events.jsonl"

let generation_path dir gen = Filename.concat dir (Printf.sprintf "events-%06d.jsonl" gen)

let fsync_timed fd =
  let t0 = Registry.now_ns () in
  Unix.fsync fd;
  Registry.Histogram.observe h_fsync (Registry.now_ns () -. t0)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dirfd ->
      let sync () = try Unix.fsync dirfd with Unix.Unix_error _ -> () in
      sync ();
      Unix.close dirfd
  | exception Unix.Unix_error _ -> ()

let open_active dir =
  Unix.openfile (active_path dir)
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
    0o644

let close_sink sink =
  match sink.fd with
  | None -> ()
  | Some fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      sink.fd <- None

(* Publish the active file as the next generation and start a fresh
   one.  fsync -> rename -> fsync(dir): a crash at any point leaves
   either the old active file or the published generation. *)
let rotate sink =
  (match sink.fd with
  | Some fd ->
      fsync_timed fd;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  sink.fd <- None;
  (try Unix.rename (active_path sink.dir) (generation_path sink.dir sink.gen)
   with Unix.Unix_error _ -> ());
  fsync_dir sink.dir;
  (* Drop generations beyond the retention cap, oldest first. *)
  let doomed = sink.gen - sink.generations in
  if doomed >= 0 then
    (try Unix.unlink (generation_path sink.dir doomed)
     with Unix.Unix_error _ -> ());
  sink.gen <- sink.gen + 1;
  sink.bytes <- 0;
  Atomic.incr rotations_total

let write_line sink line =
  let fd = match sink.fd with Some fd -> fd | None -> let fd = open_active sink.dir in sink.fd <- Some fd; fd in
  let bytes = Bytes.of_string line in
  let rec write_all off len =
    if len > 0 then begin
      let w = Unix.write fd bytes off len in
      write_all (off + w) (len - w)
    end
  in
  write_all 0 (Bytes.length bytes);
  sink.bytes <- sink.bytes + Bytes.length bytes;
  fsync_timed fd;
  if sink.bytes >= sink.max_bytes then rotate sink

let configure ?dir ?(max_bytes = 1 lsl 20) ?(generations = 4) () =
  Mutex.lock state.lock;
  (match state.sink with Some s -> close_sink s | None -> ());
  state.sink <-
    Option.map
      (fun dir ->
        { dir; max_bytes; generations; fd = None; bytes = 0; gen = 0 })
      dir;
  Mutex.unlock state.lock;
  set_enabled true

let stop () =
  Mutex.lock state.lock;
  (match state.sink with Some s -> close_sink s | None -> ());
  state.sink <- None;
  Mutex.unlock state.lock;
  set_enabled false

(* One JSONL record.  [fields] values are pre-rendered JSON (the
   Registry.json_object convention); the timestamp and kind are
   prepended so every record is self-describing. *)
let emit ~kind fields =
  if Atomic.get enabled_flag then begin
    let line =
      Registry.json_object
        (("ts_ns", Printf.sprintf "%.0f" (Registry.now_ns ()))
         :: ("event", "\"" ^ Registry.json_escape kind ^ "\"")
         :: fields)
      ^ "\n"
    in
    Mutex.lock state.lock;
    (match state.ring.(state.next) with
    | Some _ -> Atomic.incr dropped_total
    | None -> ());
    state.ring.(state.next) <- Some line;
    state.next <- (state.next + 1) mod ring_capacity;
    Atomic.incr emitted_total;
    (match state.sink with
    | Some sink -> (
        match write_line sink line with
        | () -> ()
        | exception Unix.Unix_error _ ->
            (* A failing disk must never fail the query path; the ring
               still holds the record. *)
            close_sink sink)
    | None -> ());
    Mutex.unlock state.lock
  end

let str v = "\"" ^ Registry.json_escape v ^ "\""

let query_completed ~trace_id ~kind ~initiator ~params ~rung ~outcome ?gap
    ?trip ~retries ~latency_ns ~cache_hit ~journalled_bytes () =
  emit ~kind:"query"
    ([
       ("trace_id", string_of_int trace_id);
       ("kind", str kind);
       ("initiator", string_of_int initiator);
     ]
    @ List.map (fun (k, v) -> (k, string_of_int v)) params
    @ [
        ("rung", str rung);
        ("outcome", str outcome);
      ]
    @ (match gap with Some g -> [ ("gap", Printf.sprintf "%g" g) ] | None -> [])
    @ (match trip with Some t -> [ ("trip", str t) ] | None -> [])
    @ [
        ("retries", string_of_int retries);
        ("latency_ns", Printf.sprintf "%.0f" latency_ns);
        ("cache_hit", string_of_bool cache_hit);
        ("journalled_bytes", string_of_int journalled_bytes);
      ])

(* Newest-last, at most [n] records. *)
let tail n =
  Mutex.lock state.lock;
  let out = ref [] in
  (* Walk newest-to-oldest from just behind the cursor, collecting at
     most [n]; the accumulator restores oldest-first order. *)
  let i = ref ((state.next + ring_capacity - 1) mod ring_capacity) in
  let remaining = ref (Stdlib.min n ring_capacity) in
  let scanned = ref 0 in
  while !remaining > 0 && !scanned < ring_capacity do
    (match state.ring.(!i) with
    | Some line ->
        out := line :: !out;
        Stdlib.decr remaining
    | None -> ());
    i := (!i + ring_capacity - 1) mod ring_capacity;
    Stdlib.incr scanned
  done;
  Mutex.unlock state.lock;
  !out

let emitted () = Atomic.get emitted_total

let dropped () = Atomic.get dropped_total

let rotations () = Atomic.get rotations_total

let reset () =
  Mutex.lock state.lock;
  Array.fill state.ring 0 ring_capacity None;
  state.next <- 0;
  Mutex.unlock state.lock;
  Atomic.set emitted_total 0;
  Atomic.set dropped_total 0;
  Atomic.set rotations_total 0

let () =
  Registry.register_counter_source (fun () ->
      [
        ("obs.events.emitted", emitted ());
        ("obs.events.dropped", dropped ());
        ("obs.events.rotations", rotations ());
      ]);
  Registry.register_reset_hook reset
