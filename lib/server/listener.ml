(* Wire-protocol query server.  See server.mli for the concurrency
   and admission-control model; frame layout lives in Proto and
   docs/PROTOCOL.md.

   The transport discipline mirrors the simplexmq agent server loop:
   read one length-prefixed frame, dispatch, write one frame back.
   Framing errors (oversized declaration, truncation, version or tag
   mismatch) get a final typed response and then the connection is
   closed — after a framing error the stream position is unknown, so
   continuing would misparse every subsequent byte. *)

open Stgq_core

type addr = Tcp of string * int | Unix_path of string

type config = {
  admission_limit : int;
  policy : Resilience.policy option;
  on_admitted : (Proto.request -> unit) option;
  store : Store.t option;
}

let default_config =
  { admission_limit = 64; policy = None; on_admitted = None; store = None }

let m_journalled = Obs.counter "server.mutations.journalled"

(* Domain-sharded, interned: safe to touch from every handler thread. *)
let m_connections = Obs.counter "server.connections"
let m_frames_in = Obs.counter "server.frames.in"
let m_frames_out = Obs.counter "server.frames.out"
let m_requests = Obs.counter "server.requests"
let m_sheds = Obs.counter "server.sheds"
let m_decode_errors = Obs.counter "server.decode_errors"
let g_inflight = Obs.gauge "server.inflight"
let g_open = Obs.gauge "server.connections.open"
let h_latency = Obs.histogram "server.request.latency_ns"

type t = {
  service : Service.t;
  config : config;
  inflight : int Atomic.t;
  lock : Mutex.t;  (* guards [conns], [live] and [closing] *)
  drained : Condition.t;  (* broadcast when [live] drops to 0 *)
  durable : Mutex.t;  (* serialises journal + apply, so WAL order = apply order *)
  mutable conns : Unix.file_descr list;
  mutable live : int;  (* handler threads not yet finished *)
  mutable closing : bool;  (* set by [stop]: no new handler starts *)
}

let create ?(config = default_config) service =
  if config.admission_limit < 1 then
    invalid_arg "Server.create: admission_limit must be >= 1";
  {
    service;
    config;
    inflight = Atomic.make 0;
    lock = Mutex.create ();
    drained = Condition.create ();
    durable = Mutex.create ();
    conns = [];
    live = 0;
    closing = false;
  }

(* ------------------------------------------------------------------ *)
(* Durability: journal before apply, ack only after both. *)

(* Calendar edits are validated (so an invalid request never pollutes
   the log), journalled to the WAL, and only then applied in memory —
   all under one mutex, so the log's record order is exactly the order
   the edits landed.  A crash between journal and apply is safe: the
   edit was never acked, and replay applies it, which is at worst a
   spurious (idempotent) calendar write.  When the WAL outgrows its
   threshold the same critical section checkpoints, snapshotting the
   service state it just finished mutating. *)
let durable_update_schedule t ~vertex avail =
  match t.config.store with
  | None -> Service.update_schedule t.service ~vertex avail
  | Some store ->
      let n = Service.n_vertices t.service in
      if vertex < 0 || vertex >= n then
        invalid_arg
          (Printf.sprintf "vertex %d out of range (dataset has %d members)"
             vertex n);
      if Timetable.Availability.horizon avail <> Service.horizon t.service then
        invalid_arg
          (Printf.sprintf "schedule horizon %d does not match served horizon %d"
             (Timetable.Availability.horizon avail)
             (Service.horizon t.service));
      Mutex.protect t.durable (fun () ->
          let wal0 = Obs.Gauge.value (Obs.gauge "store.wal.bytes") in
          Store.append store (Store.Schedule_set { vertex; avail });
          Obs.Counter.incr m_journalled;
          Obs.Events.emit ~kind:"schedule.update"
            [
              ("vertex", string_of_int vertex);
              ( "journalled_bytes",
                string_of_int
                  (Stdlib.max 0
                     (Obs.Gauge.value (Obs.gauge "store.wal.bytes") - wal0)) );
            ];
          Service.update_schedule t.service ~vertex avail;
          if Store.should_checkpoint store then
            Store.checkpoint store
              (Store.state_of_instance (Service.graph t.service)
                 (Service.schedules t.service)))

(* ------------------------------------------------------------------ *)
(* Transport. *)

let rec really_write fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    really_write fd buf (off + n) (len - n)
  end

let send_string fd s =
  really_write fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* [None] on EOF at a frame boundary (orderly close); raises
   [End_of_file] on EOF mid-frame. *)
let read_exact fd n ~eof_ok =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Some (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 && eof_ok then None else raise End_of_file
      | got -> go (off + got)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Dispatch. *)

let solve_policy t (wire : Proto.policy option) =
  match wire with
  | None -> t.config.policy
  | Some p ->
      let base =
        Option.value t.config.policy ~default:Resilience.default_policy
      in
      Some
        {
          base with
          Resilience.deadline_ms = p.Proto.deadline_ms;
          node_limit = p.node_limit;
          degrade = p.degrade;
        }

let of_error : Resilience.error -> Proto.server_error = function
  | Resilience.Degraded { reason; retries } -> Proto.Degraded { reason; retries }
  | Resilience.Unavailable { error; retries } ->
      Proto.Unavailable { message = Printexc.to_string error; retries }

(* The work half of the protocol: queries and calendar edits.  Runs
   with an admission slot held.  [Invalid_argument] is user error
   (range/parameter validation in Query/Service) and maps to
   [Bad_request]; anything else a solver path leaks maps to
   [Unavailable] rather than tearing the connection down. *)
let solve t ~trace_id (req : Proto.request) : Proto.response =
  match
    match req with
    | Proto.Sgq { initiator; q; policy } ->
        let policy = solve_policy t policy in
        (match Service.sgq_r ?policy t.service ~initiator q with
        | Ok a ->
            Proto.Sg_answer
              {
                value = a.Resilience.value;
                rung = a.rung;
                gap = a.gap;
                retries = a.retries;
                reason = a.reason;
                certified = true;
                trace_id;
              }
        | Error e -> Proto.Failed (of_error e))
    | Proto.Stgq { initiator; q; policy } ->
        let policy = solve_policy t policy in
        (match Service.stgq_r ?policy t.service ~initiator q with
        | Ok a ->
            Proto.Stg_answer
              {
                value = a.Resilience.value;
                rung = a.rung;
                gap = a.gap;
                retries = a.retries;
                reason = a.reason;
                certified = true;
                trace_id;
              }
        | Error e -> Proto.Failed (of_error e))
    | Proto.Update_schedule { vertex; avail } ->
        durable_update_schedule t ~vertex avail;
        Proto.Updated { vertex }
    | Proto.Hello _ | Proto.Ping _ ->
        (* handled before admission; unreachable *)
        invalid_arg "Server.solve: control request"
  with
  | resp -> resp
  | exception Invalid_argument msg ->
      Proto.Failed (Proto.Bad_request { message = msg })
  | exception e ->
      Proto.Failed
        (Proto.Unavailable { message = Printexc.to_string e; retries = 0 })

let request_kind = function
  | Proto.Sgq _ -> "sgq"
  | Proto.Stgq _ -> "stgq"
  | Proto.Update_schedule _ -> "update_schedule"
  | Proto.Hello _ -> "hello"
  | Proto.Ping _ -> "ping"

(* The server-side envelope: one "server.request" span rooting the
   whole solve (so retained traces show queueing and response assembly,
   not just solver time), with the trace id captured for the wire
   answer and the flight recorder re-stitched once the span closes. *)
let solve_traced t (req : Proto.request) : Proto.response =
  let tid = ref 0 in
  let resp =
    Obs.Trace.with_span "server.request"
      ~attrs:[ ("request", request_kind req) ]
      (fun () ->
        (match Obs.Trace.current () with
        | Some c -> tid := c.Obs.Trace.trace_id
        | None -> ());
        solve t ~trace_id:!tid req)
  in
  Obs.Flightrec.refresh !tid;
  resp

let admit t (req : Proto.request) : Proto.response =
  let depth = Atomic.fetch_and_add t.inflight 1 in
  if depth >= t.config.admission_limit then begin
    ignore (Atomic.fetch_and_add t.inflight (-1) : int);
    Obs.Counter.incr m_sheds;
    Obs.Events.emit ~kind:"server.shed"
      [
        ("request", "\"" ^ request_kind req ^ "\"");
        ("queue_depth", string_of_int depth);
        ("limit", string_of_int t.config.admission_limit);
      ];
    Proto.Failed
      (Proto.Overloaded
         { queue_depth = depth; limit = t.config.admission_limit })
  end
  else
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add t.inflight (-1) : int))
      (fun () ->
        Obs.Gauge.set g_inflight (depth + 1);
        (match t.config.on_admitted with Some hook -> hook req | None -> ());
        Obs.Counter.incr m_requests;
        let t0 = Obs.now_ns () in
        let resp = solve_traced t req in
        Obs.Histogram.observe h_latency (Obs.now_ns () -. t0);
        resp)

let dispatch t (req : Proto.request) : Proto.response =
  match req with
  | Proto.Hello { client = _; speaks } ->
      (* Negotiate down to what both sides decode; a v1 Hello arrives
         with [speaks = 1]. *)
      let speaks = Stdlib.max Proto.min_version speaks in
      Proto.Hello_ok { version = Stdlib.min Proto.version speaks }
  | Proto.Ping s -> Proto.Pong s
  | Proto.Sgq _ | Proto.Stgq _ | Proto.Update_schedule _ -> admit t req

(* ------------------------------------------------------------------ *)
(* Connection handling. *)

let send_response ?version fd resp =
  send_string fd (Proto.encode_response ?version resp);
  Obs.Counter.incr m_frames_out

(* One iteration: [`Continue] after a clean request/response exchange,
   [`Close] after EOF or a framing error (final response already
   sent). *)
let serve_one t fd =
  match read_exact fd Proto.header_bytes ~eof_ok:true with
  | None -> `Close
  | Some header -> (
      match Proto.decode_frame_length header with
      | Error e ->
          Obs.Counter.incr m_decode_errors;
          send_response ~version:Proto.min_version fd
            (Proto.Failed
               (Proto.Bad_request { message = Proto.string_of_decode_error e }));
          `Close
      | Ok len -> (
          match read_exact fd len ~eof_ok:false with
          | None -> `Close
          | Some payload -> (
              Obs.Counter.incr m_frames_in;
              match Proto.decode_request_payload payload with
              | Ok req ->
                  (* Answer at the version the request arrived at: a v1
                     peer gets v1 bytes back (no trace-id field), a v2
                     peer the full answer.  The payload is non-empty —
                     its version byte just decoded. *)
                  let arrived = Char.code payload.[0] in
                  send_response ~version:arrived fd (dispatch t req);
                  `Continue
              | Error (Proto.Bad_version _) ->
                  Obs.Counter.incr m_decode_errors;
                  send_response ~version:Proto.min_version fd
                    (Proto.Failed
                       (Proto.Unsupported_version
                          { server_version = Proto.version }));
                  `Close
              | Error e ->
                  Obs.Counter.incr m_decode_errors;
                  send_response ~version:Proto.min_version fd
                    (Proto.Failed
                       (Proto.Bad_request
                          { message = Proto.string_of_decode_error e }));
                  `Close)))

let handle_conn t fd =
  Obs.Counter.incr m_connections;
  let rec loop () = match serve_one t fd with `Continue -> loop () | `Close -> () in
  (* Peer resets and a listener-initiated shutdown both surface as
     Unix errors or EOF mid-frame; either way the connection is done. *)
  match loop () with
  | () -> ()
  | exception (End_of_file | Unix.Unix_error _) -> ()

let close_quiet fd =
  match Unix.close fd with () -> () | exception Unix.Unix_error _ -> ()

let shutdown_quiet fd =
  match Unix.shutdown fd Unix.SHUTDOWN_ALL with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

(* A handler counts itself out when it finishes, so a long-running
   server holds nothing for the connections it has closed.  A
   connection accepted once [stop] has begun is closed at once.  A
   connection's fd leaves [conns] and is closed under one lock, and
   [stop] shuts the listed ones down under it, so [stop] never touches a
   closed fd whose number the process has since handed to a new one. *)
let spawn_handler t fd =
  let admitted =
    Mutex.protect t.lock (fun () ->
        if not t.closing then begin
          t.conns <- fd :: t.conns;
          t.live <- t.live + 1;
          Obs.Gauge.set g_open t.live
        end;
        not t.closing)
  in
  let finish () =
    Mutex.protect t.lock (fun () ->
        t.conns <- List.filter (fun c -> not (c = fd)) t.conns;
        close_quiet fd;
        t.live <- t.live - 1;
        Obs.Gauge.set g_open t.live;
        if t.live = 0 then Condition.broadcast t.drained)
  in
  if not admitted then close_quiet fd
  else
    match
      Thread.create (fun () -> Fun.protect ~finally:finish (fun () -> handle_conn t fd)) ()
    with
    | (_ : Thread.t) -> ()
    | exception e ->
        finish ();
        raise e

(* ------------------------------------------------------------------ *)
(* Listening. *)

let unlink_quiet path =
  match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

let bind_listen addr =
  match addr with
  | Tcp (host, port) ->
      let inet = Unix.inet_addr_of_string host in
      let sock = Unix.socket (Unix.domain_of_sockaddr (Unix.ADDR_INET (inet, port))) Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (inet, port));
      Unix.listen sock 64;
      (sock, fun () -> close_quiet sock)
  | Unix_path path ->
      unlink_quiet path;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      ( sock,
        fun () ->
          close_quiet sock;
          unlink_quiet path )

let addr_string = function
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port
  | Unix_path path -> "unix:" ^ path

let resolved_addr addr sock =
  match (addr, Unix.getsockname sock) with
  | Tcp (host, 0), Unix.ADDR_INET (_, port) -> Tcp (host, port)
  | _ -> addr

let join_handlers t =
  Mutex.protect t.lock (fun () ->
      while t.live > 0 do
        Condition.wait t.drained t.lock
      done)

(* Accept until the listener dies ([stop] closes it under us — accept
   then fails with EBADF/EINVAL, which is the shutdown signal). *)
let rec accept_loop t sock =
  match Unix.accept ~cloexec:true sock with
  | fd, _peer ->
      spawn_handler t fd;
      accept_loop t sock
  | exception Unix.Unix_error _ -> ()

let serve t addr =
  let sock, cleanup = bind_listen addr in
  Fun.protect ~finally:cleanup (fun () ->
      accept_loop t sock;
      join_handlers t)

type handle = {
  server : t;
  bound : addr;
  listener : Unix.file_descr;
  cleanup : unit -> unit;
  accept_domain : unit Domain.t;
  stopped : bool Atomic.t;
}

let start t addr =
  let sock, cleanup = bind_listen addr in
  let bound = resolved_addr addr sock in
  Obs.Events.emit ~kind:"server.start"
    [
      ("addr", "\"" ^ Obs.json_escape (addr_string bound) ^ "\"");
      ("admission_limit", string_of_int t.config.admission_limit);
    ];
  let accept_domain = Domain.spawn (fun () -> accept_loop t sock) in
  {
    server = t;
    bound;
    listener = sock;
    cleanup;
    accept_domain;
    stopped = Atomic.make false;
  }

let bound_addr h = h.bound

let stop h =
  if not (Atomic.exchange h.stopped true) then begin
    (* [close] alone does not wake a thread blocked in [accept] on
       Linux; [shutdown] does (accept returns EINVAL). *)
    shutdown_quiet h.listener;
    h.cleanup ();
    (* Unblock handler threads parked in [Unix.read] ([shutdown] does
       not block); a connection the accept loop takes after this is
       closed by [spawn_handler].  The accept domain ends only once its
       handler threads have, so it is joined last. *)
    Mutex.protect h.server.lock (fun () ->
        h.server.closing <- true;
        List.iter shutdown_quiet h.server.conns);
    join_handlers h.server;
    Domain.join h.accept_domain;
    Obs.Events.emit ~kind:"server.stop"
      [ ("addr", "\"" ^ Obs.json_escape (addr_string h.bound) ^ "\"") ]
  end
