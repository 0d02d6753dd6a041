(** Blocking client for the {!Proto} wire protocol — used by
    [stgq-cli query --connect], the sustained-load bench driver and
    the integration tests.

    One request in flight per connection (the protocol is strict
    request/response).  A [t] is not thread-safe; give each client
    thread its own connection, as the load harness does. *)

type t

(** [connect addr] opens a blocking connection.
    @raise Unix.Unix_error when the endpoint is unreachable. *)
val connect : Listener.addr -> t

(** [connect_retry ?policy addr] is {!connect} with the
    {!Stgq_core.Resilience} retry schedule: transient connect failures
    (refused, reset, socket path not bound yet, timeout) are retried up
    to [policy.max_retries] times with seeded-jitter exponential backoff
    ({!Stgq_core.Resilience.backoff_s}), so a client launched alongside
    a server still replaying its WAL wins the race without a hand-rolled
    sleep loop.  Non-transient errors and exhausted retries return
    [Error] with the last failure. *)
val connect_retry :
  ?policy:Stgq_core.Resilience.policy -> Listener.addr -> (t, string) result

(** [request t req] writes one frame (at the connection's negotiated
    wire version) and reads one response frame.  Decode failures and
    mid-frame EOF (the server hung up) surface as typed errors;
    [Unix.Unix_error] propagates for transport faults. *)
val request : t -> Proto.request -> (Proto.response, Proto.decode_error) result

(** [hello t ~client] performs the version handshake: sends
    {!Proto.Hello} with [speaks = Proto.version] and adopts the
    server's negotiated version for all subsequent frames on this
    connection.  When an older server rejects the newest framing
    outright (it also closes the stream), the client reconnects once
    and redoes the handshake at the server's version. *)
val hello : t -> client:string -> (int, string) result

(** The wire version used for encodes on this connection:
    [Proto.version] until {!hello} negotiates something lower. *)
val negotiated_version : t -> int

val close : t -> unit

(** [exit_code e] — the process exit status of a client command whose
    request the server answered with [Failed e]: one code per error
    kind, never [0], [1] or cmdliner's reserved [123]-[125]. *)
val exit_code : Proto.server_error -> int

(** Every {!exit_code} value with a one-line meaning, in code order,
    for [--help] and docs/PROTOCOL.md. *)
val exit_codes : (int * string) list
