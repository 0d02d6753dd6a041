type t = {
  mutable fd : Unix.file_descr;
  addr : Listener.addr;
  mutable negotiated : int;
      (* wire version for every encode; starts optimistic at this
         build's newest, lowered by [hello] if the server is older *)
}

let connect (addr : Listener.addr) =
  match addr with
  | Listener.Tcp (host, port) ->
      let inet = Unix.inet_addr_of_string host in
      let sockaddr = Unix.ADDR_INET (inet, port) in
      let fd =
        Unix.socket ~cloexec:true
          (Unix.domain_of_sockaddr sockaddr)
          Unix.SOCK_STREAM 0
      in
      Unix.connect fd sockaddr;
      { fd; addr; negotiated = Proto.version }
  | Listener.Unix_path path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      { fd; addr; negotiated = Proto.version }

let negotiated_version t = t.negotiated

let close t =
  match Unix.close t.fd with () -> () | exception Unix.Unix_error _ -> ()

(* Connect-time failures worth retrying: the server is booting (socket
   not bound yet), still replaying its WAL behind a listen backlog, or
   shedding (accepted then reset).  Anything else — bad address, refused
   permissions — fails fast. *)
let retryable_errno = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ENOENT | Unix.ETIMEDOUT
  | Unix.EAGAIN | Unix.EINTR ->
      true
  | _ -> false

let connect_retry ?(policy = Stgq_core.Resilience.default_policy) addr =
  let rec go attempt =
    match connect addr with
    | t -> Ok t
    | exception (Unix.Unix_error (errno, _, _) as e) ->
        if retryable_errno errno && attempt < policy.Stgq_core.Resilience.max_retries
        then begin
          Unix.sleepf (Stgq_core.Resilience.backoff_s policy ~attempt);
          go (attempt + 1)
        end
        else
          Error
            (Printf.sprintf "connect failed after %d attempt(s): %s" (attempt + 1)
               (Printexc.to_string e))
  in
  go 0

let rec really_write fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    really_write fd buf (off + n) (len - n)
  end

(* EOF before [n] bytes is a truncated response — the server hung up
   mid-frame (or refused to speak at all); typed, like any other
   decode failure. *)
let read_exact fd n =
  let buf = Bytes.create n in
  let rec go off =
    if off >= n then Ok (Bytes.unsafe_to_string buf)
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> Error (Proto.Truncated { needed = n - off; got = off })
      | got -> go (off + got)
  in
  go 0

let request t req =
  let frame = Proto.encode_request ~version:t.negotiated req in
  really_write t.fd (Bytes.unsafe_of_string frame) 0 (String.length frame);
  match read_exact t.fd Proto.header_bytes with
  | Error e -> Error e
  | Ok header -> (
      match Proto.decode_frame_length header with
      | Error e -> Error e
      | Ok len -> (
          match read_exact t.fd len with
          | Error e -> Error e
          | Ok payload -> Proto.decode_response_payload payload))

let check_hello_ok t = function
  | Proto.Hello_ok { version }
    when version >= Proto.min_version && version <= Proto.version ->
      t.negotiated <- version;
      Ok version
  | Proto.Hello_ok { version } ->
      Error
        (Printf.sprintf "server negotiated version %d, this build speaks %d..%d"
           version Proto.min_version Proto.version)
  | Proto.Failed (Proto.Unsupported_version { server_version }) ->
      Error (Printf.sprintf "server rejected version %d (speaks %d)"
               Proto.version server_version)
  | resp ->
      Error
        (Format.asprintf "unexpected handshake response: %a" Proto.pp_response
           resp)

let hello t ~client =
  match request t (Proto.Hello { client; speaks = Proto.version }) with
  | Ok (Proto.Failed (Proto.Unsupported_version { server_version }))
    when server_version >= Proto.min_version && server_version < Proto.version
    -> (
      (* An older server rejected our newest framing and closed the
         stream; reconnect and redo the handshake at its version. *)
      close t;
      match connect t.addr with
      | fresh -> (
          t.fd <- fresh.fd;
          t.negotiated <- server_version;
          match
            request t (Proto.Hello { client; speaks = server_version })
          with
          | Ok resp -> check_hello_ok t resp
          | Error e -> Error (Proto.string_of_decode_error e))
      | exception Unix.Unix_error (errno, _, _) ->
          Error
            (Printf.sprintf "reconnect for version fallback failed: %s"
               (Unix.error_message errno)))
  | Ok resp -> check_hello_ok t resp
  | Error e -> Error (Proto.string_of_decode_error e)

(* One exit status per server error kind, clear of 0, of 1 (a client
   failure of its own) and of cmdliner's 123-125. *)
let exit_code = function
  | Proto.Overloaded _ -> 3
  | Proto.Degraded _ -> 4
  | Proto.Unavailable _ -> 5
  | Proto.Bad_request _ -> 6
  | Proto.Unsupported_version _ -> 7

let exit_codes =
  [
    (3, "the server shed the request as overloaded; retry later");
    (4, "the request's budget ran out before any rung answered (degraded)");
    (5, "the server could not answer (unavailable)");
    (6, "the server refused the request as malformed (bad request)");
    (7, "the server speaks another protocol version");
  ]
