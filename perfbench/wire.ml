(* The real server as a child process, and the closed-loop generator
   that drives it over the wire protocol through Server.Client.  All
   timings are monotonic-clock nanoseconds. *)

let now () = Monotonic_clock.now ()
let ns_since t0 = Int64.to_float (Int64.sub (now ()) t0)

(* ------------------------------------------------------------------ *)
(* Server process. *)

type server = {
  pid : int;
  drain : Thread.t;  (* empties the server's stderr after the banner *)
}

let banner = "serving the STGQ wire protocol"

(* Every server still running, so an aborted run can stop them all. *)
let live : server list ref = ref []

(* Read the server's stderr until its banner line, with a deadline
   enforced by select (the server may die or hang before it binds). *)
let read_banner fd ~timeout_s =
  let buf = Bytes.create 4096 in
  let seen = Buffer.create 256 in
  let t0 = now () in
  let rec go () =
    let left = timeout_s -. (ns_since t0 /. 1e9) in
    if left <= 0. then Error "timed out waiting for the server banner"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> Error ("server exited before binding: " ^ Buffer.contents seen)
          | got ->
              Buffer.add_subbytes seen buf 0 got;
              if
                List.exists
                  (String.starts_with ~prefix:banner)
                  (String.split_on_char '\n' (Buffer.contents seen))
              then Ok ()
              else go ())
  in
  go ()

(* Keeps reading the server's stderr so it never blocks on a full pipe. *)
let drain_thread fd =
  Thread.create
    (fun () ->
      let buf = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | _ -> go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ();
      Unix.close fd)
    ()

(* The socket path is removed first: a stale one left by a killed
   server would refuse connections until the new server re-binds it. *)
let spawn ~exe ~args ~socket =
  (try Unix.unlink socket with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list (exe :: "serve" :: "--unix-socket" :: socket :: args) in
  let pid = Unix.create_process exe argv devnull devnull wr in
  Unix.close wr;
  Unix.close devnull;
  match read_banner rd ~timeout_s:120. with
  | Ok () ->
      let s = { pid; drain = drain_thread rd } in
      live := s :: !live;
      Ok s
  | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close rd;
      Error e

let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  Thread.join s.drain;
  live := List.filter (fun l -> l.pid <> s.pid) !live

let kill_all () = List.iter kill !live

(* utime + stime of a live process, in seconds (USER_HZ = 100). *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  let after = String.rindex line ')' in
  let fields =
    String.split_on_char ' '
      (String.sub line (after + 2) (String.length line - after - 2))
  in
  (* fields.(0) is field 3 (state); utime/stime are fields 14/15 *)
  let f i = float_of_string (List.nth fields (i - 3)) in
  (f 14 +. f 15) /. 100.

(* The server's peak resident set (VmHWM), in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* Connections. *)

(* The banner precedes bind by a few instructions, so connect is
   retried immediately — no sleep, unlike Client.connect_retry's
   backoff, which would quantise setup_s — while the socket path is
   missing or not yet listening.  Checking for the path first keeps
   failed connects (each of which leaves Client.connect's socket open)
   to the bind-to-listen window. *)
let connect path =
  let addr = Server.Unix_path path in
  let rec go attempts =
    if attempts >= 10_000_000 then failwith ("server never listened on " ^ path)
    else if not (Sys.file_exists path) then begin
      Thread.yield ();
      go (attempts + 1)
    end
    else
      match Server.Client.connect addr with
      | c -> c
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          Thread.yield ();
          go (attempts + 1)
  in
  let c = go 0 in
  match Server.Client.hello c ~client:"perfbench" with
  | Ok v when v = Proto.version -> c
  | Ok v -> failwith (Printf.sprintf "handshake: server speaks version %d" v)
  | Error e -> failwith ("handshake: " ^ e)

(* A transport failure is an answer too: it counts as a failed request. *)
let call c req =
  match Server.Client.request c req with
  | Ok r -> Ok r
  | Error e -> Error (Proto.string_of_decode_error e)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Closed loop: [conns] connections, each sending its next request as
   soon as the previous answer arrives; requests are taken from one
   shared list in order. *)

type outcome = {
  latency_ns : float array;  (* per request, from send to decoded answer *)
  response : (Proto.response, string) result array;
  wall_ns : float;
}

let concat (os : outcome list) =
  {
    latency_ns = Array.concat (List.map (fun o -> o.latency_ns) os);
    response = Array.concat (List.map (fun o -> o.response) os);
    wall_ns = List.fold_left (fun a o -> a +. o.wall_ns) 0. os;
  }

let closed_loop ~socket ~conns reqs =
  let n = Array.length reqs in
  let latency_ns = Array.make n 0. in
  let response = Array.make n (Error "not sent") in
  let clients = List.init conns (fun _ -> connect socket) in
  let next = Atomic.make 0 in
  let t0 = now () in
  let worker c =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let s = now () in
        let r = call c reqs.(i) in
        latency_ns.(i) <- ns_since s;
        response.(i) <- r;
        go ()
      end
    in
    go ()
  in
  let threads = List.map (fun c -> Thread.create worker c) clients in
  List.iter Thread.join threads;
  let wall_ns = ns_since t0 in
  List.iter Server.Client.close clients;
  { latency_ns; response; wall_ns }
