(* Stats exposition: Prometheus text-format metrics, the flight
   recorder (retained traces, event tail, telemetry history) and
   /trace/last JSON over a minimal stdlib-Unix HTTP server, for
   long-running Service processes.  One short-lived connection per
   request; no keep-alive, no threads — the accept loop runs on the
   caller's domain. *)

type addr =
  | Tcp of string * int
  | Unix_path of string

(* ------------------------------------------------------------------ *)
(* Route table — the single source of the "/" index body and the
   docs/OBSERVABILITY.md route table (route_table_markdown), so the
   two cannot drift from the dispatch below.                           *)

let routes =
  [
    ("/", "this index");
    ("/healthz", "liveness probe (200 ok, plus the host's health line)");
    ("/metrics", "Prometheus text format (cumulative totals)");
    ("/metrics/delta", "same, since the server's baseline snapshot");
    ("/metrics/history", "runtime telemetry samples as a JSON series");
    ("/trace/last", "newest stitched trace as JSON");
    ("/trace/:id", "retained flight-recorder trace by id (JSON)");
    ("/traces", "flight-recorder retention summary (JSON)");
    ("/events/tail?n=N", "last N structured event records (JSONL)");
  ]

let index_body =
  let width =
    List.fold_left (fun w (r, _) -> Stdlib.max w (String.length r)) 0 routes
  in
  String.concat "\n"
    ("stgq stats exposition"
    :: List.map
         (fun (r, d) -> Printf.sprintf "  %-*s  %s" width r d)
         routes)
  ^ "\n"

let route_table_markdown () =
  String.concat "\n"
    ("| Route | Serves |"
     :: "| --- | --- |"
     :: List.map (fun (r, d) -> Printf.sprintf "| `%s` | %s |" r d) routes)
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Prometheus text format (version 0.0.4).                             *)

let mangle name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let metric_name name = "stgq_" ^ mangle name

let prometheus (s : Registry.snapshot) =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (l ^ "\n")) fmt in
  List.iter
    (fun (name, v) ->
      let m = metric_name name in
      line "# TYPE %s counter" m;
      line "%s %d" m v)
    s.Registry.counters;
  List.iter
    (fun (name, (g : Registry.gauge_reading)) ->
      let m = metric_name name in
      line "# TYPE %s gauge" m;
      line "%s %d" m g.Registry.g_value;
      line "# TYPE %s_high_water gauge" m;
      line "%s_high_water %d" m g.Registry.g_high_water)
    s.Registry.gauges;
  List.iter
    (fun (name, (h : Registry.histogram_summary)) ->
      let m = metric_name name in
      line "# HELP %s samples in ns" m;
      line "# TYPE %s summary" m;
      line "%s{quantile=\"0.5\"} %.0f" m h.Registry.h_p50;
      line "%s{quantile=\"0.9\"} %.0f" m h.Registry.h_p90;
      line "%s{quantile=\"0.99\"} %.0f" m h.Registry.h_p99;
      line "%s_sum %.0f" m h.Registry.h_sum_ns;
      line "%s_count %d" m h.Registry.h_count)
    s.Registry.histograms;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Routing.                                                            *)

let text = "text/plain; charset=utf-8"

let prom = "text/plain; version=0.0.4"

let json = "application/json"

let jsonl = "application/jsonl"

(* "a=1&b=2" -> value of [key], if present. *)
let query_param query key =
  List.find_map
    (fun pair ->
      match String.index_opt pair '=' with
      | Some i when String.sub pair 0 i = key ->
          Some (String.sub pair (i + 1) (String.length pair - i - 1))
      | _ -> None)
    (String.split_on_char '&' query)

let not_found body = (404, text, body ^ "\n\n" ^ index_body)

let trace_by_id id_s =
  match id_s with
  | "last" -> (
      match Trace.last () with
      | Some t -> (200, json, Trace.tree_json t ^ "\n")
      | None -> (404, json, "{\"error\": \"no trace recorded\"}\n"))
  | _ -> (
      match int_of_string_opt id_s with
      | None -> (404, json, "{\"error\": \"bad trace id\"}\n")
      | Some id -> (
          match Flightrec.trace_json id with
          | Some body -> (200, json, body ^ "\n")
          | None ->
              ( 404,
                json,
                Registry.json_object
                  [
                    ("error", "\"trace not retained\"");
                    ("trace_id", string_of_int id);
                  ]
                ^ "\n" )))

(* [respond ?health ~baseline target] routes one request target
   (path plus optional ?query). *)
let respond ?health ~baseline target =
  let path, query =
    match String.index_opt target '?' with
    | Some i ->
        ( String.sub target 0 i,
          String.sub target (i + 1) (String.length target - i - 1) )
    | None -> (target, "")
  in
  match path with
  | "/" -> (200, text, index_body)
  | "/healthz" ->
      (* Liveness plus whatever the host process wants probes to see —
         the query server reports its store-recovery status here. *)
      let extra = match health with Some f -> f () ^ "\n" | None -> "" in
      (200, text, "ok\n" ^ extra)
  | "/metrics" -> (200, prom, prometheus (Registry.snapshot ()))
  | "/metrics/delta" ->
      (200, prom, prometheus (Registry.delta baseline (Registry.snapshot ())))
  | "/metrics/history" -> (200, json, Runtime.history_json () ^ "\n")
  | "/traces" -> (200, json, Flightrec.summary_json () ^ "\n")
  | "/events/tail" ->
      let n =
        match Option.bind (query_param query "n") int_of_string_opt with
        | Some n when n > 0 -> n
        | _ -> 100
      in
      (200, jsonl, String.concat "" (Events.tail n))
  | _ when String.length path > 7 && String.sub path 0 7 = "/trace/" ->
      trace_by_id (String.sub path 7 (String.length path - 7))
  | _ -> not_found "not found"

let status_text = function
  | 200 -> "200 OK"
  | 404 -> "404 Not Found"
  | code -> string_of_int code ^ " Error"

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    (status_text status) content_type (String.length body) body

(* First request line: "GET /path?query HTTP/1.1".  The query string is
   kept — /events/tail reads its [n] parameter from it. *)
let request_path req =
  let first_line =
    match String.index_opt req '\r' with
    | Some i -> String.sub req 0 i
    | None -> (
        match String.index_opt req '\n' with
        | Some i -> String.sub req 0 i
        | None -> req)
  in
  match String.split_on_char ' ' first_line with
  | _meth :: target :: _ -> target
  | _ -> "/"

(* ------------------------------------------------------------------ *)
(* Server.                                                             *)

let serve_client ?health ~baseline client =
  let buf = Bytes.create 8192 in
  let n = Unix.read client buf 0 (Bytes.length buf) in
  let path = request_path (Bytes.sub_string buf 0 (Stdlib.max 0 n)) in
  let status, content_type, body = respond ?health ~baseline path in
  let resp = http_response ~status ~content_type body in
  let rec write_all off len =
    if len > 0 then begin
      let w = Unix.write_substring client resp off len in
      write_all (off + w) (len - w)
    end
  in
  write_all 0 (String.length resp)

let unlink_quiet path =
  match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

let bind_listen addr =
  match addr with
  | Tcp (host, port) ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen sock 16;
      (sock, fun () -> Unix.close sock)
  | Unix_path path ->
      unlink_quiet path;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      ( sock,
        fun () ->
          Unix.close sock;
          unlink_quiet path )

(* [serve addr] accepts and answers requests forever (or until
   [?max_requests] connections have been served — the test hook).
   Deltas are against [?baseline] (default: the snapshot at startup). *)
let serve ?baseline ?health ?max_requests addr =
  let baseline =
    match baseline with Some b -> b | None -> Registry.snapshot ()
  in
  let sock, cleanup = bind_listen addr in
  let served = ref 0 in
  let keep_going () =
    match max_requests with None -> true | Some n -> !served < n
  in
  Fun.protect ~finally:cleanup (fun () ->
      while keep_going () do
        let client, _peer = Unix.accept sock in
        Stdlib.incr served;
        (match serve_client ?health ~baseline client with
        | () -> ()
        | exception Unix.Unix_error _ -> ());
        (match Unix.close client with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
      done)
