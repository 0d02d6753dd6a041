(* Wire-level benchmark for `stgq serve`.

     perfbench --workload hot|scale --seed N --seconds S --trace 0|1
               [--server PATH]

   Writes the workload's world snapshot, starts the real server binary
   on it, drives it over the wire protocol with the seed's request
   stream, checks every answer, and prints one report line per metric
   followed by a JSON result as the last line.  --trace 0 reports the
   end-to-end metrics; --trace 1 adds an in-process replay of the same
   stream with spans around every layer call and reports the per-layer
   metrics.  Exits 1 on a wrong answer or a non-deterministic input or
   work count. *)

open Stat

let now = Wire.now
let ns_since = Wire.ns_since

(* ------------------------------------------------------------------ *)
(* Report: human lines first, the JSON result last. *)

let json_result ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num m.value) m.unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* Provenance. *)

let command_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      String.trim line
  | exception Unix.Unix_error _ -> ""

let nproc () =
  match int_of_string_opt (command_line "nproc 2>/dev/null") with
  | Some n when n > 0 -> n
  | _ -> Domain.recommended_domain_count ()

(* The checkout may not be a git repository; a digest of the sources
   the benchmark builds identifies the code either way. *)
let source_digest () =
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  let all = List.concat_map files [ "lib"; "bin" ] in
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.map (fun p -> p ^ "\000" ^ Digest.to_hex (Digest.file p)) all)))

let commit () =
  if Sys.file_exists ".git" then
    match command_line "git rev-parse --short=12 HEAD 2>/dev/null" with
    | "" -> "unknown"
    | c -> c
  else "none"

(* Filesystem type of the mount holding [dir], from mountinfo. *)
let filesystem dir =
  let path = Unix.realpath dir in
  let under mp = mp = "/" || path = mp || String.starts_with ~prefix:(mp ^ "/") path in
  let ic = open_in "/proc/self/mountinfo" in
  let rec go best =
    match input_line ic with
    | line -> (
        let fields = String.split_on_char ' ' line in
        match (List.nth_opt fields 4, List.find_index (( = ) "-") fields) with
        | Some mp, Some dash when under mp -> (
            match List.nth_opt fields (dash + 1) with
            | Some fs when String.length mp >= String.length (fst best) -> go (mp, fs)
            | _ -> go best)
        | _ -> go best)
    | exception End_of_file -> best
  in
  let _, fs = go ("", "unknown") in
  close_in ic;
  fs

(* ------------------------------------------------------------------ *)
(* Files. *)

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p p =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go p

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Answer classes. *)

let failure_kind = function
  | Error _ -> Some "transport"
  | Ok (Proto.Failed (Proto.Overloaded _)) -> Some "Overloaded"
  | Ok (Proto.Failed (Proto.Degraded _)) -> Some "Degraded"
  | Ok (Proto.Failed (Proto.Unavailable _)) -> Some "Unavailable"
  | Ok (Proto.Failed (Proto.Bad_request _)) -> Some "Bad_request"
  | Ok (Proto.Failed (Proto.Unsupported_version _)) -> Some "Unsupported_version"
  | Ok _ -> None

let completed (o : Wire.outcome) =
  Array.fold_left (fun a r -> if failure_kind r = None then a + 1 else a) 0 o.Wire.response

(* Latency samples with failed requests counted as missing every
   limit. *)
let latencies (o : Wire.outcome) =
  Array.mapi
    (fun i l -> if failure_kind o.Wire.response.(i) = None then l else infinity)
    o.Wire.latency_ns

(* The tail percentile of each window of consecutive rounds, a window
   being the fewest whole rounds with at least ten samples beyond the
   percentile (hot: two rounds for p99, scale: one for p90); leftover
   rounds join the last window. *)
let window_tails ~tail_q (rounds : Wire.outcome list) =
  let rounds = Array.of_list rounds in
  let per_round = Array.length rounds.(0).Wire.latency_ns in
  let k = max 1 (int_of_float (Float.ceil (10. /. ((1. -. tail_q) *. float_of_int per_round)))) in
  let w = max 1 (Array.length rounds / k) in
  Array.init w (fun i ->
      let hi = if i = w - 1 then Array.length rounds else (i + 1) * k in
      let window = Wire.concat (Array.to_list (Array.sub rounds (i * k) (hi - (i * k)))) in
      (quantile (latencies window) tail_q /. 1e6, Array.length window.Wire.latency_ns))

(* The traced replays run each query twice (served, then decomposed)
   and the stream is replayed five times in all, so they cover a prefix
   of it to stay well inside the run's time limit. *)
let traced_prefix = function Plan.Scale -> 200 | Plan.Hot -> 1500

(* ------------------------------------------------------------------ *)
(* The run. *)

type opts = {
  workload : Plan.kind;
  seed : int;
  seconds : int;
  trace : bool;
  server : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let server = ref ".bench_build/default/bin/stgq_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "hot|scale");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "nominal measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--server", Arg.Set_string server, "path of the stgq CLI binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload hot|scale --seed N --seconds S --trace 0|1";
  match Plan.kind_of_string !workload with
  | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
  | Some w ->
      if !seconds < 1 then raise (Arg.Bad "--seconds must be >= 1");
      { workload = w; seed = !seed; seconds = !seconds; trace = !trace = 1; server = !server }

let main o =
  if not (Sys.file_exists o.server) then failwith ("server binary not found: " ^ o.server);
  let nproc = nproc () in
  let domains = nproc in
  let name = Plan.kind_name o.workload in
  let plan = Plan.make o.workload ~seed:o.seed ~seconds:o.seconds in
  (* determinism: a second generation from the seed is byte-identical *)
  let inputs_digest = Plan.digest plan in
  let inputs_same =
    String.equal inputs_digest
      (Plan.digest (Plan.make o.workload ~seed:o.seed ~seconds:o.seconds))
  in
  let rundir = Printf.sprintf ".bench_run/%s-%d" name (Unix.getpid ()) in
  rm_rf rundir;
  mkdir_p rundir;
  Fun.protect ~finally:(fun () -> rm_rf rundir) @@ fun () ->
  let snapshot = Filename.concat rundir "world.stgq" in
  write_file snapshot plan.Plan.snapshot;
  let socket = Filename.concat rundir "s.sock" in
  let server_args = [ "--snapshot"; snapshot; "--domains"; string_of_int domains ] in
  (* -- measured phase: closed-loop rounds of the query multiset, each
     round on a server of its own, started cold.  setup_s is the median
     of those starts, each from spawn to the last warm-up answer
     (snapshot loaded, every working-set context built); qps and
     server_rss_peak_mb are medians over rounds.  A fresh server per
     round keeps the rounds independent: a scale server that runs on
     grows its heap from about 250 to about 430 MB at a random point and
     then answers up to a fifth faster, which split identical runs into
     a slow and a fast mode. *)
  let start () =
    let t0 = now () in
    let srv =
      match Wire.spawn ~exe:o.server ~args:server_args ~socket with
      | Ok s -> s
      | Error e -> failwith e
    in
    let c = Wire.connect socket in
    Array.iter
      (fun r ->
        match Wire.call c r with
        | Ok (Proto.Sg_answer _) -> ()
        | Ok r -> failwith (Format.asprintf "warm-up answer: %a" Proto.pp_response r)
        | Error e -> failwith ("warm-up: " ^ e))
      plan.Plan.warm;
    let setup = ns_since t0 /. 1e9 in
    Server.Client.close c;
    (srv, setup)
  in
  let on_fresh_server f =
    let srv, setup = start () in
    Fun.protect ~finally:(fun () -> Wire.kill srv) (fun () -> f srv setup)
  in
  let queries = Array.length plan.Plan.queries in
  (* never more connections (each its own generator thread) than cores *)
  let conns = min nproc (if o.workload = Plan.Hot then 2 else 1) in
  let measured =
    List.init plan.Plan.rounds (fun i ->
        on_fresh_server (fun srv setup ->
            let lo = i * queries / plan.Plan.rounds and hi = (i + 1) * queries / plan.Plan.rounds in
            let c0 = Wire.cpu_s srv.Wire.pid in
            let q = Wire.closed_loop ~socket ~conns (Array.sub plan.Plan.queries lo (hi - lo)) in
            (q, setup, Wire.cpu_s srv.Wire.pid -. c0, Wire.peak_rss_mb srv.Wire.pid)))
  in
  let rounds = List.map (fun (q, _, _, _) -> q) measured in
  let setups = Array.of_list (List.map (fun (_, s, _, _) -> s) measured) in
  let busy_cpu = List.fold_left (fun acc (_, _, c, _) -> acc +. c) 0. measured in
  let rss_mb = Array.of_list (List.map (fun (_, _, _, r) -> r) measured) in
  let round_qps =
    Array.of_list
      (List.map
         (fun (q : Wire.outcome) -> float_of_int (completed q) /. (q.Wire.wall_ns /. 1e9))
         rounds)
  in
  let q_out = Wire.concat rounds in
  (* -- traced run only: wire-side layer probes on a warm server *)
  let probe =
    if not o.trace then None
    else
      on_fresh_server @@ fun _ _ ->
      let c = Wire.connect socket in
      let pings_ns =
        Array.init 2000 (fun i ->
            let t0 = now () in
            (match Wire.call c (Proto.Ping (string_of_int i)) with
            | Ok (Proto.Pong _) -> ()
            | _ -> failwith "ping: no pong");
            ns_since t0)
      in
      let k = min queries 200 in
      let wire_ns =
        Array.init k (fun j ->
            let t0 = now () in
            ignore (Wire.call c plan.Plan.queries.(j) : (Proto.response, string) result);
            ns_since t0)
      in
      Server.Client.close c;
      Some { Layers.pings_ns; wire_ns }
  in
  (* -- checks, outside the timed phase *)
  let failures = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      match failure_kind r with
      | Some k ->
          Hashtbl.replace failures k (1 + Option.value ~default:0 (Hashtbl.find_opt failures k))
      | None -> ())
    q_out.Wire.response;
  let pool = Engine.Pool.create ~size:domains () in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  (* every wire answer equals the in-process Service answer to the same
     request on the same snapshot; no edit lands in these workloads, so
     each distinct request is answered once, on two domains *)
  let env = Replay.make_env ~pool ~store_dir:None ~checkpoint_bytes:0 plan.Plan.state in
  let memo = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace memo r (Proto.Pong "")) plan.Plan.queries;
  let distinct = Array.of_seq (Hashtbl.to_seq_keys memo) in
  let half = Array.length distinct / 2 in
  let answer_range lo hi =
    Array.init (hi - lo) (fun i -> Replay.answer env.Replay.svc distinct.(lo + i))
  in
  let other = Domain.spawn (fun () -> answer_range half (Array.length distinct)) in
  let mine = answer_range 0 half in
  Array.iteri (fun i a -> Hashtbl.replace memo distinct.(i) a)
    (Array.append mine (Domain.join other));
  let mismatches = ref 0 in
  Array.iteri
    (fun i req ->
      match q_out.Wire.response.(i) with
      | Ok got when Proto.equal_response (Hashtbl.find memo req) (Replay.zero_trace_id got) -> ()
      | _ -> incr mismatches)
    plan.Plan.queries;
  (* -- end-to-end metrics *)
  let attempted = queries in
  let failed = Hashtbl.fold (fun _ n acc -> acc + n) failures 0 in
  let served = completed q_out in
  let q_lat = Array.map (fun l -> l /. 1e6) (latencies q_out) in
  let beyond q n = Printf.sprintf "n=%d beyond=%d" n (int_of_float (float_of_int n *. (1. -. q))) in
  (* query_tail_ms is the first quartile over windows of each window's
     tail, not the tail pooled over the run.  On scale every request
     does about the same work, so its p90 is set by stalls: a burst of
     host contention that covers a tenth of a run lifts the pooled p90
     to the contended latency, and such bursts come and go between
     runs (pooled p90 spread 0.23 and 0.44 of its median over two sets
     of ten identical runs).  The first quartile over windows needs
     three quarters of the windows hit before it moves.  The pooled
     tail is printed beside it. *)
  let tails = window_tails ~tail_q:plan.Plan.tail_q rounds in
  let tail_ms = quantile (Array.map fst tails) 0.25 in
  let e2e =
    [
      metric "setup_s" "s" (quantile setups 0.5)
        ~note:(Printf.sprintf "median of %d cold starts (min %.4f max %.4f)" (Array.length setups)
                 (Array.fold_left Float.min infinity setups)
                 (Array.fold_left Float.max 0. setups));
      metric "qps" "1/s" (quantile round_qps 0.5)
        ~note:(Printf.sprintf "n=%d completed queries, closed loop, median of %d rounds"
                 served (Array.length round_qps));
      metric "query_p50_ms" "ms" (quantile q_lat 0.5) ~note:(beyond 0.5 queries);
      metric "query_tail_ms" "ms" tail_ms
        ~note:(Printf.sprintf
                 "= query_p%.0f_ms, first quartile of %d windows, each %s; pooled over the \
                  run %.4f"
                 (plan.Plan.tail_q *. 100.) (Array.length tails)
                 (beyond plan.Plan.tail_q (snd tails.(0)))
                 (quantile q_lat plan.Plan.tail_q));
      metric "server_cpu_ms_per_request" "ms" (busy_cpu *. 1000. /. float_of_int served)
        ~note:(Printf.sprintf "n=%d requests, %.2f s CPU" served busy_cpu);
      metric "server_rss_peak_mb" "MB" (quantile rss_mb 0.5)
        ~note:(Printf.sprintf "VmHWM, median of %d servers (min %.1f max %.1f)"
                 (Array.length rss_mb) (quantile rss_mb 0.) (quantile rss_mb 1.));
    ]
  in
  (* Printed but not in the JSON result: failed_share is 0 on every
     passing run, because a failed request's answer differs from the
     in-process one, so the answer check already fails the run on any
     failure. *)
  let reported =
    [
      metric "failed_share" "ratio" (float_of_int failed /. float_of_int attempted)
        ~note:(Printf.sprintf "%d of %d attempted" failed attempted);
    ]
  in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%d trace=%d\n" name o.seed o.seconds
    (if o.trace then 1 else 0);
  Printf.printf
    "# provenance: nproc=%d server_domains=%d ocaml=%s commit=%s sources=%s store_fs=%s\n"
    nproc domains Sys.ocaml_version (commit ()) (source_digest ()) (filesystem rundir);
  Printf.printf "# inputs: digest=%s reproducible=%b queries=%d\n" inputs_digest inputs_same
    queries;
  Printf.printf
    "# generator: closed loop on %d connection(s), %d rounds in %.3f s, round qps \
     min %.1f q1 %.1f median %.1f q3 %.1f max %.1f\n"
    conns plan.Plan.rounds (q_out.Wire.wall_ns /. 1e9)
    (quantile round_qps 0.) (quantile round_qps 0.25) (quantile round_qps 0.5)
    (quantile round_qps 0.75) (quantile round_qps 1.);
  Printf.printf "# failures by kind:%s\n"
    (match Hashtbl.fold (fun k n acc -> Printf.sprintf " %s=%d" k n :: acc) failures [] with
    | [] -> " none"
    | kinds -> String.concat "" kinds);
  Printf.printf "# checks: wire-vs-in-process mismatches=%d\n" !mismatches;
  let layers, same_work =
    match probe with
    | None -> ([], true)
    | Some probe ->
        let prefix a = Array.sub a 0 (min (Array.length a) (traced_prefix o.workload)) in
        let segments =
          match o.workload with
          | Plan.Hot -> [ (prefix plan.Plan.queries, false); (plan.Plan.edits, true) ]
          | Plan.Scale -> [ (prefix plan.Plan.queries, false) ]
        in
        Layers.measure ~plan ~pool ~rundir ~segments
          ~busy_cores:(busy_cpu /. (q_out.Wire.wall_ns /. 1e9))
          ~sheds:(Option.value ~default:0 (Hashtbl.find_opt failures "Overloaded"))
          ~probe
  in
  List.iter print_metric (e2e @ reported @ layers);
  let correct = inputs_same && same_work && !mismatches = 0 in
  json_result ~correct ~attempted ~failed (if o.trace then layers else e2e);
  correct

let () =
  (* a server that dies mid-write must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Wire.kill_all;
  match parse_args () with
  | o -> (
      match main o with
      | true -> ()
      | false -> exit 1
      | exception (Failure m | Sys_error m) ->
          prerr_endline ("perfbench: " ^ m);
          exit 2
      | exception Unix.Unix_error (e, f, a) ->
          Printf.eprintf "perfbench: %s(%s): %s\n" f a (Unix.error_message e);
          exit 2)
  | exception Arg.Bad m ->
      prerr_endline m;
      exit 2
