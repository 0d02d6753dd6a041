(* Per-layer metrics: in-process replays of the run's request stream,
   plus the wire probes taken on the live server.

   A workload's traced stream comes in segments, each replayed against
   a Service set up like the server that would serve it: hot's queries
   against the plain server, and its durable edits against one with a
   store and an event log (`stgq serve --store --events-dir`), which is
   where hot measures the Store and Obs layers.  Layer self times are
   per-request means over the traced replay; they and the unattributed
   remainder sum to the traced in-process request time. *)

open Stat

let sum_spans spans =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (s : Replay.span) ->
      let n, d = Option.value ~default:(0, 0.) (Hashtbl.find_opt t s.Replay.name) in
      Hashtbl.replace t s.Replay.name (n + 1, d +. Replay.dur s))
    spans;
  fun name -> Option.value ~default:(0, 0.) (Hashtbl.find_opt t name)

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun (s : Replay.span) ->
      Printf.fprintf oc
        "{\"request\": %d, \"name\": %S, \"parent\": %S, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
        s.Replay.rid s.Replay.name s.Replay.parent s.Replay.t0 s.Replay.t1)
    (List.rev spans);
  close_out oc

(* The server's observability planes, as `stgq serve --events-dir`
   switches them on. *)
let with_planes ~on ~events_dir f =
  if not on then f ()
  else begin
    Obs.set_enabled true;
    Obs.Trace.set_enabled true;
    Obs.Flightrec.set_enabled true;
    Obs.Events.configure ~dir:events_dir ();
    Obs.Runtime.start ();
    Fun.protect f ~finally:(fun () ->
        Obs.Runtime.stop ();
        Obs.Events.stop ();
        Obs.Flightrec.set_enabled false;
        Obs.Trace.set_enabled false;
        Obs.set_enabled false)
  end

(* [wire_ns.(j)] times query [j] of the stream, which is also request
   [j] of every replay: the first segment is a prefix of the queries. *)
type probe = { pings_ns : float array; wire_ns : float array }

(* One replay of every segment, concatenated: span request ids and
   counts run on across segments. *)
let merge (rs : (Replay.result * int) list) =
  let c = Replay.fresh_counts () in
  List.iter
    (fun ((r : Replay.result), _) ->
      let x = r.Replay.counts in
      c.queries <- c.queries + x.queries;
      c.edits <- c.edits + x.edits;
      c.nodes <- c.nodes + x.nodes;
      c.examined <- c.examined + x.examined;
      c.pruned <- c.pruned + x.pruned;
      c.builds <- c.builds + x.builds;
      c.build_ns <- c.build_ns +. x.build_ns;
      c.feasible <- c.feasible + x.feasible;
      c.bytes <- c.bytes + x.bytes;
      c.wal_bytes <- c.wal_bytes + x.wal_bytes;
      c.snapshot_bytes <- c.snapshot_bytes + x.snapshot_bytes;
      c.checkpoints <- c.checkpoints + x.checkpoints;
      c.appends <- c.appends + x.appends;
      c.emits <- c.emits + x.emits;
      c.calendar_bytes <- c.calendar_bytes + x.calendar_bytes)
    rs;
  let offsets =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) ((r : Replay.result), _) ->
              (off + Array.length r.Replay.answers, off :: acc))
            (0, []) rs))
  in
  let all f = Array.concat (List.map (fun (r, _) -> f r) rs) in
  let sum f = List.fold_left (fun acc (r, _) -> acc + f r) 0 rs in
  ( {
      Replay.answers = all (fun r -> r.Replay.answers);
      request_ns = all (fun r -> r.Replay.request_ns);
      service_ns = all (fun r -> r.Replay.service_ns);
      counts = c;
      spans =
        List.concat
          (List.map2
             (fun ((r : Replay.result), _) off ->
               List.map (fun (s : Replay.span) -> { s with Replay.rid = s.Replay.rid + off })
                 r.Replay.spans)
             rs offsets);
      hits = sum (fun r -> r.Replay.hits);
      misses = sum (fun r -> r.Replay.misses);
      alloc_words = List.fold_left (fun acc (r, _) -> acc +. r.Replay.alloc_words) 0. rs;
      major_gcs = sum (fun r -> r.Replay.major_gcs);
    },
    List.fold_left (fun acc (_, e) -> acc + e) 0 rs )

let measure ~(plan : Plan.t) ~pool ~rundir ~segments ~busy_cores ~sheds ~probe =
  let replay tag ?pool ~planes ~spans () =
    merge
      (List.mapi
         (fun i (reqs, durable) ->
           let dir name = Filename.concat rundir (Printf.sprintf "replay-%s%d-%s" tag i name) in
           with_planes ~on:(durable && planes) ~events_dir:(dir "events") @@ fun () ->
           let env =
             Replay.make_env ?pool
               ~store_dir:(if durable then Some (dir "store") else None)
               ~checkpoint_bytes:plan.Plan.checkpoint_bytes plan.Plan.state
           in
           Fun.protect ~finally:(fun () -> Replay.close_env env) @@ fun () ->
           Replay.warm env plan.Plan.warm;
           (* each replay starts from a collected heap, not from the
              garbage of the one before *)
           Gc.full_major ();
           let e0 = Obs.Events.emitted () in
           let r = Replay.run ~traced:spans env reqs in
           (r, Obs.Events.emitted () - e0))
         segments)
  in
  (* the untraced replay runs between the two traced ones, so drift
     over the three (the first replay of a process runs slowest) cancels
     out of the tracing overhead *)
  let a, emitted = replay "a" ~pool ~planes:true ~spans:true () in
  let u, _ = replay "u" ~pool ~planes:true ~spans:false () in
  let b, _ = replay "b" ~pool ~planes:true ~spans:true () in
  (* allocation repeats exactly only when one domain does all the work
     and no timing-driven sampler (the observability planes) runs *)
  let one, _ = replay "one-a" ~planes:false ~spans:false () in
  let one', _ = replay "one-b" ~planes:false ~spans:false () in
  write_spans
    (Filename.concat (Filename.dirname rundir)
       (Printf.sprintf "spans-%s.jsonl" (Plan.kind_name plan.Plan.kind)))
    a.Replay.spans;
  let c = a.Replay.counts in
  let f = float_of_int in
  let n_req = f (Array.length a.Replay.answers) in
  let queries = f c.Replay.queries and edits = f c.Replay.edits in
  let s = sum_spans a.Replay.spans in
  let total name = snd (s name) in
  let count name = f (fst (s name)) in
  let mean_us name = ratio (total name) (count name) /. 1e3 in
  let proto =
    List.fold_left (fun acc n -> acc +. total n) 0.
      [ "proto.encode_request"; "proto.decode_request"; "proto.encode_response";
        "proto.decode_response" ]
  in
  let lookup = total "cache.lookup" and certify = total "certify" in
  let solve = total "kernel.sgq_solve" +. total "kernel.stgq_solve" in
  (* Service.*_r is opaque to spans taken out here, so its self time is
     computed across two calls: the served call's service.request span
     minus the lookup, solve and certify spans of the decomposed second
     call of the same request.  It absorbs every difference between the
     two calls (the second solve runs on warm CPU caches, on the mirror
     cache), so it is printed beside the decomposed call's own total and
     flagged when negative. *)
  let service = total "service.request" and decomposed = total "decompose" in
  let overhead = service -. lookup -. solve -. certify in
  let negative x = if x < 0. then " NEGATIVE: the runs it subtracts diverged" else "" in
  let edit_layers =
    List.map (fun n -> (n, total n))
      [ "service.update_schedule"; "store.append"; "obs.event_emit"; "store.checkpoint" ]
  in
  let request = total "request" in
  let attributed =
    proto +. lookup +. solve +. certify +. overhead
    +. List.fold_left (fun acc (_, t) -> acc +. t) 0. edit_layers
  in
  let unattributed = request -. attributed in
  let per_req x = x /. n_req /. 1e3 in
  Printf.printf
    "# identity (us per request, traced replay of %.0f requests): request %.3f = proto %.3f \
     + cache.lookup %.3f + kernel %.3f + certify %.3f + service.overhead %.3f%s + \
     unattributed %.3f\n"
    n_req (per_req request) (per_req proto) (per_req lookup) (per_req solve) (per_req certify)
    (per_req overhead)
    (String.concat ""
       (List.map (fun (n, t) -> Printf.sprintf " + %s %.3f" n (per_req t)) edit_layers))
    (per_req unattributed);
  Printf.printf
    "# service self time across two calls (us per query): service.request %.3f, decomposed \
     call %.3f of which lookup + solve + certify %.3f, overhead %.3f%s\n"
    (ratio service queries /. 1e3) (ratio decomposed queries /. 1e3)
    (ratio (lookup +. solve +. certify) queries /. 1e3) (ratio overhead queries /. 1e3)
    (negative overhead);
  let same_work =
    let cb = b.Replay.counts in
    c.Replay.nodes = cb.Replay.nodes && c.Replay.builds = cb.Replay.builds
    && a.Replay.hits = b.Replay.hits && a.Replay.misses = b.Replay.misses
    && c.Replay.wal_bytes = cb.Replay.wal_bytes
    && one.Replay.alloc_words = one'.Replay.alloc_words
  in
  Printf.printf
    "# determinism: two traced replays nodes %d/%d builds %d/%d hits %d/%d wal_bytes %d/%d; \
     two one-domain replays alloc_words %.0f/%.0f -> %s\n"
    c.Replay.nodes b.Replay.counts.Replay.nodes c.Replay.builds b.Replay.counts.Replay.builds
    a.Replay.hits b.Replay.hits c.Replay.wal_bytes b.Replay.counts.Replay.wal_bytes
    one.Replay.alloc_words one'.Replay.alloc_words
    (if same_work then "identical" else "DIFFERENT");
  let wire_overhead =
    quantile (Array.mapi (fun j w -> w -. u.Replay.service_ns.(j)) probe.wire_ns) 0.5
  in
  let mean_request_us (r : Replay.result) =
    Array.fold_left ( +. ) 0. r.Replay.request_ns /. n_req /. 1e3
  in
  let untraced_us = mean_request_us u in
  let tracing_overhead = ((mean_request_us a +. mean_request_us b) /. 2.) -. untraced_us in
  let n_note n = Printf.sprintf "n=%.0f" n in
  ( [
      metric "proto.codec_us" "us" (per_req proto) ~note:(n_note (4. *. n_req));
      metric "proto.bytes_per_request" "bytes" (f c.Replay.bytes /. n_req);
      metric "server.ping_rtt_us" "us" (quantile probe.pings_ns 0.5 /. 1e3)
        ~note:(n_note (f (Array.length probe.pings_ns)));
      metric "server.wire_overhead_us" "us" (wire_overhead /. 1e3)
        ~note:
          (n_note (f (Array.length probe.wire_ns))
          ^ " median(wire - in-process service)" ^ negative wire_overhead);
      metric "server.busy_cores" "cores" busy_cores ~note:"server CPU s / wall s, query phase";
      metric "server.sheds" "count" (f sheds);
      metric "service.request_us" "us" (ratio service queries /. 1e3) ~note:(n_note queries);
      metric "service.overhead_us" "us" (ratio overhead queries /. 1e3)
        ~note:
          ("service.request minus the decomposed call's lookup, solve and certify"
          ^ negative overhead);
      metric "cache.lookup_us" "us" (mean_us "cache.lookup") ~note:(n_note (count "cache.lookup"));
      metric "cache.hit_ratio" "ratio"
        (ratio (f a.Replay.hits) (f (a.Replay.hits + a.Replay.misses)));
      metric "cache.set_schedule_us" "us" (mean_us "service.update_schedule")
        ~note:(n_note (count "service.update_schedule"));
      metric "context.build_ms" "ms" (ratio c.Replay.build_ns (f c.Replay.builds) /. 1e6)
        ~note:(n_note (f c.Replay.builds));
      metric "context.builds_per_request" "count" (ratio (f c.Replay.builds) queries);
      metric "context.feasible_size" "count" (ratio (f c.Replay.feasible) queries);
      metric "kernel.sgq_solve_us" "us" (mean_us "kernel.sgq_solve")
        ~note:(n_note (count "kernel.sgq_solve"));
      metric "kernel.stgq_solve_us" "us" (mean_us "kernel.stgq_solve")
        ~note:(n_note (count "kernel.stgq_solve"));
      metric "kernel.nodes_per_request" "count" (ratio (f c.Replay.nodes) queries);
      metric "kernel.pruned_share" "ratio" (ratio (f c.Replay.pruned) (f c.Replay.examined))
        ~note:"SGQ candidates pruned / examined";
      metric "certify.us" "us" (mean_us "certify") ~note:(n_note (count "certify"));
      metric "store.append_us" "us" (mean_us "store.append") ~note:(n_note (count "store.append"));
      metric "store.fsyncs_per_edit" "count"
        (ratio (f (c.Replay.appends + c.Replay.emits)) edits)
        ~note:"WAL append + event record, each fsynced";
      metric "store.write_amplification" "ratio"
        (ratio (f (c.Replay.wal_bytes + c.Replay.snapshot_bytes)) (f c.Replay.calendar_bytes))
        ~note:"(WAL + snapshot bytes) / calendar bytes edited";
      metric "store.checkpoints" "count" (f c.Replay.checkpoints);
      metric "store.checkpoint_ms" "ms" (mean_us "store.checkpoint" /. 1e3)
        ~note:(n_note (count "store.checkpoint"));
      metric "obs.events_per_request" "count" (f emitted /. n_req);
      metric "obs.event_emit_us" "us" (mean_us "obs.event_emit")
        ~note:(n_note (count "obs.event_emit"));
      metric "gc.alloc_mb_per_request" "MB" (one.Replay.alloc_words *. 8. /. 1e6 /. n_req)
        ~note:"one domain, observability planes off";
      metric "gc.major_per_1k_requests" "count" (f u.Replay.major_gcs *. 1000. /. n_req);
      metric "replay.request_us" "us" untraced_us ~note:"untraced in-process request";
      metric "replay.tracing_overhead_us" "us" tracing_overhead
        ~note:("mean of the two traced replays minus the untraced one" ^ negative tracing_overhead);
      metric "replay.unattributed_us" "us" (per_req unattributed);
    ],
    same_work )
