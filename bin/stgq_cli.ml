(* stgq — command-line front end.

   Subcommands:
     generate   synthesise a dataset and write graph/schedule files
     sgq        answer a Social Group Query
     stgq       answer a Social-Temporal Group Query
     arrange    compare STGArrange against the PCArrange imitation
     trace      answer one query under tracing; render tree + waterfall
     stats      instrumented workload; `stats serve` exposes /metrics
     snapshot   save/load/verify durable-store images (docs/PERSISTENCE.md)

   Datasets come either from files written by `generate`, from the
   built-in generators (--kind/--n/--seed/--days), or from a durable
   snapshot (--snapshot). *)

open Cmdliner
open Stgq_core

(* ------------------------------------------------------------------ *)
(* Dataset source.                                                     *)

type source = {
  kind : string;
  n : int;
  seed : int;
  days : int;
  graph_file : string option;
  sched_file : string option;
  snapshot : string option;
}

let source_term =
  let kind =
    Arg.(value & opt string "people194"
         & info [ "kind" ] ~docv:"KIND" ~doc:"Generator: people194 or coauthor.")
  in
  let n =
    Arg.(value & opt int 800
         & info [ "n" ] ~docv:"N" ~doc:"Network size for the coauthor generator.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let days =
    Arg.(value & opt int 7 & info [ "days" ] ~docv:"DAYS" ~doc:"Schedule length in days.")
  in
  let graph_file =
    Arg.(value & opt (some string) None
         & info [ "graph" ] ~docv:"FILE" ~doc:"Load the social graph from an edge list.")
  in
  let sched_file =
    Arg.(value & opt (some string) None
         & info [ "schedules" ] ~docv:"FILE" ~doc:"Load schedules from a schedule file.")
  in
  let snapshot =
    Arg.(value & opt (some string) None
         & info [ "snapshot" ] ~docv:"FILE"
             ~doc:"Load graph and schedules from a durable-store snapshot \
                   (docs/PERSISTENCE.md) — written by `stgq snapshot save` \
                   or by a serving checkpoint.  Overrides the generator \
                   and --graph/--schedules.")
  in
  let make kind n seed days graph_file sched_file snapshot =
    { kind; n; seed; days; graph_file; sched_file; snapshot }
  in
  Term.(const make $ kind $ n $ seed $ days $ graph_file $ sched_file $ snapshot)

let load_dataset src =
  match src.snapshot with
  | Some file -> (
      match Store.load_snapshot file with
      | Ok st -> (st.Store.graph, st.Store.schedules)
      | Error e -> Fmt.failwith "%s" (Store.string_of_error e))
  | None -> (
  match (src.graph_file, src.sched_file) with
  | Some gf, Some sf -> (Socgraph.Gio.load gf, Timetable.Sio.load sf)
  | Some gf, None ->
      let graph = Socgraph.Gio.load gf in
      let n = Socgraph.Graph.n_vertices graph in
      (graph, Array.init n (fun _ -> Timetable.Sched_gen.always_free ~days:src.days))
  | None, _ -> (
      match src.kind with
      | "people194" ->
          let ds = Workload.People194.generate ~seed:src.seed ~days:src.days () in
          (ds.Workload.People194.graph, ds.Workload.People194.schedules)
      | "coauthor" ->
          let ds =
            Workload.Coauthor.generate ~seed:src.seed ~days:src.days ~n:src.n ()
          in
          (ds.Workload.Coauthor.graph, ds.Workload.Coauthor.schedules)
      | other -> Fmt.failwith "unknown dataset kind %S (people194|coauthor)" other))

let initiator_term =
  Arg.(value & opt (some int) None
       & info [ "initiator"; "q" ] ~docv:"VERTEX"
           ~doc:"Initiator vertex (default: a well-connected one).")

let pick_initiator graph = function
  | Some q -> q
  | None -> Workload.Scenario.pick_initiator graph

let stats_term =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Enable instrumentation and print the metrics snapshot \
                 (see docs/OBSERVABILITY.md) after answering.")

(* [with_stats enabled run] brackets [run] with instrumentation and, when
   requested, prints the collected snapshot afterwards. *)
let with_stats stats run =
  if not stats then run ()
  else begin
    Obs.set_enabled true;
    Obs.reset ();
    run ();
    Fmt.pr "@.%s@." (Obs.table (Obs.snapshot ()))
  end

(* ------------------------------------------------------------------ *)
(* Tracing (sgq/stgq/trace): record spans and export them.             *)

let trace_out_term =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record a query trace and write Chrome trace-event JSON \
                 to $(docv); load it at https://ui.perfetto.dev or \
                 chrome://tracing.")

let write_trace_file file =
  let spans = Obs.Trace.spans () in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Obs.Trace.chrome_json spans));
  Fmt.epr "wrote %d spans to %s@." (List.length spans) file

(* [with_trace out run] brackets [run] with span recording when an
   export file was requested. *)
let with_trace trace_out run =
  match trace_out with
  | None -> run ()
  | Some file ->
      Obs.Trace.set_enabled true;
      Obs.Trace.reset ();
      run ();
      write_trace_file file

(* ------------------------------------------------------------------ *)
(* Resilience flags (sgq/stgq): any of them routes the answer through
   the Resilience degradation ladder — see docs/ROBUSTNESS.md.          *)

let deadline_term =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Answer through the resilience ladder with a wall-clock \
                 deadline of $(docv) milliseconds.")

let node_budget_term =
  Arg.(value & opt (some int) None
       & info [ "node-budget" ] ~docv:"N"
           ~doc:"Answer through the resilience ladder with a budget of \
                 $(docv) search-node expansions.")

let no_degrade_term =
  Arg.(value & flag
       & info [ "no-degrade" ]
           ~doc:"Disable the heuristic rung: when the budget expires with \
                 no incumbent, report Degraded instead of falling back to \
                 beam search.")

let policy_of deadline_ms node_limit no_degrade =
  if deadline_ms = None && node_limit = None && not no_degrade then None
  else
    Some
      {
        Resilience.default_policy with
        deadline_ms;
        node_limit;
        degrade = not no_degrade;
      }

(* Shared printer for ladder outcomes. *)
let print_resilient ~label ~pp_solution ~none_msg = function
  | Ok (a : _ Resilience.answer) -> (
      let qualifiers =
        String.concat ""
          [
            (match a.gap with
            | Some g when g > 0. -> Printf.sprintf ", gap <= %g" g
            | _ -> "");
            (match a.reason with
            | Some r -> ", budget " ^ Budget.reason_name r
            | None -> "");
            (if a.retries > 0 then Printf.sprintf ", %d retries" a.retries
             else "");
          ]
      in
      match a.value with
      | Some sol ->
          Fmt.pr "%s: %a@.  [rung %a%s]@." label pp_solution sol
            Resilience.pp_rung a.rung qualifiers
      | None -> Fmt.pr "%s: %s.  [rung %a%s]@." label none_msg
            Resilience.pp_rung a.rung qualifiers)
  | Error e -> Fmt.pr "%s: %a@." label Resilience.pp_error e

(* ------------------------------------------------------------------ *)
(* generate.                                                           *)

let generate_cmd =
  let graph_out =
    Arg.(value & opt string "graph.txt"
         & info [ "graph-out" ] ~docv:"FILE" ~doc:"Edge-list output path.")
  in
  let sched_out =
    Arg.(value & opt string "schedules.txt"
         & info [ "sched-out" ] ~docv:"FILE" ~doc:"Schedule output path.")
  in
  let run src graph_out sched_out =
    let graph, schedules = load_dataset src in
    Socgraph.Gio.save graph graph_out;
    Timetable.Sio.save schedules sched_out;
    Fmt.pr "wrote %s (%d vertices, %d edges) and %s (%d schedules)@." graph_out
      (Socgraph.Graph.n_vertices graph) (Socgraph.Graph.n_edges graph) sched_out
      (Array.length schedules)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Synthesise a dataset and write it to files.")
    Term.(const run $ source_term $ graph_out $ sched_out)

(* ------------------------------------------------------------------ *)
(* sgq.                                                                *)

let p_term = Arg.(value & opt int 4 & info [ "p" ] ~docv:"P" ~doc:"Group size.")
let s_term = Arg.(value & opt int 1 & info [ "s" ] ~docv:"S" ~doc:"Social radius.")
let k_term = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Acquaintance bound.")
let m_term = Arg.(value & opt int 4 & info [ "m" ] ~docv:"M" ~doc:"Activity length in slots.")

let algo_term choices default =
  Arg.(value & opt (enum choices) default
       & info [ "algo" ] ~docv:"ALGO"
           ~doc:(Printf.sprintf
                   "Algorithm: %s.  Ignored with $(b,--deadline-ms), \
                    $(b,--node-budget) or $(b,--no-degrade): the resilience \
                    ladder always solves with the sequential kernel."
                   (String.concat ", " (List.map fst choices))))

type sg_algo = Sg_select | Sg_baseline | Sg_ip

let sgq_cmd =
  let run src initiator p s k algo deadline node_budget no_degrade stats
      trace_out =
    with_stats stats @@ fun () ->
    with_trace trace_out @@ fun () ->
    let graph, schedules = load_dataset src in
    let instance = { Query.graph; initiator = pick_initiator graph initiator } in
    let query = { Query.p; s; k } in
    match policy_of deadline node_budget no_degrade with
    | Some policy ->
        let service = Service.create { Query.social = instance; schedules } in
        Service.sgq_r ~policy service ~initiator:instance.Query.initiator query
        |> print_resilient ~label:"SGSelect (resilient)"
             ~pp_solution:Query.pp_sg_solution ~none_msg:"no feasible group"
    | None ->
    let label, solution, detail =
      match algo with
      | Sg_select ->
          let r = Sgselect.solve_report instance query in
          ( "SGSelect",
            r.Sgselect.solution,
            Printf.sprintf "%d nodes, |V_F| = %d" r.Sgselect.stats.Search_core.nodes
              r.Sgselect.feasible_size )
      | Sg_baseline ->
          let r = Baseline.sgq_brute instance query in
          ( "Baseline",
            r.Baseline.solution,
            Printf.sprintf "%d candidate groups" r.Baseline.groups_examined )
      | Sg_ip ->
          let r = Ip_model.solve_sgq instance query in
          ( "IP (group form)",
            r.Ip_model.result,
            Printf.sprintf "%d B&B nodes" r.Ip_model.ilp_stats.Ilp.nodes_explored )
    in
    match solution with
    | Some sol ->
        Fmt.pr "%s: %a@.  [%s]@." label Query.pp_sg_solution sol detail;
        if not (Validate.is_valid_sg instance query sol) then
          Fmt.epr "WARNING: solution failed validation!@."
    | None -> Fmt.pr "%s: no feasible group.  [%s]@." label detail
  in
  let algo =
    algo_term [ ("sgselect", Sg_select); ("baseline", Sg_baseline); ("ip", Sg_ip) ]
      Sg_select
  in
  Cmd.v
    (Cmd.info "sgq" ~doc:"Answer a Social Group Query.")
    Term.(
      const run $ source_term $ initiator_term $ p_term $ s_term $ k_term $ algo
      $ deadline_term $ node_budget_term $ no_degrade_term $ stats_term
      $ trace_out_term)

(* ------------------------------------------------------------------ *)
(* stgq.                                                               *)

type stg_algo = St_select | St_baseline | St_parallel | St_ip

let domains_term =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"N"
           ~env:(Cmd.Env.info "STGQ_DOMAINS")
           ~doc:"Worker domains: the pool that runs whole requests, one per \
                 domain, or the pivot buckets of $(b,--algo parallel) \
                 (default: $(b,STGQ_DOMAINS) or the recommended domain \
                 count).")

let stgq_cmd =
  let run src initiator p s k m algo domains deadline node_budget no_degrade
      stats trace_out =
    with_stats stats @@ fun () ->
    with_trace trace_out @@ fun () ->
    let graph, schedules = load_dataset src in
    let ti =
      { Query.social = { Query.graph; initiator = pick_initiator graph initiator };
        schedules }
    in
    let query = { Query.p; s; k; m } in
    match policy_of deadline node_budget no_degrade with
    | Some policy ->
        Service.stgq_r ~policy (Service.create ti)
          ~initiator:ti.Query.social.Query.initiator query
        |> print_resilient ~label:"STGSelect (resilient)"
             ~pp_solution:(Query.pp_stg_solution ~m) ~none_msg:"no feasible group/time"
    | None ->
    let label, solution, detail =
      match algo with
      | St_select ->
          let r = Stgselect.solve_report ti query in
          ( "STGSelect",
            r.Stgselect.solution,
            Printf.sprintf "%d nodes over %d pivots" r.Stgselect.stats.Search_core.nodes
              r.Stgselect.pivots_scanned )
      | St_baseline ->
          let r = Baseline.stgq_per_slot ti query in
          ( "Baseline (per slot)",
            r.Baseline.st_solution,
            Printf.sprintf "%d windows" r.Baseline.windows_scanned )
      | St_parallel ->
          let r =
            Engine.Pool.with_pool ?size:domains (fun pool ->
                Parallel.solve_report ~pool ti query)
          in
          ( "STGSelect (parallel)",
            r.Parallel.solution,
            Printf.sprintf "%d domains, %d nodes" r.Parallel.domains_used
              r.Parallel.total_nodes )
      | St_ip ->
          let r = Ip_model.solve_stgq ti query in
          ( "IP (group form)",
            r.Ip_model.result,
            Printf.sprintf "%d B&B nodes" r.Ip_model.ilp_stats.Ilp.nodes_explored )
    in
    match solution with
    | Some sol ->
        Fmt.pr "%s: %a@.  [%s]@." label (Query.pp_stg_solution ~m) sol detail;
        if not (Validate.is_valid_stg ti query sol) then
          Fmt.epr "WARNING: solution failed validation!@."
    | None -> Fmt.pr "%s: no feasible group/time.  [%s]@." label detail
  in
  let algo =
    algo_term
      [
        ("stgselect", St_select);
        ("baseline", St_baseline);
        ("parallel", St_parallel);
        ("ip", St_ip);
      ]
      St_select
  in
  Cmd.v
    (Cmd.info "stgq" ~doc:"Answer a Social-Temporal Group Query.")
    Term.(
      const run $ source_term $ initiator_term $ p_term $ s_term $ k_term $ m_term
      $ algo $ domains_term $ deadline_term $ node_budget_term $ no_degrade_term
      $ stats_term $ trace_out_term)

(* ------------------------------------------------------------------ *)
(* arrange.                                                            *)

let arrange_cmd =
  let run src initiator p s m =
    let graph, schedules = load_dataset src in
    let ti =
      { Query.social = { Query.graph; initiator = pick_initiator graph initiator };
        schedules }
    in
    match Stgarrange.versus_pcarrange ti ~p ~s ~m with
    | None -> Fmt.pr "PCArrange found no group; nothing to compare.@."
    | Some ({ Stgarrange.k_used; solution }, pc) ->
        Fmt.pr "PCArrange : distance %.2f, observed k = %d@." pc.Pcarrange.total_distance
          pc.Pcarrange.observed_k;
        Fmt.pr "STGArrange: distance %.2f at k = %d@." solution.Query.st_total_distance
          k_used
  in
  Cmd.v
    (Cmd.info "arrange" ~doc:"Compare STGArrange with the PCArrange imitation.")
    Term.(const run $ source_term $ initiator_term $ p_term $ s_term $ m_term)

(* ------------------------------------------------------------------ *)
(* explain.                                                            *)

let explain_cmd =
  let run src initiator p s k m =
    let graph, schedules = load_dataset src in
    let ti =
      { Query.social = { Query.graph; initiator = pick_initiator graph initiator };
        schedules }
    in
    let query = { Query.p; s; k; m } in
    match Stgselect.solve ti query with
    | None -> Fmt.pr "No feasible group/time to explain.@."
    | Some solution ->
        if not (Validate.is_valid_stg ti query solution) then
          Fmt.epr "WARNING: solution failed validation!@.";
        let ex = Explain.stg ti query solution in
        Fmt.pr "%a" (Explain.pp ?name:None) ex
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Solve an STGQ and explain the returned group.")
    Term.(
      const run $ source_term $ initiator_term $ p_term $ s_term $ k_term $ m_term)

(* ------------------------------------------------------------------ *)
(* topk.                                                               *)

let topk_cmd =
  let n_best =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"How many groups to list.")
  in
  let run src initiator p s k m n =
    let graph, schedules = load_dataset src in
    let ti =
      { Query.social = { Query.graph; initiator = pick_initiator graph initiator };
        schedules }
    in
    let query = { Query.p; s; k; m } in
    let entries = Topk.stgq ~n ti query in
    if entries = [] then Fmt.pr "No feasible group/time.@."
    else
      List.iteri
        (fun i e ->
          let window, certified =
            match e.Topk.start_slot with
            | Some start_slot ->
                ( Printf.sprintf "  from %s" (Timetable.Slot.to_string start_slot),
                  Validate.is_valid_stg ti query
                    {
                      Query.st_attendees = e.Topk.attendees;
                      st_total_distance = e.Topk.total_distance;
                      start_slot;
                    } )
            | None -> ("", false)
          in
          Fmt.pr "#%d  distance %.2f  {%s}%s@." (i + 1) e.Topk.total_distance
            (String.concat ", " (List.map string_of_int e.Topk.attendees))
            window;
          if not certified then Fmt.epr "WARNING: solution failed validation!@.")
        entries
  in
  Cmd.v
    (Cmd.info "topk" ~doc:"List the N best groups for an STGQ.")
    Term.(
      const run $ source_term $ initiator_term $ p_term $ s_term $ k_term $ m_term
      $ n_best)

(* ------------------------------------------------------------------ *)
(* kplex: maximal cohesive subgroups around an initiator.              *)

let kplex_cmd =
  let min_size =
    Arg.(value & opt int 3
         & info [ "min-size" ] ~docv:"N" ~doc:"Smallest subgroup to report.")
  in
  let run src initiator s k min_size =
    let graph, _ = load_dataset src in
    let q = pick_initiator graph initiator in
    (* Restrict to the initiator's radius-s egocentric network; whole-graph
       enumeration is exponential and rarely what a user wants. *)
    let fg = Engine.Feasible.extract graph ~initiator:q ~s in
    let sub = fg.Engine.Feasible.sub in
    if Socgraph.Graph.n_vertices sub > 25 then
      Fmt.epr
        "note: egocentric network has %d vertices; enumeration may be slow.@."
        (Socgraph.Graph.n_vertices sub);
    let groups = Socgraph.Kplex.enumerate_maximal sub ~k ~min_size () in
    Fmt.pr "%d maximal subgroups (k=%d, min size %d) within %d edges of #%d:@."
      (List.length groups) k min_size s q;
    List.iter
      (fun group ->
        let originals = List.map (fun v -> fg.Engine.Feasible.of_sub.(v)) group in
        Fmt.pr "  {%s}@." (String.concat ", " (List.map string_of_int originals)))
      groups
  in
  Cmd.v
    (Cmd.info "kplex"
       ~doc:"Enumerate maximal acquaintance-bounded subgroups around an initiator.")
    Term.(const run $ source_term $ initiator_term $ s_term $ k_term $ min_size)

(* ------------------------------------------------------------------ *)
(* trace: answer one query under tracing and render the span tree.     *)

let trace_query ~trace_out run =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  run ();
  match Obs.Trace.last () with
  | None -> Fmt.epr "no trace recorded@."
  | Some tree ->
      Fmt.pr "%s@." (Obs.Trace.render tree);
      Fmt.pr "%s@." (Obs.Trace.render_waterfall (Obs.Trace.waterfall tree));
      Option.iter write_trace_file trace_out

let trace_sgq_cmd =
  let run src initiator p s k trace_out =
    let graph, schedules = load_dataset src in
    let initiator = pick_initiator graph initiator in
    let ti = { Query.social = { Query.graph; initiator }; schedules } in
    let service = Service.create ti in
    trace_query ~trace_out @@ fun () ->
    Service.sgq_r service ~initiator { Query.p; s; k }
    |> print_resilient ~label:"SGSelect" ~pp_solution:Query.pp_sg_solution
         ~none_msg:"no feasible group";
    Fmt.pr "@."
  in
  Cmd.v
    (Cmd.info "sgq" ~doc:"Trace one Social Group Query.")
    Term.(
      const run $ source_term $ initiator_term $ p_term $ s_term $ k_term
      $ trace_out_term)

let trace_stgq_cmd =
  let run src initiator p s k m trace_out =
    let graph, schedules = load_dataset src in
    let initiator = pick_initiator graph initiator in
    let ti = { Query.social = { Query.graph; initiator }; schedules } in
    (* One request runs on one worker domain, whatever the pool's size. *)
    Engine.Pool.with_pool ~size:1 @@ fun pool ->
    let service = Service.create ~pool ti in
    trace_query ~trace_out @@ fun () ->
    Service.stgq_r service ~initiator { Query.p; s; k; m }
    |> print_resilient ~label:"STGSelect" ~pp_solution:(Query.pp_stg_solution ~m)
         ~none_msg:"no feasible group/time";
    Fmt.pr "@."
  in
  Cmd.v
    (Cmd.info "stgq"
       ~doc:"Trace one Social-Temporal Group Query through a pooled \
             service, as $(b,stgq serve) answers it: the whole request \
             runs on one worker domain, and its root span carries the \
             time it waited for that domain.")
    Term.(
      const run $ source_term $ initiator_term $ p_term $ s_term $ k_term
      $ m_term $ trace_out_term)

(* Minimal HTTP/1.0 GET against the exposition endpoint — enough to
   pull one JSON body; the server closes after each response. *)
let http_get ~host ~port path =
  let inet = Unix.inet_addr_of_string host in
  let fd =
    Unix.socket ~cloexec:true
      (Unix.domain_of_sockaddr (Unix.ADDR_INET (inet, port)))
      Unix.SOCK_STREAM 0
  in
  Fun.protect ~finally:(fun () ->
      match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (inet, port));
  let req =
    Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s:%d\r\n\r\n" path host port
  in
  let rec write_all off len =
    if len > 0 then begin
      let n = Unix.write_substring fd req off len in
      write_all (off + n) (len - n)
    end
  in
  write_all 0 (String.length req);
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  let raw = Buffer.contents buf in
  let header_end =
    let n = String.length raw in
    let rec find i =
      if i + 4 > n then None
      else if String.sub raw i 4 = "\r\n\r\n" then Some i
      else find (i + 1)
    in
    find 0
  in
  match header_end with
  | None -> Fmt.failwith "malformed HTTP response"
  | Some i ->
      let status =
        match String.index_opt raw '\r' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      (status, String.sub raw (i + 4) (String.length raw - i - 4))

let trace_fetch_cmd =
  let id =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"ID"
             ~doc:"Trace id, as printed by `stgq query ... --connect` or \
                   listed at /traces.")
  in
  let connect =
    Arg.(value & opt string "127.0.0.1:7412"
         & info [ "connect" ] ~docv:"HOST:PORT"
             ~doc:"The exposition endpoint — the server's --metrics-port, \
                   not its wire port.")
  in
  let run id connect =
    let host, port =
      match String.rindex_opt connect ':' with
      | None -> Fmt.failwith "--connect expects HOST:PORT, got %S" connect
      | Some i -> (
          let host = String.sub connect 0 i in
          let port =
            String.sub connect (i + 1) (String.length connect - i - 1)
          in
          match int_of_string_opt port with
          | Some port -> (host, port)
          | None -> Fmt.failwith "--connect: bad port %S" port)
    in
    let status, body = http_get ~host ~port (Printf.sprintf "/trace/%d" id) in
    Fmt.pr "%s@." body;
    if not (String.length status >= 12 && String.sub status 9 3 = "200") then
      exit 1
  in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:"Fetch a retained trace tree from a running server's flight \
             recorder (GET /trace/ID on the --metrics-port endpoint); \
             exits non-zero when the trace was never retained or has been \
             evicted.")
    Term.(const run $ id $ connect)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Answer one query with span recording on and render the trace \
             tree and pruning waterfall, or fetch a retained trace from a \
             running server (see docs/OBSERVABILITY.md).")
    [ trace_sgq_cmd; trace_stgq_cmd; trace_fetch_cmd ]

(* ------------------------------------------------------------------ *)
(* serve: the binary wire-protocol query server (docs/PROTOCOL.md).    *)

let default_port = 7411

let serve_cmd =
  let bind_host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "bind" ] ~docv:"HOST" ~doc:"Numeric address to bind.")
  in
  let port =
    Arg.(value & opt int default_port
         & info [ "port" ] ~docv:"PORT" ~doc:"TCP port.")
  in
  let unix_socket =
    Arg.(value & opt (some string) None
         & info [ "unix-socket" ] ~docv:"PATH"
             ~doc:"Serve on a Unix-domain socket instead of TCP.")
  in
  let admission_limit =
    Arg.(value & opt int Server.default_config.Server.admission_limit
         & info [ "admission-limit" ] ~docv:"N"
             ~doc:"Shed work beyond $(docv) concurrently-executing \
                   requests with a typed Overloaded response.")
  in
  let store_dir =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Open (or create) a durable store in $(docv): recover \
                   state from its newest snapshot generation + WAL, journal \
                   every mutation before acking, and checkpoint when the \
                   WAL outgrows --checkpoint-bytes (docs/PERSISTENCE.md). \
                   On a fresh directory the dataset flags seed generation \
                   0; afterwards the store is the source of truth.")
  in
  let checkpoint_bytes =
    Arg.(value & opt int (1 lsl 20)
         & info [ "checkpoint-bytes" ] ~docv:"BYTES"
             ~doc:"WAL size at which the server folds the log into a new \
                   snapshot generation (default 1 MiB).")
  in
  let metrics_port =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Also expose /metrics and /healthz (which reports the \
                   store-recovery status) over HTTP on $(docv).")
  in
  let flight_recorder =
    Arg.(value & flag
         & info [ "flight-recorder" ]
             ~doc:"Enable the flight recorder: metrics, tracing, \
                   tail-sampled trace retention (/traces, /trace/:id), the \
                   structured event log (/events/tail) and the runtime \
                   sampler (/metrics/history) — see docs/OBSERVABILITY.md.")
  in
  let events_dir =
    Arg.(value & opt (some string) None
         & info [ "events-dir" ] ~docv:"DIR"
             ~doc:"Persist the event log as JSONL under $(docv) with \
                   size-capped rotation (implies --flight-recorder).")
  in
  let run src domains deadline node_budget no_degrade admission_limit bind_host
      port unix_socket store_dir checkpoint_bytes metrics_port
      flight_recorder events_dir stats =
    with_stats stats @@ fun () ->
    let flight_recorder = flight_recorder || events_dir <> None in
    if flight_recorder then begin
      Obs.set_enabled true;
      Obs.Trace.set_enabled true;
      Obs.Flightrec.set_enabled true;
      Obs.Events.configure ?dir:events_dir ();
      Obs.Runtime.start ()
    end;
    Fun.protect ~finally:(fun () ->
        if flight_recorder then begin
          Obs.Runtime.stop ();
          Obs.Events.stop ()
        end)
    @@ fun () ->
    (* recover the durable state first: once a store exists, it — not
       the dataset flags — is the source of truth *)
    let graph, schedules, store, recovery =
      match store_dir with
      | None ->
          let graph, schedules = load_dataset src in
          (graph, schedules, None, None)
      | Some dir -> (
          let init () =
            let graph, schedules = load_dataset src in
            Store.state_of_instance graph schedules
          in
          match Store.open_dir ~checkpoint_bytes ~init dir with
          | Ok (t, r) ->
              Fmt.epr "store %s: %s@." dir (Store.recovery_status r);
              ( r.Store.r_state.Store.graph,
                r.Store.r_state.Store.schedules,
                Some t,
                Some r )
          | Error e -> Fmt.failwith "%s" (Store.string_of_error e))
    in
    Fun.protect ~finally:(fun () -> Option.iter Store.close store)
    @@ fun () ->
    let ti = { Query.social = { Query.graph; initiator = 0 }; schedules } in
    Engine.Pool.with_pool ?size:domains @@ fun pool ->
    let service = Service.create ~pool ti in
    let config =
      {
        Server.default_config with
        admission_limit;
        policy = policy_of deadline node_budget no_degrade;
        store;
      }
    in
    let server = Server.create ~config service in
    let addr, where =
      match unix_socket with
      | Some path -> (Server.Unix_path path, path)
      | None ->
          (Server.Tcp (bind_host, port), Printf.sprintf "%s:%d" bind_host port)
    in
    (match metrics_port with
    | None -> ()
    | Some mport ->
        let health =
          Option.map
            (fun r () -> "store: " ^ Store.recovery_status r)
            recovery
        in
        let baseline = Obs.snapshot () in
        ignore
          (Thread.create
             (fun () ->
               Obs.Exposition.serve ?health ~baseline
                 (Obs.Exposition.Tcp (bind_host, mport)))
             ()
            : Thread.t);
        Fmt.epr "exposing /metrics and /healthz on http://%s:%d@." bind_host
          mport);
    Fmt.epr "serving the STGQ wire protocol (v%d) on %s@." Proto.version where;
    Server.serve server addr
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve SGQ/STGQ over the binary wire protocol; every request \
             runs through the resilient service layer (docs/PROTOCOL.md), \
             and with --store every schedule edit is journalled to a \
             crash-safe WAL before it is acknowledged \
             (docs/PERSISTENCE.md).")
    Term.(
      const run $ source_term $ domains_term $ deadline_term $ node_budget_term
      $ no_degrade_term $ admission_limit $ bind_host $ port $ unix_socket
      $ store_dir $ checkpoint_bytes $ metrics_port
      $ flight_recorder $ events_dir $ stats_term)

(* ------------------------------------------------------------------ *)
(* query: remote queries against a running `stgq serve`.               *)

let connect_term =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:(Printf.sprintf
                   "Server endpoint, numeric host (default: 127.0.0.1:%d)."
                   default_port))

let client_socket_term =
  Arg.(value & opt (some string) None
       & info [ "unix-socket" ] ~docv:"PATH"
           ~doc:"Connect to a Unix-domain socket instead of TCP.")

let client_addr connect unix_socket =
  match (connect, unix_socket) with
  | Some _, Some _ ->
      Fmt.failwith "--connect and --unix-socket are mutually exclusive"
  | None, Some path -> Server.Unix_path path
  | None, None -> Server.Tcp ("127.0.0.1", default_port)
  | Some hp, None -> (
      match String.rindex_opt hp ':' with
      | None -> Fmt.failwith "--connect expects HOST:PORT, got %S" hp
      | Some i -> (
          let host = String.sub hp 0 i in
          let port = String.sub hp (i + 1) (String.length hp - i - 1) in
          match int_of_string_opt port with
          | Some port -> Server.Tcp (host, port)
          | None -> Fmt.failwith "--connect: bad port %S" port))

(* Connect, run the version handshake, hand the connection to [f]. *)
let with_connection addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) @@ fun () ->
  match Server.Client.hello c ~client:"stgq-cli" with
  | Error msg -> Fmt.failwith "handshake failed: %s" msg
  | Ok _version -> f c

let wire_policy_of deadline_ms node_limit no_degrade =
  if deadline_ms = None && node_limit = None && not no_degrade then None
  else Some { Proto.deadline_ms; node_limit; degrade = not no_degrade }

let print_failed label = function
  | Proto.Overloaded { queue_depth; limit } ->
      Fmt.pr "%s: overloaded (%d in flight, limit %d); retry later@." label
        queue_depth limit
  | Proto.Degraded { reason; retries } ->
      Fmt.pr "%s: degraded (budget %s%s)@." label (Budget.reason_name reason)
        (if retries > 0 then Printf.sprintf ", %d retries" retries else "")
  | Proto.Unavailable { message; retries } ->
      Fmt.pr "%s: unavailable after %d retries: %s@." label retries message
  | Proto.Bad_request { message } ->
      Fmt.pr "%s: bad request: %s@." label message
  | Proto.Unsupported_version { server_version } ->
      Fmt.pr "%s: server speaks protocol v%d, this build speaks v%d@." label
        server_version Proto.version

(* Trace id 0 means the server predates tracing (wire v1) or answered
   with the flight recorder off. *)
let print_trace_id trace_id =
  if trace_id <> 0 then
    Fmt.pr "trace id: %d (fetch with `stgq trace fetch %d --connect ...`)@."
      trace_id trace_id

(* A [Failed] answer exits with its kind's code once the connection is
   closed, so a script can tell a refusal from an answer. *)
let query_request addr req ~on_answer ~label =
  let failed =
    with_connection addr @@ fun c ->
    match Server.Client.request c req with
    | Error e -> Fmt.failwith "wire error: %s" (Proto.string_of_decode_error e)
    | Ok (Proto.Failed err) ->
        print_failed label err;
        Some err
    | Ok resp ->
        on_answer resp;
        None
  in
  Option.iter (fun err -> exit (Server.Client.exit_code err)) failed

let query_exits =
  List.map (fun (code, doc) -> Cmd.Exit.info code ~doc) Server.Client.exit_codes
  @ Cmd.Exit.defaults

let query_sgq_cmd =
  let run connect unix_socket initiator p s k deadline node_budget no_degrade =
    let label = "SGSelect (wire)" in
    query_request (client_addr connect unix_socket)
      (Proto.Sgq
         {
           initiator = Option.value initiator ~default:0;
           q = { Query.p; s; k };
           policy = wire_policy_of deadline node_budget no_degrade;
         })
      ~label
      ~on_answer:(function
        | Proto.Sg_answer
            { value; rung; gap; retries; reason; certified = _; trace_id } ->
            print_resilient ~label ~pp_solution:Query.pp_sg_solution
              ~none_msg:"no feasible group"
              (Ok { Resilience.value; rung; gap; retries; reason });
            print_trace_id trace_id
        | resp -> Fmt.failwith "unexpected response: %a" Proto.pp_response resp)
  in
  Cmd.v
    (Cmd.info "sgq" ~exits:query_exits
       ~doc:"Answer a Social Group Query over the wire.")
    Term.(
      const run $ connect_term $ client_socket_term $ initiator_term $ p_term
      $ s_term $ k_term $ deadline_term $ node_budget_term $ no_degrade_term)

let query_stgq_cmd =
  let run connect unix_socket initiator p s k m deadline node_budget no_degrade =
    let label = "STGSelect (wire)" in
    query_request (client_addr connect unix_socket)
      (Proto.Stgq
         {
           initiator = Option.value initiator ~default:0;
           q = { Query.p; s; k; m };
           policy = wire_policy_of deadline node_budget no_degrade;
         })
      ~label
      ~on_answer:(function
        | Proto.Stg_answer
            { value; rung; gap; retries; reason; certified = _; trace_id } ->
            print_resilient ~label ~pp_solution:(Query.pp_stg_solution ~m)
              ~none_msg:"no feasible group/time"
              (Ok { Resilience.value; rung; gap; retries; reason });
            print_trace_id trace_id
        | resp -> Fmt.failwith "unexpected response: %a" Proto.pp_response resp)
  in
  Cmd.v
    (Cmd.info "stgq" ~exits:query_exits
       ~doc:"Answer a Social-Temporal Group Query over the wire.")
    Term.(
      const run $ connect_term $ client_socket_term $ initiator_term $ p_term
      $ s_term $ k_term $ m_term $ deadline_term $ node_budget_term
      $ no_degrade_term)

let query_ping_cmd =
  let msg =
    Arg.(value & opt string "ping"
         & info [ "message" ] ~docv:"TEXT" ~doc:"Payload to echo.")
  in
  let run connect unix_socket msg =
    query_request (client_addr connect unix_socket) (Proto.Ping msg)
      ~label:"ping"
      ~on_answer:(function
        | Proto.Pong echoed when String.equal echoed msg ->
            Fmt.pr "pong (%d bytes echoed)@." (String.length echoed)
        | resp -> Fmt.failwith "unexpected response: %a" Proto.pp_response resp)
  in
  Cmd.v
    (Cmd.info "ping" ~exits:query_exits
       ~doc:"Round-trip a Ping through a running server.")
    Term.(const run $ connect_term $ client_socket_term $ msg)

let query_cmd =
  Cmd.group
    (Cmd.info "query"
       ~doc:"Query a running `stgq serve` over the binary wire protocol \
             (--connect HOST:PORT or --unix-socket PATH).")
    [ query_sgq_cmd; query_stgq_cmd; query_ping_cmd ]

(* ------------------------------------------------------------------ *)
(* stats: run an instrumented serving workload and dump the metrics;   *)
(* stats serve: expose them over HTTP.                                 *)

let rounds_term =
  Arg.(value & opt int 3
       & info [ "rounds" ] ~docv:"N"
           ~doc:"Rounds over the same initiators (later rounds hit the \
                 context cache).")

let initiators_term =
  Arg.(value & opt int 4
       & info [ "initiators" ] ~docv:"N" ~doc:"Distinct initiators to query.")

(* The example workload behind `stats` and `stats serve`: [rounds] x
   [initiators] x {sgq, stgq} through a pooled service, one request at a
   time.  One request runs on one worker domain, so the pool has one. *)
let run_workload src p s k m rounds initiators =
  let graph, schedules = load_dataset src in
  let ti = { Query.social = { Query.graph; initiator = 0 }; schedules } in
  let queries = ref 0 in
  let served = function
    | Ok _ -> incr queries
    | Error e -> Fmt.failwith "query failed: %a" Resilience.pp_error e
  in
  (Engine.Pool.with_pool ~size:1 @@ fun pool ->
   let service = Service.create ~pool ti in
   for _round = 1 to rounds do
     for rank = 0 to initiators - 1 do
       let initiator = Workload.Scenario.pick_initiator ~rank graph in
       served (Service.sgq_r service ~initiator { Query.p; s; k });
       served (Service.stgq_r service ~initiator { Query.p; s; k; m })
     done
   done);
  !queries

let stats_default_term =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the snapshot as JSON instead of tables.")
  in
  let run src p s k m rounds initiators json =
    Obs.set_enabled true;
    Obs.reset ();
    let queries = run_workload src p s k m rounds initiators in
    let snap = Obs.snapshot () in
    if json then Fmt.pr "%s@." (Obs.json snap)
    else begin
      Fmt.pr "%d queries (%d rounds x %d initiators x {sgq, stgq})@.@." queries
        rounds initiators;
      Fmt.pr "%s@." (Obs.table snap)
    end
  in
  Term.(
    const run $ source_term $ p_term $ s_term $ k_term $ m_term $ rounds_term
    $ initiators_term $ json)

let stats_serve_cmd =
  let bind_host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "bind" ] ~docv:"HOST" ~doc:"Numeric address to bind.")
  in
  let port =
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port.")
  in
  let unix_socket =
    Arg.(value & opt (some string) None
         & info [ "unix-socket" ] ~docv:"PATH"
             ~doc:"Serve on a Unix-domain socket instead of TCP.")
  in
  let max_requests =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Exit after $(docv) requests (default: serve forever).")
  in
  let run src p s k m rounds initiators bind_host port unix_socket
      max_requests =
    Obs.set_enabled true;
    Obs.reset ();
    Obs.Trace.set_enabled true;
    (* Baseline before the workload, so /metrics/delta shows what this
       process did since startup. *)
    let baseline = Obs.snapshot () in
    let queries = run_workload src p s k m rounds initiators in
    let addr, where =
      match unix_socket with
      | Some path -> (Obs.Exposition.Unix_path path, path)
      | None ->
          (Obs.Exposition.Tcp (bind_host, port),
           Printf.sprintf "http://%s:%d" bind_host port)
    in
    Fmt.epr "%d queries served; exposing /metrics, /metrics/delta and \
             /trace/last on %s@." queries where;
    Obs.Exposition.serve ~baseline ?max_requests addr
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the instrumented workload, then expose Prometheus metrics \
             and the last trace over HTTP.")
    Term.(
      const run $ source_term $ p_term $ s_term $ k_term $ m_term $ rounds_term
      $ initiators_term $ bind_host $ port $ unix_socket
      $ max_requests)

let stats_cmd =
  Cmd.group ~default:stats_default_term
    (Cmd.info "stats"
       ~doc:"Run an instrumented example workload through the service layer \
             and print the metrics snapshot (or serve it: stats serve).")
    [ stats_serve_cmd ]

(* ------------------------------------------------------------------ *)
(* snapshot: durable-store images (docs/PERSISTENCE.md).               *)

let snapshot_pos_file =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"FILE" ~doc:"Snapshot file.")

let snapshot_save_cmd =
  let out =
    Arg.(value & opt string "snapshot.stgq"
         & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let run src out =
    let graph, schedules = load_dataset src in
    let state = Store.state_of_instance graph schedules in
    let bytes = Store.save_snapshot out state in
    Fmt.pr "wrote %s: %d bytes — %d vertices, %d edges, horizon %d@." out bytes
      (Socgraph.Graph.n_vertices graph)
      (Socgraph.Graph.n_edges graph)
      (if Array.length schedules = 0 then 0
       else Timetable.Availability.horizon schedules.(0))
  in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Encode a dataset as one CRC-framed snapshot image, written \
             via temp file + fsync + atomic rename.")
    Term.(const run $ source_term $ out)

let snapshot_verify_cmd =
  let run file =
    match Store.verify_snapshot file with
    | Ok info ->
        Fmt.pr "%s: ok — %d bytes, %d vertices, %d edges, horizon %d@." file
          info.Store.si_bytes info.Store.si_n info.Store.si_m
          info.Store.si_horizon
    | Error e ->
        Fmt.epr "%s@." (Store.string_of_error e);
        exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check a snapshot's framing, CRCs and structural invariants \
             without building the state; exit 1 on corruption.")
    Term.(const run $ snapshot_pos_file)

let snapshot_load_cmd =
  let run file =
    match Store.load_snapshot file with
    | Ok st ->
        let n = Socgraph.Graph.n_vertices st.Store.graph in
        let free =
          Array.fold_left
            (fun acc a -> acc + Timetable.Availability.free_count a)
            0 st.Store.schedules
        in
        Fmt.pr "%s: %d vertices, %d edges, horizon %d, %d free slots@." file n
          (Socgraph.Graph.n_edges st.Store.graph)
          (if n = 0 then 0
           else Timetable.Availability.horizon st.Store.schedules.(0))
          free
    | Error e ->
        Fmt.epr "%s@." (Store.string_of_error e);
        exit 1
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Decode a snapshot into memory and print a summary; exit 1 on \
             corruption.")
    Term.(const run $ snapshot_pos_file)

let snapshot_cmd =
  Cmd.group
    (Cmd.info "snapshot"
       ~doc:"Save, load and verify durable-store snapshot images \
             (docs/PERSISTENCE.md).  Any query command accepts one as its \
             dataset via --snapshot.")
    [ snapshot_save_cmd; snapshot_load_cmd; snapshot_verify_cmd ]

let () =
  let info =
    Cmd.info "stgq" ~version:"1.0.0"
      ~doc:"Social-Temporal Group Queries with acquaintance constraints (VLDB'11)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            sgq_cmd;
            stgq_cmd;
            arrange_cmd;
            explain_cmd;
            topk_cmd;
            kplex_cmd;
            trace_cmd;
            serve_cmd;
            query_cmd;
            stats_cmd;
            snapshot_cmd;
          ]))
