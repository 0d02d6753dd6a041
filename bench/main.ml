(* Experiment harness: regenerates every figure of the paper's §5
   (Fig. 1(a)-(h)) plus the ablation studies listed in DESIGN.md, and runs
   a Bechamel micro-suite with one Test.make per figure.  Absolute times
   differ from the paper's IBM x3650 testbed; the *shape* of each series
   (who wins, growth trends) is the reproduction target — see
   EXPERIMENTS.md.  Timings read the monotonic clock.

   Usage: dune exec bench/main.exe -- [--fast] [--only=fig1a,fig1e,...]
                                      [--skip-bechamel] [--domains=N]
                                      [--smoke] [--passes=N]

   --only=paper prints the Fig. 1 record instead: node counts and optima
   for every shape of the full sweeps, as one JSON document that the
   bench runtest rule diffs against the tracked bench/BENCH_paper.json.

   --only=hot_time times perfbench's hot mix in process: --passes (20
   by default) passes over its 528 pairs on cached contexts, with each
   half's minimum, quartiles and median per pass, its node counts and
   its answer digest.  Like paper, it runs only when named.

   --smoke runs the durable-store smoke at n = 100k users behind the root
   @bench-smoke alias and writes BENCH_scale.json.

   --domains sizes the pool of the parallel ablation; without it
   Engine.Pool reads STGQ_DOMAINS, else uses the recommended count. *)

open Stgq_core

(* ------------------------------------------------------------------ *)
(* Tunables.                                                           *)

type settings = {
  fast : bool;
  group_cap : int;      (* brute-force enumeration cap *)
  ip_node_cap : int;    (* branch-and-bound node cap *)
  domains : int option; (* --domains override *)
  passes : int;         (* --passes: hot_time's passes over the mix *)
}

let full_settings =
  { fast = false; group_cap = 4_000_000; ip_node_cap = 40_000; domains = None; passes = 20 }

let fast_settings =
  { fast = true; group_cap = 200_000; ip_node_cap = 4_000; domains = None; passes = 20 }

(* ------------------------------------------------------------------ *)
(* Timing helpers.  A capped run reports the elapsed time at the cap,
   flagged with '>' — the series keeps its shape without letting the
   exponential baselines run for hours.                                *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () -. t0)

let percentile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))

type timed = Done of float * string | Capped of float

let ns_cell = function
  | Done (t, _) -> Report.ns t
  | Capped t -> ">" ^ Report.ns t

let detail_cell = function Done (_, d) -> d | Capped _ -> "capped"

(* Raised by the solver wrappers below when a total baseline reports a
   truncated outcome — [timed] turns it into a [Capped] row. *)
exception Capped_run

let timed f =
  let t0 = now_ns () in
  match f () with
  | detail -> Done (now_ns () -. t0, detail)
  | exception (Capped_run | Failure _) -> Capped (now_ns () -. t0)

let dist_of = function None -> "none" | Some d -> Printf.sprintf "%.1f" d

let sg_dist sol =
  dist_of (Option.map (fun (s : Query.sg_solution) -> s.total_distance) sol)

let stg_dist sol =
  dist_of (Option.map (fun (s : Query.stg_solution) -> s.st_total_distance) sol)

(* Solver wrappers returning a distance string as the detail column. *)
let run_sgselect instance query () = sg_dist (Sgselect.solve instance query)

let run_sg_baseline ~cap instance query () =
  let report = Baseline.sgq_brute ~max_groups:cap instance query in
  if not (Anytime.complete report.Baseline.outcome) then raise Capped_run;
  sg_dist report.Baseline.solution

let run_sg_ip ~cap instance query () =
  sg_dist (Ip_model.solve_sgq ~node_limit:cap instance query).Ip_model.result

let run_stgselect ti query () = stg_dist (Stgselect.solve ti query)

let run_stg_baseline ti query () =
  let report = Baseline.stgq_per_slot ti query in
  if not (Anytime.complete report.Baseline.st_outcome) then raise Capped_run;
  stg_dist report.Baseline.st_solution

let print_table ~title ~header rows =
  print_newline ();
  print_endline (Report.table ~title ~header rows);
  flush stdout

(* Shared datasets. *)
let dataset_194 = lazy (Workload.Scenario.people194 ~seed:1105 ~days:7 ())

let social_194 () = (Lazy.force dataset_194).Query.social

(* ------------------------------------------------------------------ *)
(* The Fig. 1 sweeps: every point as (x value, instance, query).  The
   timed tables and the node-count record ([paper]) walk the same
   points.                                                             *)

let sweep st ~fast ~full = if st.fast then fast else full

let fig1a_points st =
  List.map
    (fun p -> (p, social_194 (), { Query.p; s = 1; k = 2 }))
    (sweep st ~fast:[ 3; 4; 5; 6; 7 ] ~full:[ 3; 4; 5; 6; 7; 8; 9; 10; 11 ])

let fig1b_points st =
  List.map
    (fun s -> (s, social_194 (), { Query.p = 4; s; k = 2 }))
    (sweep st ~fast:[ 1; 3 ] ~full:[ 1; 3; 5 ])

let fig1c_points st =
  List.map
    (fun k -> (k, social_194 (), { Query.p = 5; s = 2; k }))
    (sweep st ~fast:[ 1; 2; 3 ] ~full:[ 1; 2; 3; 4; 5; 6 ])

(* A busy-but-not-hub initiator keeps the feasible graph size comparable
   across n, as a per-user egocentric query would be. *)
let fig1d_points st =
  List.map
    (fun n ->
      let ds = Workload.Coauthor.generate ~seed:7 ~days:1 ~n () in
      let graph = ds.Workload.Coauthor.graph in
      let initiator = Workload.Scenario.pick_initiator ~rank:10 graph in
      (n, { Query.graph; initiator }, { Query.p = 5; s = 1; k = 3 }))
    (sweep st ~fast:[ 194; 800 ] ~full:[ 194; 800; 3200; 12800 ])

let fig1e_points st =
  List.map
    (fun m -> (m, Lazy.force dataset_194, { Query.p = 4; s = 1; k = 2; m }))
    (sweep st ~fast:[ 2; 4; 8; 12 ] ~full:[ 2; 4; 6; 8; 10; 12; 14; 16; 18; 20; 22; 24 ])

let fig1f_points st =
  List.map
    (fun days ->
      ( days,
        Workload.Scenario.people194 ~seed:1105 ~days (),
        { Query.p = 4; s = 1; k = 2; m = 4 } ))
    (sweep st ~fast:[ 1; 3; 5 ] ~full:[ 1; 2; 3; 4; 5; 6; 7 ])

let fig1gh_ps st = sweep st ~fast:[ 3; 5; 7 ] ~full:[ 3; 4; 5; 6; 7; 8; 9; 10; 11 ]

(* ------------------------------------------------------------------ *)
(* Fig. 1(a)-(d): SGQ running time, SGSelect against the brute-force
   baseline and (in (a) and (d)) the IP model.  (d) also reports
   |V_F|, which at s=1 is the initiator's degree + 1.                  *)

let sg_figure st ~title ~x ?(ip = false) ?(vf = false) points =
  let opt flag cells = if flag then cells else [] in
  let rows =
    List.map
      (fun (v, (instance : Query.instance), query) ->
        let sel = timed (run_sgselect instance query) in
        let base = timed (run_sg_baseline ~cap:st.group_cap instance query) in
        let ip_cell () = ns_cell (timed (run_sg_ip ~cap:st.ip_node_cap instance query)) in
        let vf_cell () =
          string_of_int (Socgraph.Graph.degree instance.graph instance.initiator + 1)
        in
        (string_of_int v :: opt vf [ vf_cell () ])
        @ [ ns_cell sel; ns_cell base ]
        @ opt ip [ ip_cell () ]
        @ [ detail_cell sel ])
      points
  in
  print_table ~title
    ~header:
      ((x :: opt vf [ "|V_F|" ])
      @ [ "SGSelect"; "Baseline" ] @ opt ip [ "IP" ] @ [ "distance" ])
    rows

let fig1a st () =
  sg_figure st ~ip:true ~x:"p" (fig1a_points st)
    ~title:"Fig 1(a)  running time vs p   (k=2, s=1, 194-person network)"

let fig1b st () =
  sg_figure st ~x:"s" (fig1b_points st)
    ~title:"Fig 1(b)  running time vs s   (p=4, k=2, 194-person network)"

let fig1c st () =
  sg_figure st ~x:"k" (fig1c_points st)
    ~title:"Fig 1(c)  running time vs k   (p=5, s=2, 194-person network)"

let fig1d st () =
  sg_figure st ~ip:true ~vf:true ~x:"network" (fig1d_points st)
    ~title:"Fig 1(d)  running time vs network size   (p=5, k=3, s=1, coauthor networks)"

(* ------------------------------------------------------------------ *)
(* Fig. 1(e)/(f): STGQ running time, STGSelect against the per-slot
   baseline, vs m and vs schedule length in days.                      *)

let stg_figure ~title ~x points =
  print_table ~title
    ~header:[ x; "STGSelect"; "Baseline"; "distance" ]
    (List.map
       (fun (v, ti, query) ->
         let sel = timed (run_stgselect ti query) in
         let base = timed (run_stg_baseline ti query) in
         [ string_of_int v; ns_cell sel; ns_cell base; detail_cell sel ])
       points)

let fig1e st () =
  stg_figure ~x:"m" (fig1e_points st)
    ~title:"Fig 1(e)  running time vs m   (p=4, k=2, s=1, 7-day schedules, 0.5h slots)"

let fig1f st () =
  stg_figure ~x:"days" (fig1f_points st)
    ~title:"Fig 1(f)  running time vs schedule length   (p=4, k=2, s=1, m=4)"

(* ------------------------------------------------------------------ *)
(* Fig. 1(g)/(h): solution quality, STGArrange vs PCArrange.           *)

let fig1gh st () =
  let ti = Lazy.force dataset_194 in
  let rows =
    List.map
      (fun p ->
        match Stgarrange.versus_pcarrange ti ~p ~s:2 ~m:4 with
        | None -> [ string_of_int p; "-"; "-"; "-"; "-" ]
        | Some ({ Stgarrange.k_used; solution }, pc) ->
            [
              string_of_int p;
              string_of_int k_used;
              string_of_int pc.Pcarrange.observed_k;
              Printf.sprintf "%.1f" solution.Query.st_total_distance;
              Printf.sprintf "%.1f" pc.Pcarrange.total_distance;
            ])
      (fig1gh_ps st)
  in
  print_table
    ~title:"Fig 1(g)+(h)  solution quality vs p   (s=2, m=4): k and total distance"
    ~header:[ "p"; "k STGArrange"; "k PCArrange"; "dist STGArrange"; "dist PCArrange" ]
    rows

(* ------------------------------------------------------------------ *)
(* The served mix of perfbench's [hot] workload ({!Workload.Hot}):
   every (shape, initiator) pair, SGQs first, solved sequentially on a
   context built once per (initiator, s): SGSelect's and STGSelect's
   search counters summed over their pairs, the optima summed in pair
   order, and a digest of every pair's answer (original ids, distance
   bits, start slot), which sees a changed tie that the sum cannot.
   The waterfall totals pin every per-candidate decision, not only
   those that change a node count.  [hot_mix ()] builds the world and
   its 16 contexts, and returns the pass that solves the mix on them;
   each pass also times its SGQ and its STGQ half on the monotonic
   clock, around the solves alone.                                     *)

let add_stats (acc : Search_core.stats) (st : Search_core.stats) =
  acc.nodes <- acc.nodes + st.nodes;
  acc.examined <- acc.examined + st.examined;
  acc.includes <- acc.includes + st.includes;
  acc.deferred <- acc.deferred + st.deferred;
  acc.pruned_distance <- acc.pruned_distance + st.pruned_distance;
  acc.pruned_acquaintance <- acc.pruned_acquaintance + st.pruned_acquaintance;
  acc.pruned_availability <- acc.pruned_availability + st.pruned_availability;
  acc.removed_exterior <- acc.removed_exterior + st.removed_exterior;
  acc.removed_interior <- acc.removed_interior + st.removed_interior;
  acc.removed_temporal <- acc.removed_temporal + st.removed_temporal

type hot_pass = {
  pairs : int;
  sg : Search_core.stats;
  stg : Search_core.stats;
  distance_sum : float;
  digest : string;
  sg_ns : float;   (* the SGQ half's solves *)
  stg_ns : float;  (* the STGQ half's solves *)
}

let hot_mix () =
  let ds = Workload.Hot.world () in
  let graph = ds.Workload.People194.graph in
  let schedules = ds.Workload.People194.schedules in
  let initiators = Workload.Hot.initiators graph in
  let contexts = Hashtbl.create 16 in
  List.iter
    (fun initiator ->
      List.iter
        (fun s -> Hashtbl.replace contexts (initiator, s) (Engine.Context.build graph ~initiator ~s))
        [ 1; 2 ])
    initiators;
  let context initiator s = Hashtbl.find contexts (initiator, s) in
  let each shapes solve =
    List.concat_map
      (fun shape -> List.map (fun initiator -> solve shape { Query.graph; initiator }) initiators)
      shapes
  in
  fun () ->
    let sg_reports, sg_ns =
      time (fun () ->
          each Workload.Hot.sgq_shapes (fun (q : Query.sgq) social ->
              Sgselect.solve_report ~ctx:(context social.Query.initiator q.s) social q))
    in
    let stg_reports, stg_ns =
      time (fun () ->
          each Workload.Hot.stgq_shapes (fun (q : Query.stgq) social ->
              Stgselect.solve_report ~ctx:(context social.Query.initiator q.s)
                { Query.social; schedules } q))
    in
    let sum = ref 0. and answers = Buffer.create 4096 in
    let sg = Search_core.fresh_stats () and stg = Search_core.fresh_stats () in
    let add = function
      | Some (group, d, slot) ->
          sum := !sum +. d;
          Printf.bprintf answers "%s %Ld %s\n"
            (String.concat "," (List.map string_of_int group))
            (Int64.bits_of_float d)
            (match slot with Some t -> string_of_int t | None -> "none")
      | None -> Buffer.add_string answers "none\n"
    in
    List.iter
      (fun (r : Sgselect.report) ->
        add_stats sg r.stats;
        add
          (Option.map
             (fun s -> (s.Query.attendees, s.Query.total_distance, None))
             r.solution))
      sg_reports;
    List.iter
      (fun (r : Stgselect.report) ->
        add_stats stg r.stats;
        add
          (Option.map
             (fun s ->
               (s.Query.st_attendees, s.Query.st_total_distance, Some s.Query.start_slot))
             r.solution))
      stg_reports;
    {
      pairs = List.length sg_reports + List.length stg_reports;
      sg;
      stg;
      distance_sum = !sum;
      digest = Digest.to_hex (Digest.string (Buffer.contents answers));
      sg_ns;
      stg_ns;
    }

(* In-process timing of the mix (--only=hot_time [--passes N]): N
   passes on the same contexts, each half's minimum, quartiles and
   median in ms per pass, with the node counts and the answer digest,
   which every pass must repeat.  On a shared host, compare two builds
   run at the same time, or by their minima. *)
let hot_time st () =
  let pass = hot_mix () in
  let runs = List.init st.passes (fun _ -> pass ()) in
  let first = List.hd runs in
  if List.exists (fun r -> r.digest <> first.digest) runs then begin
    print_endline "hot_time: FAILED — the passes disagree on the answers";
    exit 1
  end;
  let row name ns =
    let ms = List.map (fun r -> ns r /. 1e6) runs in
    name :: List.map (fun q -> Printf.sprintf "%.2f" (percentile ms q)) [ 0.; 0.25; 0.5; 0.75 ]
  in
  print_table
    ~title:
      (Printf.sprintf "hot mix in process: %d pairs, %d passes on 16 cached contexts (ms per pass)"
         first.pairs st.passes)
    ~header:[ "half"; "min"; "q1"; "median"; "q3" ]
    [
      row "SGQ" (fun r -> r.sg_ns);
      row "STGQ" (fun r -> r.stg_ns);
      row "both" (fun r -> r.sg_ns +. r.stg_ns);
    ];
  Printf.printf "nodes: SGSelect %d, STGSelect %d; answer_digest %s\n%!" first.sg.nodes
    first.stg.nodes first.digest

(* ------------------------------------------------------------------ *)
(* The Fig. 1 record (--only=paper): per shape of the full sweeps, the
   search nodes SGSelect/STGSelect visit, the optimum and the start
   slot; for (g)/(h), STGArrange's and PCArrange's k and distance at
   p = 3-7 (beyond, STGArrange's k ladder takes seconds per point).
   Optima print to 9 significant digits, because the same group's sum
   can differ in the last ulp between shapes (summation order).  No
   clock is read, so the output is exact and diffable.                 *)

let paper _ () =
  let st = full_settings in
  let num d = Printf.sprintf "%.9g" d in
  let row fields =
    "    {"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}"
  in
  let ints = List.map (fun (k, v) -> (k, string_of_int v)) in
  let opt f = function Some v -> f v | None -> "null" in
  (* [x] names the point's value when it is not a query field. *)
  let x_field x v = match x with Some name -> [ (name, v) ] | None -> [] in
  let sg_rows ?x points =
    List.map
      (fun (v, instance, (q : Query.sgq)) ->
        let r = Sgselect.solve_report instance q in
        row
          (ints (x_field x v @ [ ("p", q.p); ("s", q.s); ("k", q.k) ])
          @ [
              ("nodes", string_of_int r.Sgselect.stats.Search_core.nodes);
              ("distance", opt (fun s -> num s.Query.total_distance) r.Sgselect.solution);
            ]))
      points
  in
  let stg_rows ?x points =
    List.map
      (fun (v, ti, (q : Query.stgq)) ->
        let r = Stgselect.solve_report ti q in
        let sol f = opt f r.Stgselect.solution in
        row
          (ints (x_field x v @ [ ("p", q.p); ("s", q.s); ("k", q.k); ("m", q.m) ])
          @ [
              ("nodes", string_of_int r.Stgselect.stats.Search_core.nodes);
              ("distance", sol (fun s -> num s.Query.st_total_distance));
              ("start_slot", sol (fun s -> string_of_int s.Query.start_slot));
            ]))
      points
  in
  let arrange_row p =
    let shape = ints [ ("p", p); ("s", 2); ("m", 4) ] in
    match Stgarrange.versus_pcarrange (Lazy.force dataset_194) ~p ~s:2 ~m:4 with
    | None -> row (shape @ [ ("pcarrange", "null") ])
    | Some ({ Stgarrange.k_used; solution }, pc) ->
        row
          (shape
          @ [
              ("stgarrange_k", string_of_int k_used);
              ("stgarrange_distance", num solution.Query.st_total_distance);
              ("pcarrange_k", string_of_int pc.Pcarrange.observed_k);
              ("pcarrange_distance", num pc.Pcarrange.total_distance);
            ])
  in
  let hot_mix_rows () =
    let { pairs; sg; stg; distance_sum; digest; _ } = hot_mix () () in
    let waterfall name (w : Search_core.stats) =
      row
        (("kernel", Printf.sprintf "%S" name)
        :: ints
             [
               ("examined", w.examined);
               ("includes", w.includes);
               ("deferred", w.deferred);
               ("pruned_distance", w.pruned_distance);
               ("pruned_acquaintance", w.pruned_acquaintance);
               ("pruned_availability", w.pruned_availability);
               ("removed_exterior", w.removed_exterior);
               ("removed_interior", w.removed_interior);
               ("removed_temporal", w.removed_temporal);
             ])
    in
    [
      row
        (ints [ ("pairs", pairs); ("sgselect_nodes", sg.nodes); ("stgselect_nodes", stg.nodes) ]
        @ [ ("distance_sum", Printf.sprintf "%.9f" distance_sum) ]);
      row [ ("answer_digest", Printf.sprintf "%S" digest) ];
      waterfall "sgselect" sg;
      waterfall "stgselect" stg;
    ]
  in
  let figure (name, rows) =
    Printf.sprintf "  %S: [\n%s\n  ]" name (String.concat ",\n" rows)
  in
  print_endline "{";
  print_endline
    (String.concat ",\n"
       (List.map figure
          [
            ("fig1a", sg_rows (fig1a_points st));
            ("fig1b", sg_rows (fig1b_points st));
            ("fig1c", sg_rows (fig1c_points st));
            ("fig1d", sg_rows ~x:"n" (fig1d_points st));
            ("fig1e", stg_rows (fig1e_points st));
            ("fig1f", stg_rows ~x:"days" (fig1f_points st));
            ("fig1gh", List.map arrange_row (List.filter (( >= ) 7) (fig1gh_ps st)));
            ("hot_mix", hot_mix_rows ());
          ]));
  print_endline "}"

(* ------------------------------------------------------------------ *)
(* Ablations A1-A3: SGSelect strategy toggles.                         *)

let ablation_sg st () =
  let instance = social_194 () in
  let query = { Query.p = (if st.fast then 5 else 7); s = 2; k = 2 } in
  let configs =
    [
      ("full SGSelect", Search_core.default_config);
      ( "no access ordering",
        { Search_core.default_config with Search_core.use_access_ordering = false } );
      ( "no distance pruning",
        { Search_core.default_config with Search_core.use_distance_pruning = false } );
      ( "no acquaintance pruning",
        { Search_core.default_config with Search_core.use_acquaintance_pruning = false }
      );
      ( "no pruning at all",
        {
          Search_core.default_config with
          Search_core.use_access_ordering = false;
          use_distance_pruning = false;
          use_acquaintance_pruning = false;
        } );
    ]
  in
  let rows =
    List.map
      (fun (name, config) ->
        let r, t = time (fun () -> Sgselect.solve_report ~config instance query) in
        [
          name;
          Report.ns t;
          string_of_int r.Sgselect.stats.Search_core.nodes;
          sg_dist r.Sgselect.solution;
        ])
      configs
  in
  print_table
    ~title:
      (Printf.sprintf
         "Ablation A1-A3  SGSelect strategies   (p=%d, s=2, k=2, 194-person network)"
         query.Query.p)
    ~header:[ "variant"; "time"; "search nodes"; "distance" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations A4-A6: temporal strategies and the parallel extension.    *)

let ablation_stg st () =
  let ti = Lazy.force dataset_194 in
  let query = { Query.p = 4; s = 1; k = 2; m = (if st.fast then 4 else 8) } in
  let no_avail =
    { Search_core.default_config with Search_core.use_availability_pruning = false }
  in
  let rows =
    [
      (let t = timed (run_stgselect ti query) in
       [ "STGSelect (pivot slots)"; ns_cell t; detail_cell t ]);
      (let t = timed (fun () -> stg_dist (Stgselect.solve ~config:no_avail ti query)) in
       [ "no availability pruning"; ns_cell t; detail_cell t ]);
      (let t = timed (run_stg_baseline ti query) in
       [ "per-slot scan (no pivots)"; ns_cell t; detail_cell t ]);
      (Engine.Pool.with_pool ?size:st.domains @@ fun pool ->
       let t = timed (fun () -> stg_dist (Parallel.solve ~pool ti query)) in
       [
         Printf.sprintf "parallel pivots (%d domains)" (Engine.Pool.size pool);
         ns_cell t;
         detail_cell t;
       ]);
    ]
  in
  print_table
    ~title:
      (Printf.sprintf "Ablation A4-A6  temporal strategies   (p=4, s=1, k=2, m=%d)"
         query.Query.m)
    ~header:[ "variant"; "time"; "distance" ]
    rows

(* ------------------------------------------------------------------ *)
(* Extension E1: heuristic quality vs exact.                           *)

let ext_heuristics st () =
  let instance = social_194 () in
  let ps = if st.fast then [ 4; 6 ] else [ 4; 6; 8; 10 ] in
  let rows =
    List.concat_map
      (fun p ->
        let query = { Query.p; s = 2; k = 2 } in
        let run name f =
          let r, t = time f in
          (name, t, r)
        in
        let exact = run "SGSelect (exact)" (fun () -> Sgselect.solve instance query) in
        let beam1 = run "beam w=1" (fun () -> Heuristics.beam_sgq ~width:1 instance query) in
        let beam8 = run "beam w=8" (fun () -> Heuristics.beam_sgq ~width:8 instance query) in
        let beam64 =
          run "beam w=64" (fun () -> Heuristics.beam_sgq ~width:64 instance query)
        in
        let opt =
          match exact with _, _, Some s -> s.Query.total_distance | _ -> nan
        in
        let ratio = function
          | _, _, Some s when Float.is_finite opt ->
              Printf.sprintf "%.3f" (s.Query.total_distance /. opt)
          | _, _, Some _ -> "-"
          | _, _, None -> "fail"
        in
        List.map
          (fun ((name, t, _) as entry) ->
            [ string_of_int p; name; Report.ns t; ratio entry ])
          [ exact; beam1; beam8; beam64 ])
      ps
  in
  print_table
    ~title:"Extension E1  heuristic quality   (s=2, k=2; ratio = distance / optimum)"
    ~header:[ "p"; "solver"; "time"; "ratio" ]
    rows

(* ------------------------------------------------------------------ *)
(* Extension E2: top-k overhead over single-best.                      *)

let ext_topk st () =
  let ti = Lazy.force dataset_194 in
  let query = { Query.p = 4; s = 1; k = 2; m = 4 } in
  let ns_list = if st.fast then [ 1; 5 ] else [ 1; 5; 10; 25 ] in
  let single = timed (run_stgselect ti query) in
  let rows =
    ([ "1 (STGSelect)"; ns_cell single; "1"; detail_cell single ]
     :: List.map
          (fun n ->
            let found, t = time (fun () -> Topk.stgq ~n ti query) in
            [
              string_of_int n;
              Report.ns t;
              string_of_int (List.length found);
              (match found with
              | e :: _ -> Printf.sprintf "%.1f" e.Topk.total_distance
              | [] -> "none");
            ])
          ns_list)
  in
  print_table ~title:"Extension E2  top-k overhead   (p=4, s=1, k=2, m=4)"
    ~header:[ "k requested"; "time"; "groups returned"; "best distance" ]
    rows

(* ------------------------------------------------------------------ *)
(* Extension E3: incremental replanning vs full re-solve.              *)

let ext_planner st () =
  let ti = Workload.Scenario.people194 ~seed:1105 ~days:7 () in
  let query = { Query.p = 4; s = 1; k = 2; m = 4 } in
  let planner, create_ns = time (fun () -> Planner.create ti query) in
  let rng = Random.State.make [| 5 |] in
  let horizon = Timetable.Availability.horizon ti.Query.schedules.(0) in
  let edits = if st.fast then 10 else 30 in
  let incr_ns = ref 0. and full = ref 0. and redone = ref 0 and mismatches = ref 0 in
  for _ = 1 to edits do
    let vertex =
      match Planner.solution planner with
      | Some s when Random.State.bool rng ->
          let members = Array.of_list s.Query.st_attendees in
          members.(Random.State.int rng (Array.length members))
      | _ -> Random.State.int rng (Array.length ti.Query.schedules)
    in
    let schedule = (Planner.schedules planner).(vertex) in
    let lo = Random.State.int rng (horizon - 4) in
    Timetable.Availability.set_busy schedule lo (lo + 3);
    let stats, dt =
      time (fun () -> Planner.update_schedule planner ~vertex schedule)
    in
    incr_ns := !incr_ns +. dt;
    redone := !redone + stats.Planner.pivots_recomputed;
    let fresh_ti = { ti with Query.schedules = Planner.schedules planner } in
    let fresh, dt_full = time (fun () -> Stgselect.solve fresh_ti query) in
    full := !full +. dt_full;
    (match (Planner.solution planner, fresh) with
    | None, None -> ()
    | Some a, Some b
      when Float.abs (a.Query.st_total_distance -. b.Query.st_total_distance) < 1e-9 ->
        ()
    | _ -> incr mismatches)
  done;
  print_table
    ~title:
      (Printf.sprintf
         "Extension E3  incremental replanning   (%d random edits, p=4, s=1, k=2, m=4)"
         edits)
    ~header:[ "metric"; "value" ]
    [
      [ "planner build"; Report.ns create_ns ];
      [ "incremental total"; Report.ns !incr_ns ];
      [ "full re-solve total"; Report.ns !full ];
      [ "pivots recomputed"; string_of_int !redone ];
      [ "answer mismatches"; string_of_int !mismatches ];
    ]

(* ------------------------------------------------------------------ *)
(* Extension E4: SGQ vs the community-search related work ([20]).      *)

let ext_community st () =
  ignore st;
  let instance = social_194 () in
  let g = instance.Query.graph in
  let q = instance.Query.initiator in
  let community = Socgraph.Community_search.search g ~anchor:q in
  let distances = Socgraph.Bounded_dist.distances g ~src:q ~max_edges:2 in
  let total vs =
    List.fold_left
      (fun acc v -> if v = q then acc else acc +. distances.(v))
      0. vs
  in
  let describe name vs =
    [
      name;
      string_of_int (List.length vs);
      string_of_int (Socgraph.Community_search.min_internal_degree g vs);
      (let d = total vs in
       if Float.is_finite d then Printf.sprintf "%.1f" d else "unbounded");
    ]
  in
  let sgq_row p =
    match Sgselect.solve instance { Query.p; s = 2; k = 2 } with
    | Some { attendees; _ } -> [ describe (Printf.sprintf "SGQ p=%d k=2" p) attendees ]
    | None -> []
  in
  print_table
    ~title:
      "Extension E4  SGQ vs community search [20]   (same initiator; distances at s=2)"
    ~header:[ "method"; "size"; "min internal degree"; "total distance" ]
    (describe "community search" community :: List.concat_map sgq_row [ 4; 6; 8 ])

(* ------------------------------------------------------------------ *)
(* Extension E5: end-to-end STGQ at coauthor scale.                    *)

let ext_scale st () =
  let sizes = if st.fast then [ 800 ] else [ 800; 3200; 12800 ] in
  let rows =
    List.map
      (fun n ->
        let build, gen_ns =
          time (fun () -> Workload.Scenario.coauthor ~seed:9 ~days:7 ~n ())
        in
        let query = { Query.p = 5; s = 1; k = 2; m = 4 } in
        let exact = timed (run_stgselect build query) in
        [ string_of_int n; Report.ns gen_ns; ns_cell exact; detail_cell exact ])
      sizes
  in
  print_table
    ~title:"Extension E5  end-to-end scale   (STGQ p=5, s=1, k=2, m=4, 7-day schedules)"
    ~header:[ "network"; "generate"; "STGSelect"; "distance" ]
    rows

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite: one Test.make per figure.                     *)

let bechamel_suite () =
  let open Bechamel in
  let open Toolkit in
  let instance = social_194 () in
  let ti = Lazy.force dataset_194 in
  let sg p s k = { Query.p; s; k } in
  let stg p s k m = { Query.p; s; k; m } in
  let tests =
    Test.make_grouped ~name:"figures"
      [
        Test.make ~name:"fig1a(p=6)"
          (Staged.stage (fun () -> Sgselect.solve instance (sg 6 1 2)));
        Test.make ~name:"fig1b(s=3)"
          (Staged.stage (fun () -> Sgselect.solve instance (sg 4 3 2)));
        Test.make ~name:"fig1c(k=3)"
          (Staged.stage (fun () -> Sgselect.solve instance (sg 5 2 3)));
        Test.make ~name:"fig1d(n=194)"
          (Staged.stage (fun () -> Sgselect.solve instance (sg 5 1 3)));
        Test.make ~name:"fig1e(m=4)"
          (Staged.stage (fun () -> Stgselect.solve ti (stg 4 1 2 4)));
        Test.make ~name:"fig1f(7d)"
          (Staged.stage (fun () -> Stgselect.solve ti (stg 4 1 2 6)));
        Test.make ~name:"fig1g(p=5)"
          (Staged.stage (fun () -> Stgarrange.versus_pcarrange ti ~p:5 ~s:2 ~m:4));
        Test.make ~name:"fig1h(p=5)"
          (Staged.stage (fun () -> Pcarrange.run ti ~p:5 ~s:2 ~m:4));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ t ] -> Report.ns t
          | _ -> "?"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Printf.sprintf "%.3f" r
          | None -> "-"
        in
        [ name; est; r2 ] :: acc)
      results []
    |> List.sort compare
  in
  print_table ~title:"Bechamel micro-suite (OLS time per run)"
    ~header:[ "benchmark"; "time/run"; "r2" ]
    rows

(* --- store scale smoke --------------------------------------------- *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let scale_required_keys =
  [
    "\"users\"";
    "\"edges\"";
    "\"snapshot_bytes\"";
    "\"bytes_per_user\"";
    "\"snapshot_save_ms\"";
    "\"snapshot_load_ms\"";
    "\"wal_records\"";
    "\"wal_replay_per_s\"";
    "\"checkpoint_pause_p99_ms\"";
    "\"recovery_ok\"";
  ]

(* The durability baseline at serving scale (n = 100k users): snapshot
   density (bytes/user, gated), save/load wall time, WAL replay rate,
   checkpoint pause p99, and a full recovery differential — reopening
   the store after the mutation stream must land bit-identically on the
   in-memory fold of the same deltas. *)
let scale_smoke ~out =
  let n = 100_000 and days = 2 in
  let ti = Workload.Scenario.coauthor ~seed:11 ~days ~n () in
  let graph = ti.Query.social.Query.graph in
  let state0 = Store.state_of_instance graph ti.Query.schedules in
  let horizon = Timetable.Availability.horizon state0.Store.schedules.(0) in
  let ok_or_die = function
    | Ok v -> v
    | Error e ->
        Printf.printf "bench-smoke: FAILED — store: %s\n" (Store.string_of_error e);
        exit 1
  in
  let apply_or_die st d =
    match Store.apply_delta st d with
    | Ok st' -> st'
    | Error msg ->
        Printf.printf "bench-smoke: FAILED — bad scale delta: %s\n" msg;
        exit 1
  in
  let dir = "scale-store.tmp" in
  let rm_store () =
    if Sys.file_exists dir && Sys.is_directory dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  rm_store ();
  Fun.protect ~finally:rm_store @@ fun () ->
  Unix.mkdir dir 0o755;
  (* snapshot density and save/load wall time *)
  let path0 = Store.snapshot_path ~dir ~gen:0 in
  let snapshot_bytes, save_ns = time (fun () -> Store.save_snapshot path0 state0) in
  let save_ms = save_ns /. 1e6 in
  let loaded, load_ns = time (fun () -> ok_or_die (Store.load_snapshot path0)) in
  let load_ms = load_ns /. 1e6 in
  if not (Store.state_equal state0 loaded) then begin
    print_endline "bench-smoke: FAILED — scale snapshot round-trip diverged";
    exit 1
  end;
  let bytes_per_user = float_of_int snapshot_bytes /. float_of_int n in
  (* a deterministic, serving-shaped mutation stream: calendar
     replacements, the one record a server journals; record [i] sets a
     vertex's base calendar with one slot toggled *)
  let records = 2_000 in
  let delta_of i =
    let vertex = i * 7919 mod n and slot = i mod horizon in
    let avail = Timetable.Availability.copy state0.Store.schedules.(vertex) in
    if Timetable.Availability.available avail slot then
      Timetable.Availability.set_busy avail slot slot
    else Timetable.Availability.set_free avail slot slot;
    Store.Schedule_set { vertex; avail }
  in
  let store, _ = ok_or_die (Store.open_dir ~init:(fun () -> state0) dir) in
  for i = 0 to records - 1 do
    Store.append ~sync:false store (delta_of i)
  done;
  let replayed, replay_ns =
    time (fun () -> ok_or_die (Store.replay_wal (Store.wal_path ~dir ~gen:0)))
  in
  let replay_s = replay_ns /. 1e9 in
  let replay_per_s =
    if replay_s <= 0. then float_of_int records
    else float_of_int replayed.Store.records /. replay_s
  in
  Store.close store;
  (* recovery differential: reopen and compare against the in-memory fold *)
  let expected = ref state0 in
  for i = 0 to records - 1 do
    expected := apply_or_die !expected (delta_of i)
  done;
  let store2, recovery =
    ok_or_die
      (Store.open_dir
         ~init:(fun () -> failwith "scale store lost its snapshot") dir)
  in
  let recovery_ok =
    recovery.Store.r_replayed = records
    && recovery.Store.r_torn = None
    && Store.state_equal !expected recovery.Store.r_state
  in
  (* checkpoint pauses: publish the full image repeatedly *)
  let pauses = ref [] in
  for i = 0 to 9 do
    Store.append ~sync:false store2 (delta_of i);
    let (), pause_ns = time (fun () -> Store.checkpoint store2 recovery.Store.r_state) in
    pauses := pause_ns :: !pauses
  done;
  Store.close store2;
  let checkpoint_p99_ms = percentile !pauses 0.99 /. 1e6 in
  let json =
    String.concat "\n"
      [
        "{";
        Printf.sprintf "  \"workload\": %S,"
          (Printf.sprintf "coauthor n=%d days=%d" n days);
        Printf.sprintf "  \"users\": %d," n;
        Printf.sprintf "  \"edges\": %d," (Socgraph.Graph.n_edges graph);
        Printf.sprintf "  \"snapshot_bytes\": %d," snapshot_bytes;
        Printf.sprintf "  \"bytes_per_user\": %.1f," bytes_per_user;
        Printf.sprintf "  \"snapshot_save_ms\": %.1f," save_ms;
        Printf.sprintf "  \"snapshot_load_ms\": %.1f," load_ms;
        Printf.sprintf "  \"wal_records\": %d," records;
        Printf.sprintf "  \"wal_replay_per_s\": %.0f," replay_per_s;
        Printf.sprintf "  \"checkpoint_pause_p99_ms\": %.1f," checkpoint_p99_ms;
        Printf.sprintf "  \"recovery_ok\": %b" recovery_ok;
        "}";
        "";
      ]
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf
    "bench-smoke: store — %d users, %.0f B/user snapshot (save %.0f ms, load \
     %.0f ms), WAL replay %.0f rec/s over %d records, checkpoint p99 %.0f ms, \
     recovery %s -> %s\n"
    n bytes_per_user save_ms load_ms replay_per_s records checkpoint_p99_ms
    (if recovery_ok then "ok" else "DIVERGED")
    out;
  let missing =
    List.filter (fun k -> not (contains_substring json k)) scale_required_keys
  in
  if missing <> [] then begin
    Printf.printf "bench-smoke: FAILED — %s lacks required keys: %s\n" out
      (String.concat ", " missing);
    exit 1
  end;
  if not recovery_ok then begin
    print_endline
      "bench-smoke: FAILED — recovered scale store diverges from the \
       in-memory fold of the same deltas";
    exit 1
  end;
  if bytes_per_user > 1024. then begin
    Printf.printf
      "bench-smoke: FAILED — snapshot costs %.1f bytes/user (gate 1024)\n"
      bytes_per_user;
    exit 1
  end;
  if replay_per_s < 200. then begin
    Printf.printf
      "bench-smoke: FAILED — WAL replay at %.0f records/s (gate 200)\n"
      replay_per_s;
    exit 1
  end;
  if checkpoint_p99_ms > 30_000. then begin
    Printf.printf
      "bench-smoke: FAILED — checkpoint pause p99 %.0f ms (gate 30000)\n"
      checkpoint_p99_ms;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let experiments =
  [
    ("fig1a", fig1a);
    ("fig1b", fig1b);
    ("fig1c", fig1c);
    ("fig1d", fig1d);
    ("fig1e", fig1e);
    ("fig1f", fig1f);
    ("fig1gh", fig1gh);
    ("ablation_sg", ablation_sg);
    ("ablation_stg", ablation_stg);
    ("ext_heuristics", ext_heuristics);
    ("ext_topk", ext_topk);
    ("ext_planner", ext_planner);
    ("ext_community", ext_community);
    ("ext_scale", ext_scale);
    ("paper", paper);
    ("hot_time", hot_time);
  ]

(* [--key=value] or [--key value]. *)
let keyed_arg key args =
  let prefix = key ^ "=" in
  let plen = String.length prefix in
  let rec find = function
    | [] -> None
    | a :: value :: _ when a = key -> Some value
    | a :: rest ->
        if String.length a > plen && String.sub a 0 plen = prefix then
          Some (String.sub a plen (String.length a - plen))
        else find rest
  in
  find args

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--smoke" args then begin
    scale_smoke ~out:"BENCH_scale.json";
    exit 0
  end;
  let fast = List.mem "--fast" args in
  let skip_bechamel = List.mem "--skip-bechamel" args in
  let only = Option.map (String.split_on_char ',') (keyed_arg "--only" args) in
  let positive key =
    Option.bind (keyed_arg key args) (fun raw ->
        match int_of_string_opt raw with
        | Some d when d >= 1 -> Some d
        | Some _ | None ->
            Printf.eprintf "ignoring %s=%s: expected a positive integer\n" key raw;
            None)
  in
  let domains = positive "--domains" in
  let st = if fast then fast_settings else full_settings in
  let st =
    { st with domains; passes = Option.value (positive "--passes") ~default:st.passes }
  in
  (* The record and the timing loop run only when asked for. *)
  let wanted name =
    match only with
    | None -> not (List.mem name [ "paper"; "hot_time" ])
    | Some l -> List.mem name l
  in
  (* Alone, the Fig. 1 record prints nothing else, so its output is
     exactly the JSON document. *)
  let record_only = only = Some [ "paper" ] in
  if not record_only then
    Printf.printf
      "STGQ experiment harness (%s mode; enumeration cap %d groups, IP cap %d nodes)\n%!"
      (if fast then "fast" else "full")
      st.group_cap st.ip_node_cap;
  List.iter (fun (name, f) -> if wanted name then f st ()) experiments;
  if
    (not skip_bechamel)
    && match only with None -> true | Some l -> List.mem "bechamel" l
  then bechamel_suite ();
  if not record_only then begin
    print_newline ();
    print_endline "done."
  end
