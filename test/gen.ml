(* Shared random-case generation for the property suites.  All cases are
   small enough for the brute-force oracles to stay fast.

   Determinism and scale knobs (documented in docs/OBSERVABILITY.md):
   - STGQ_TEST_SEED   seeds every QCheck run (default 1105), so tier-1
     failures reproduce exactly;
   - STGQ_PROP_ITERS  multiplies each property's iteration count — the
     root @props alias sets it to 8 for the long soak. *)

module G = QCheck.Gen

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | Some v when v >= 1 -> v
      | Some _ | None -> default)

let test_seed = env_int "STGQ_TEST_SEED" 1105

let iters = env_int "STGQ_PROP_ITERS" 1

let graph_edges ~n ~density st =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if G.float_bound_inclusive 1.0 st < density then begin
        let w = float_of_int (1 + G.int_bound 19 st) in
        edges := (u, v, w) :: !edges
      end
    done
  done;
  !edges

type sg_case = {
  n : int;
  edges : (int * int * float) list;
  query : Stgq_core.Query.sgq;
}

let sg_case_gen ?(max_n = 11) ?(max_p = 6) st =
  let n = 4 + G.int_bound (max_n - 4) st in
  let density = 0.25 +. G.float_bound_inclusive 0.45 st in
  let edges = graph_edges ~n ~density st in
  let p = 2 + G.int_bound (min max_p n - 2) st in
  let s = 1 + G.int_bound 2 st in
  let k = G.int_bound 3 st in
  { n; edges; query = { Stgq_core.Query.p; s; k } }

let pp_edges edges =
  String.concat "; "
    (List.map (fun (u, v, w) -> Printf.sprintf "%d-%d:%g" u v w) edges)

let print_sg_case { n; edges; query = { p; s; k } } =
  Printf.sprintf "n=%d p=%d s=%d k=%d edges=[%s]" n p s k (pp_edges edges)

let sg_case ?max_n ?max_p () =
  QCheck.make ~print:print_sg_case (sg_case_gen ?max_n ?max_p)

let instance_of_sg_case { n; edges; _ } =
  { Stgq_core.Query.graph = Socgraph.Graph.of_edges n edges; initiator = 0 }

(* Availability over a small horizon: a few random free runs. *)
let availability_gen ~horizon st =
  let a = Timetable.Availability.create ~horizon in
  let runs = 1 + G.int_bound 3 st in
  for _ = 1 to runs do
    let lo = G.int_bound (horizon - 1) st in
    let len = 1 + G.int_bound (horizon / 2) st in
    Timetable.Availability.set_free a lo (min (horizon - 1) (lo + len - 1))
  done;
  a

(* Free throughout but for a few short busy runs, so that windows of
   tens of slots exist and their edges fall anywhere. *)
let mostly_free_gen ~horizon st =
  let a = Timetable.Availability.create ~horizon in
  Timetable.Availability.set_free a 0 (horizon - 1);
  let gaps = 1 + G.int_bound 4 st in
  for _ = 1 to gaps do
    let lo = G.int_bound (horizon - 1) st in
    let len = 1 + G.int_bound 7 st in
    Timetable.Availability.set_busy a lo (min (horizon - 1) (lo + len - 1))
  done;
  a

type stg_case = {
  sg : sg_case;
  horizon : int;
  free_runs : (int * int) list array;  (* printable schedule description *)
  m : int;
}

(* [horizons] is the inclusive range the horizon is drawn from;
   [mostly_free] draws calendars with [mostly_free_gen]. *)
let stg_case_gen ?(max_n = 8) ?(max_p = 5) ?(max_m = 4) ?(horizons = (16, 32))
    ?(mostly_free = false) st =
  let sg = sg_case_gen ~max_n ~max_p st in
  let horizon = fst horizons + G.int_bound (snd horizons - fst horizons) st in
  let m = 2 + G.int_bound (Stdlib.max 0 (max_m - 2)) st in
  let free_runs =
    Array.init sg.n (fun _ ->
        let a =
          if mostly_free then mostly_free_gen ~horizon st else availability_gen ~horizon st
        in
        (* Record as runs for printing and faithful reconstruction. *)
        let runs = ref [] in
        let i = ref 0 in
        while !i < horizon do
          if Timetable.Availability.available a !i then begin
            match Timetable.Availability.run_around a !i with
            | Some (lo, hi) ->
                runs := (lo, hi) :: !runs;
                i := hi + 1
            | None -> incr i
          end
          else incr i
        done;
        List.rev !runs)
  in
  { sg; horizon; free_runs; m }

let print_stg_case { sg; horizon; free_runs; m } =
  let sched =
    Array.to_list free_runs
    |> List.mapi (fun v runs ->
           Printf.sprintf "v%d:%s" v
             (String.concat ","
                (List.map (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi) runs)))
    |> String.concat " "
  in
  Printf.sprintf "%s horizon=%d m=%d sched=[%s]" (print_sg_case sg) horizon m sched

let stg_case ?max_n ?max_p ?max_m ?horizons ?mostly_free () =
  QCheck.make ~print:print_stg_case
    (stg_case_gen ?max_n ?max_p ?max_m ?horizons ?mostly_free)

let temporal_instance_of_stg_case { sg; horizon; free_runs; m = _ } =
  let schedules =
    Array.map
      (fun runs ->
        let a = Timetable.Availability.create ~horizon in
        List.iter (fun (lo, hi) -> Timetable.Availability.set_free a lo hi) runs;
        a)
      free_runs
  in
  { Stgq_core.Query.social = instance_of_sg_case sg; schedules }

let stgq_of_stg_case { sg; m; _ } =
  let ({ p; s; k } : Stgq_core.Query.sgq) = sg.query in
  { Stgq_core.Query.p; s; k; m }

(* ------------------------------------------------------------------ *)
(* Regression corpus: shrunk counterexamples serialised one per file in
   test/cases/*.case, replayed by suite_regression.  Line-based format:

     kind stg                 (or sg)
     n 6
     p 3
     s 1
     k 2
     m 2                      (stg only)
     horizon 20               (stg only)
     edge 0 1 3               (one per edge: u v weight)
     sched 0 2-5 11-14        (stg only, one per vertex: free runs)

   [case_to_string] and [case_of_string] round-trip exactly. *)

type corpus_case = Sg of sg_case | Stg of stg_case

let case_to_string case =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let sg, tail =
    match case with Sg sg -> (sg, None) | Stg stg -> (stg.sg, Some stg)
  in
  let ({ p; s; k } : Stgq_core.Query.sgq) = sg.query in
  line "kind %s" (match case with Sg _ -> "sg" | Stg _ -> "stg");
  line "n %d" sg.n;
  line "p %d" p;
  line "s %d" s;
  line "k %d" k;
  (match tail with
  | None -> ()
  | Some stg ->
      line "m %d" stg.m;
      line "horizon %d" stg.horizon);
  List.iter (fun (u, v, w) -> line "edge %d %d %g" u v w) sg.edges;
  (match tail with
  | None -> ()
  | Some stg ->
      Array.iteri
        (fun v runs ->
          line "sched %d%s" v
            (String.concat ""
               (List.map (fun (lo, hi) -> Printf.sprintf " %d-%d" lo hi) runs)))
        stg.free_runs);
  Buffer.contents b

let case_of_string text =
  let fail fmt = Printf.ksprintf failwith fmt in
  let fields = Hashtbl.create 8 in
  let edges = ref [] in
  let scheds = ref [] in
  let words l = List.filter (fun w -> w <> "") (String.split_on_char ' ' l) in
  let int_of w = match int_of_string_opt w with
    | Some v -> v
    | None -> fail "corpus case: bad integer %S" w
  in
  let run_of w =
    match String.split_on_char '-' w with
    | [ lo; hi ] -> (int_of lo, int_of hi)
    | _ -> fail "corpus case: bad free run %S" w
  in
  List.iter
    (fun l ->
      match words l with
      | [] -> ()
      | [ "edge"; u; v; w ] -> (
          match float_of_string_opt w with
          | Some w -> edges := (int_of u, int_of v, w) :: !edges
          | None -> fail "corpus case: bad edge weight %S" w)
      | "sched" :: v :: runs -> scheds := (int_of v, List.map run_of runs) :: !scheds
      | [ key; value ] -> Hashtbl.replace fields key value
      | _ -> fail "corpus case: unparsable line %S" l)
    (String.split_on_char '\n' text);
  let field key =
    match Hashtbl.find_opt fields key with
    | Some v -> v
    | None -> fail "corpus case: missing field %S" key
  in
  let int_field key = int_of (field key) in
  let n = int_field "n" in
  let query =
    { Stgq_core.Query.p = int_field "p"; s = int_field "s"; k = int_field "k" }
  in
  let sg = { n; edges = List.rev !edges; query } in
  match field "kind" with
  | "sg" -> Sg sg
  | "stg" ->
      let free_runs = Array.make n [] in
      List.iter
        (fun (v, runs) ->
          if v < 0 || v >= n then fail "corpus case: sched vertex %d out of range" v;
          free_runs.(v) <- runs)
        !scheds;
      Stg { sg; horizon = int_field "horizon"; free_runs; m = int_field "m" }
  | other -> fail "corpus case: unknown kind %S" other

let print_corpus_case = function
  | Sg sg -> print_sg_case sg
  | Stg stg -> print_stg_case stg

(* Alcotest adapter: deterministic seed, env-scaled iteration count. *)
let qtest ?(count = 200) name arbitrary prop =
  let rand = Random.State.make [| test_seed |] in
  QCheck_alcotest.to_alcotest ~rand
    (QCheck.Test.make ~count:(count * iters) ~name arbitrary prop)

(* A dense deterministic STGQ instance big enough that the exact solver
   crosses several budget checkpoints (256 nodes each) from initiators
   0-3, so small node limits and short deadlines trip mid-search: the
   solver visits 6,369, 13,413, 3,652 and 4,408 nodes from them.  A
   third of the complete graph's edges are dropped and k is 2, so the
   summed Lemma 2 bound cannot settle the search early; on the complete
   graph at k = 5 it visits 9-25 nodes. *)
let dense_ti, dense_q =
  let n = 22 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if ((7 * u) + (13 * v)) mod 3 <> 0 then
        edges := (u, v, float_of_int (1 + ((u + (3 * v)) mod 19))) :: !edges
    done
  done;
  let horizon = 40 in
  let schedules =
    Array.init n (fun v ->
        let a = Timetable.Availability.create ~horizon in
        Timetable.Availability.set_free a (v mod 3) (horizon - 1 - (v mod 2));
        a)
  in
  ( {
      Stgq_core.Query.social =
        { Stgq_core.Query.graph = Socgraph.Graph.of_edges n !edges; initiator = 0 };
      schedules;
    },
    { Stgq_core.Query.p = 10; s = 2; k = 2; m = 3 } )

(* The value of a service answer under the default policy, whose
   unlimited budget always answers on the exact rung; a typed ladder
   error fails the test. *)
let served = function
  | Ok (a : _ Stgq_core.Resilience.answer) -> a.value
  | Error e ->
      Alcotest.failf "served query failed: %a" Stgq_core.Resilience.pp_error e

(* A repository path such as "docs/OBSERVABILITY.md" or "test/cases",
   from whichever working directory the suite runs in: the test
   stanza's (_build/default/test) or the project root (_build/default
   under the root @props rule, or the source tree itself). *)
let repo_path rel = List.find_opt Sys.file_exists [ Filename.concat ".." rel; rel ]

(* ------------------------------------------------------------------ *)
(* Counting, not timing: minor words allocated on the calling domain
   repeat exactly from run to run, where wall time does not.  Other
   domains' allocations do not count; the minimum over three runs also
   discards words another thread on this domain might slip in. *)

let minor_words f =
  let once () =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  int_of_float (Float.min (once ()) (Float.min (once ()) (once ())))

(* All words [f] allocates on the calling domain, wherever they land:
   minor + major - promoted.  An array over [Max_young_wosize] words,
   such as one sized by the vertex count, goes straight to the major
   heap and never shows in [Gc.minor_words].  The minor part reads
   [Gc.minor_words], which is exact; the one in [Gc.counters] advances
   only at minor collections. *)
let allocated_words f =
  let once () =
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    f ();
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  int_of_float (Float.min (once ()) (Float.min (once ()) (once ())))

(* The replay workload of these counts: a 600-member coauthor world
   served by a pool-less [Service], so every solve runs on the calling
   domain.  [tiny_q]'s exact search visits 2 nodes and [heavy_q]'s 620,
   so a cost that grows with search nodes shows as a difference between
   the two.  [heavy_q] runs at s = 1 (a 45-member ball): at s = 2 the
   ball holds 485 members and a search of that many nodes takes
   hundreds of milliseconds.  Only [tiny_q] reaches past the first hop,
   so a test of the multi-hop ball build or certificate asks at s = 2. *)
let replay_ti, replay_initiator =
  let ti = Workload.Scenario.coauthor ~seed:11 ~days:2 ~n:600 () in
  let initiator =
    Workload.Scenario.pick_initiator ~rank:10 ti.Stgq_core.Query.social.graph
  in
  ( { ti with Stgq_core.Query.social = { ti.Stgq_core.Query.social with initiator } },
    initiator )

let tiny_q = { Stgq_core.Query.p = 3; s = 2; k = 1; m = 6 }

let heavy_q = { Stgq_core.Query.p = 7; s = 1; k = 4; m = 2 }

let replay_queries =
  [ tiny_q; heavy_q; { tiny_q with m = 4 }; { heavy_q with m = 6 } ]

(* ------------------------------------------------------------------ *)
(* An edit between a solve and its certificate.  [Sgselect]/
   [Stgselect.solve_report] log one debug line after the search and
   before [Service] certifies the answer.  [edit_mid_solve ~src ~edit
   request] runs [request ()] with that log source at [Debug] and a
   reporter that, on the source's first line, releases a writer thread
   running [edit ()] and holds the request up to 200 ms for the edit to
   return.  An edit that waits for nothing returns within the hold, so
   [edit_returned_mid_request] reads true and the request then finishes
   against the state it read before the edit; an edit that waited for
   the request would read false and land after it.  Both the level and
   the reporter are restored afterwards, and the writer is joined (its
   exception, if any, re-raised). *)

type mid_solve = {
  fired : bool;  (* the reporter caught the solver's line *)
  edit_returned_mid_request : bool;
      (* the edit returned while the request was held at the line *)
}

let edit_mid_solve ~src ~edit request =
  let source =
    match List.find_opt (fun s -> Logs.Src.name s = src) (Logs.Src.list ()) with
    | Some s -> s
    | None -> Alcotest.failf "no log source %s" src
  in
  let go = Semaphore.Binary.make false in
  let fired = Atomic.make false in
  let edited = Atomic.make false in
  let returned_mid = Atomic.make false in
  let failure = ref None in
  let writer =
    Thread.create
      (fun () ->
        Semaphore.Binary.acquire go;
        match edit () with
        | () -> Atomic.set edited true
        | exception e -> failure := Some e)
      ()
  in
  let report s _level ~over k _msgf =
    if s == source && not (Atomic.exchange fired true) then begin
      Semaphore.Binary.release go;
      let rec hold n =
        if n > 0 && not (Atomic.get edited) then begin
          Thread.delay 0.002;
          hold (n - 1)
        end
      in
      hold 100;
      Atomic.set returned_mid (Atomic.get edited)
    end;
    over ();
    k ()
  in
  let level = Logs.Src.level source and reporter = Logs.reporter () in
  Logs.Src.set_level source (Some Logs.Debug);
  Logs.set_reporter { Logs.report };
  let result =
    Fun.protect request ~finally:(fun () ->
        Logs.set_reporter reporter;
        Logs.Src.set_level source level;
        (* no line caught: let the writer go so the join below returns *)
        if not (Atomic.get fired) then Semaphore.Binary.release go)
  in
  Thread.join writer;
  Option.iter raise !failure;
  ( result,
    { fired = Atomic.get fired; edit_returned_mid_request = Atomic.get returned_mid } )
