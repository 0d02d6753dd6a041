(* Deterministic replay of the regression corpus: every shrunk QCheck
   counterexample (and hand-reduced bug fixture) lives in
   test/cases/*.case and is re-checked against the brute-force oracles
   on every tier-1 run, so a past failure can never silently reappear.
   Format and workflow: docs/OBSERVABILITY.md, "Regression corpus". *)

open Stgq_core

let close a b = Float.abs (a -. b) <= 1e-6

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let replay_sg (sg : Gen.sg_case) =
  let instance = Gen.instance_of_sg_case sg in
  let fast = Sgselect.solve instance sg.Gen.query in
  let brute = (Baseline.sgq_brute instance sg.Gen.query).Baseline.solution in
  match (fast, brute) with
  | None, None -> ()
  | Some f, Some b ->
      Alcotest.check Alcotest.bool "optimal distance" true
        (close f.Query.total_distance b.Query.total_distance);
      Alcotest.check Alcotest.bool "certified valid" true
        (Validate.is_valid_sg instance sg.Gen.query f)
  | Some _, None | None, Some _ ->
      Alcotest.fail "feasibility disagrees with the brute-force oracle"

let replay_stg (stg : Gen.stg_case) =
  let ti = Gen.temporal_instance_of_stg_case stg in
  let q = Gen.stgq_of_stg_case stg in
  let fast = Stgselect.solve ti q in
  let brute = (Baseline.stgq_brute ti q).Baseline.st_solution in
  (match (fast, brute) with
  | None, None -> ()
  | Some f, Some b ->
      Alcotest.check Alcotest.bool "optimal distance" true
        (close f.Query.st_total_distance b.Query.st_total_distance);
      Alcotest.check Alcotest.bool "certified valid" true
        (Validate.is_valid_stg ti q f)
  | Some _, None | None, Some _ ->
      Alcotest.fail "feasibility disagrees with the brute-force oracle");
  (* The parallel fan-out must reproduce the sequential answer too. *)
  let par = Parallel.solve ~domains:3 ti q in
  match (fast, par) with
  | None, None -> ()
  | Some a, Some b ->
      Alcotest.check Alcotest.bool "parallel agrees" true
        (close a.Query.st_total_distance b.Query.st_total_distance)
  | Some _, None | None, Some _ ->
      Alcotest.fail "parallel feasibility diverges from sequential"

let replay path () =
  match Gen.case_of_string (read_file path) with
  | Gen.Sg sg -> replay_sg sg
  | Gen.Stg stg -> replay_stg stg

let corpus_tests =
  match Gen.repo_path "test/cases" with
  | None ->
      [
        Alcotest.test_case "corpus directory present" `Quick (fun () ->
            Alcotest.fail
              "test/cases/ not found — check the (source_tree cases) dep");
      ]
  | Some dir ->
      let files =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".case")
        |> List.sort compare
      in
      Alcotest.test_case "corpus is populated" `Quick (fun () ->
          Alcotest.check Alcotest.bool "at least one .case file" true
            (files <> []))
      :: List.map
           (fun f ->
             Alcotest.test_case f `Quick (replay (Filename.concat dir f)))
           files

let corpus_case_arb =
  QCheck.make ~print:Gen.print_corpus_case (fun st ->
      if QCheck.Gen.bool st then Gen.Sg (Gen.sg_case_gen st)
      else Gen.Stg (Gen.stg_case_gen st))

let prop_corpus_roundtrip =
  Gen.qtest ~count:150 "corpus serialisation round-trips" corpus_case_arb
    (fun case ->
      let text = Gen.case_to_string case in
      Gen.case_to_string (Gen.case_of_string text) = text)

let suite = corpus_tests @ [ prop_corpus_roundtrip ]
