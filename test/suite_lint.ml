(* The stgq-lint engine: one fixture per rule (positive, suppressed,
   clean), the certificate audit, and a self-check that the real lib/
   and bin/ trees are lint-clean at HEAD. *)

let check = Alcotest.check

let lint ?options ?(file = "lib/fixture/fixture.ml") src =
  Lint.Engine.lint_source ?options ~file src

let hits rule findings =
  List.length
    (List.filter (fun (f : Lint.Diag.finding) -> f.rule = rule) findings)

let expect_rule ?options ?file ~rule ?(line = 0) src =
  let findings = lint ?options ?file src in
  check Alcotest.int
    (Printf.sprintf "one %s finding in %S" rule src)
    1 (hits rule findings);
  if line > 0 then
    match
      List.find_opt (fun (f : Lint.Diag.finding) -> f.rule = rule) findings
    with
    | Some f -> check Alcotest.int (rule ^ " line") line f.line
    | None -> Alcotest.fail "finding vanished"

let expect_clean ?options ?file ~rule src =
  check Alcotest.int
    (Printf.sprintf "no %s finding in %S" rule src)
    0
    (hits rule (lint ?options ?file src))

(* R1 -------------------------------------------------------------- *)

let test_partial_call () =
  expect_rule ~rule:"partial-call" ~line:1 "let f xs = List.hd xs";
  expect_rule ~rule:"partial-call" ~line:2 "let g = 1\nlet f o = Option.get o";
  expect_rule ~rule:"partial-call" "let f h = Hashtbl.find h 0";
  (* a Not_found handler makes the lookup total *)
  expect_clean ~rule:"partial-call"
    "let f h = try Hashtbl.find h 0 with Not_found -> 1";
  (* ... but only for the guarded body, not the handler itself *)
  expect_rule ~rule:"partial-call"
    "let f h = try 0 with Not_found -> Hashtbl.find h 0";
  expect_clean ~rule:"partial-call" "let f xs = List.nth_opt xs 0";
  (* Stdlib.-qualified spelling matches too *)
  expect_rule ~rule:"partial-call" "let f xs = Stdlib.List.hd xs"

let test_partial_call_suppressed () =
  expect_clean ~rule:"partial-call"
    "(* lint: allow partial-call *)\nlet f xs = List.hd xs";
  expect_clean ~rule:"partial-call"
    "let f xs = List.hd xs (* lint: allow partial-call *)";
  expect_clean ~rule:"partial-call"
    "(* lint: allow-file partial-call *)\nlet g = 2\n\nlet f xs = List.hd xs";
  expect_clean ~rule:"partial-call"
    "(* lint: allow all *)\nlet f xs = List.hd xs";
  (* an unrelated suppression does not silence it *)
  expect_rule ~rule:"partial-call"
    "(* lint: allow catch-all *)\nlet f xs = List.hd xs"

(* R2 -------------------------------------------------------------- *)

let test_catch_all () =
  expect_rule ~rule:"catch-all" "let f g = try g () with _ -> 0";
  expect_rule ~rule:"catch-all" "let f g = try g () with e -> 0";
  (* re-raising handlers and specific exceptions are fine *)
  expect_clean ~rule:"catch-all" "let f g = try g () with e -> raise e";
  expect_clean ~rule:"catch-all" "let f g = try g () with Failure _ -> 0";
  (* executables may exit; libraries may not *)
  expect_rule ~rule:"catch-all" "let f () = exit 1";
  expect_clean ~rule:"catch-all" ~file:"bin/tool.ml" "let f () = exit 1";
  (* bare failwith in an I/O module loses input position *)
  expect_rule ~rule:"catch-all" ~file:"lib/x/foo_io.ml"
    "let f () = failwith \"boom\"";
  expect_clean ~rule:"catch-all" ~file:"lib/x/foo_io.ml"
    "let f line = failwith (Printf.sprintf \"%d: boom\" line)";
  expect_clean ~rule:"catch-all" ~file:"lib/x/other.ml"
    "let f () = failwith \"boom\""

(* R3 -------------------------------------------------------------- *)

let test_phys_eq () =
  expect_rule ~rule:"phys-eq" "let f a b = a == b";
  expect_rule ~rule:"phys-eq" "let f a b = a != b";
  (* immediates compare by value; int-literal operands are exempt *)
  expect_clean ~rule:"phys-eq" "let f a = a == 0";
  expect_clean ~rule:"phys-eq" "let f a b = a = b"

(* R4 -------------------------------------------------------------- *)

let test_obj_magic () =
  expect_rule ~rule:"obj-magic" ~line:1 "let f x = Obj.magic x";
  expect_clean ~rule:"obj-magic" "let f x = Obj.repr x"

(* R5 -------------------------------------------------------------- *)

let test_ignored_result () =
  expect_rule ~rule:"ignored-result" "let f () = ignore (Sys.getenv \"x\")";
  (* a type annotation documents the deliberate discard *)
  expect_clean ~rule:"ignored-result"
    "let f () = ignore (Sys.getenv \"x\" : string)";
  expect_clean ~rule:"ignored-result" "let f x = ignore x"

(* R6 -------------------------------------------------------------- *)

let test_toplevel_state () =
  expect_rule ~rule:"toplevel-state" "let cache = Hashtbl.create 16";
  expect_rule ~rule:"toplevel-state" "let counter = ref 0";
  (* state created per call is fine *)
  expect_clean ~rule:"toplevel-state" "let make () = Hashtbl.create 16";
  (* executables may hold top-level state *)
  expect_clean ~rule:"toplevel-state" ~file:"bin/tool.ml" "let counter = ref 0";
  expect_clean ~rule:"toplevel-state"
    "let cache = Hashtbl.create 16 (* lint: allow toplevel-state *)";
  (* designated modules are exempt *)
  expect_clean
    ~options:
      { Lint.Engine.default_options with allowed_state_modules = [ "Registry" ] }
    ~file:"lib/x/registry.ml" ~rule:"toplevel-state" "let table = Hashtbl.create 4"

(* R7 -------------------------------------------------------------- *)

let test_missing_mli () =
  let tmp = Filename.temp_dir "stgq_lint_test" "" in
  let libdir = Filename.concat tmp "lib" in
  Sys.mkdir libdir 0o755;
  let ml = Filename.concat libdir "foo.ml" in
  Out_channel.with_open_text ml (fun oc ->
      Out_channel.output_string oc "let x = 1\n");
  let findings = Lint.Engine.lint_paths [ tmp ] in
  check Alcotest.int "missing-mli flagged" 1 (hits "missing-mli" findings);
  Out_channel.with_open_text
    (Filename.concat libdir "foo.mli")
    (fun oc -> Out_channel.output_string oc "val x : int\n");
  check Alcotest.int "mli present" 0
    (hits "missing-mli" (Lint.Engine.lint_paths [ tmp ]))

(* R8 -------------------------------------------------------------- *)

let test_wall_clock () =
  (* solver code must read the monotonic Budget.now_ns *)
  expect_rule ~file:"lib/core/stgselect.ml" ~rule:"wall-clock" ~line:1
    "let t = Unix.gettimeofday ()";
  expect_rule ~file:"lib/engine/pool.ml" ~rule:"wall-clock"
    "let t () = Sys.time ()";
  expect_rule ~file:"lib/core/resilience.ml" ~rule:"wall-clock"
    "let t = Stdlib.Sys.time ()";
  expect_rule ~file:"lib/core/search_core.ml" ~rule:"wall-clock"
    "let t = Unix.time ()";
  (* budget.ml owns the clock; Obs keeps wall time by design (path scope) *)
  expect_clean ~file:"lib/core/budget.ml" ~rule:"wall-clock"
    "let t = Unix.gettimeofday ()";
  expect_clean ~file:"lib/obs/obs.ml" ~rule:"wall-clock"
    "let t = Unix.gettimeofday ()";
  expect_clean ~file:"bin/stgq_cli.ml" ~rule:"wall-clock"
    "let t = Unix.gettimeofday ()";
  expect_clean ~file:"lib/core/stgselect.ml" ~rule:"wall-clock"
    "let t = Budget.now_ns ()"

(* R9 -------------------------------------------------------------- *)

let test_durability_bypass () =
  (* solver state must persist through Store's snapshot + WAL protocol *)
  expect_rule ~file:"lib/core/service.ml" ~rule:"durability-bypass" ~line:1
    "let f oc st = output_string oc st";
  expect_rule ~file:"lib/core/service.ml" ~rule:"durability-bypass"
    "let f p = open_out p";
  expect_rule ~file:"lib/engine/cache.ml" ~rule:"durability-bypass"
    "let f fd b = Unix.write fd b 0 8";
  expect_rule ~file:"lib/core/stgselect.ml" ~rule:"durability-bypass"
    "let f fd s = Unix.single_write fd s 0 1";
  expect_rule ~file:"lib/core/resilience.ml" ~rule:"durability-bypass"
    "let f p = Stdlib.open_out_bin p";
  (* lib/store owns the protocol; CLI/bench reports are out of scope *)
  expect_clean ~file:"lib/store/store.ml" ~rule:"durability-bypass"
    "let f fd b = Unix.write fd b 0 8";
  expect_clean ~file:"bin/stgq_cli.ml" ~rule:"durability-bypass"
    "let f st = output_string (open_out \"report\") st";
  expect_clean ~file:"bench/main.ml" ~rule:"durability-bypass"
    "let f st = output_string (open_out \"BENCH.json\") st";
  (* reads are fine everywhere *)
  expect_clean ~file:"lib/core/service.ml" ~rule:"durability-bypass"
    "let f p = open_in p";
  (* suppressible like any other rule *)
  expect_clean ~file:"lib/core/service.ml" ~rule:"durability-bypass"
    "let f fd b = Unix.write fd b 0 8 (* lint: allow durability-bypass *)";
  expect_clean ~file:"lib/core/stgselect.ml" ~rule:"wall-clock"
    "(* lint: allow wall-clock *)\nlet t = Unix.gettimeofday ()"

(* R10 ------------------------------------------------------------- *)

let test_event_log_bypass () =
  (* serving code must report through Obs.Events or the levelled Log *)
  expect_rule ~file:"lib/server/listener.ml" ~rule:"event-log-bypass" ~line:1
    "let f () = print_endline \"shed\"";
  expect_rule ~file:"lib/server/client.ml" ~rule:"event-log-bypass"
    "let f d = Printf.eprintf \"queue %d\\n\" d";
  expect_rule ~file:"lib/core/service.ml" ~rule:"event-log-bypass"
    "let f () = Format.printf \"done@.\"";
  expect_rule ~file:"lib/core/resilience.ml" ~rule:"event-log-bypass"
    "let f r = Stdlib.prerr_endline r";
  (* the CLI, bench and the rest of lib/core print reports by design *)
  expect_clean ~file:"bin/stgq_cli.ml" ~rule:"event-log-bypass"
    "let f () = print_endline \"report\"";
  expect_clean ~file:"bench/main.ml" ~rule:"event-log-bypass"
    "let f () = Printf.printf \"qps %d\\n\" 3";
  expect_clean ~file:"lib/core/stgselect.ml" ~rule:"event-log-bypass"
    "let f () = print_endline \"debug\"";
  (* formatter-parameterised printers and the levelled Log stay legal *)
  expect_clean ~file:"lib/server/listener.ml" ~rule:"event-log-bypass"
    "let pp ppf r = Format.pp_print_string ppf r";
  expect_clean ~file:"lib/server/listener.ml" ~rule:"event-log-bypass"
    "let f e = Log.warn (fun m -> m \"worker died: %s\" e)";
  (* suppressible like any other rule *)
  expect_clean ~file:"lib/server/listener.ml" ~rule:"event-log-bypass"
    "let f () = print_endline \"x\" (* lint: allow event-log-bypass *)"

(* Certificate audit ------------------------------------------------ *)

let test_uncertified_solver () =
  expect_rule ~rule:"uncertified-solver" ~line:1
    "let answer ti q = Stgselect.solve ti q";
  (* a Validate call in the same binding certifies it *)
  expect_clean ~rule:"uncertified-solver"
    "let answer ti q = Validate.certify_stg ti q (Stgselect.solve ti q)";
  (* ... and so does one reachable through the unit's call graph *)
  expect_clean ~rule:"uncertified-solver"
    "let audit ti q s = Validate.is_valid_stg ti q s\n\
     let answer ti q =\n\
    \  let s = Stgselect.solve ti q in\n\
    \  if audit ti q s then s else None";
  (* an unrelated helper does not *)
  expect_rule ~rule:"uncertified-solver"
    "let audit _ = true\nlet answer ti q = Stgselect.solve ti q";
  (* a top-N list is a set of solver answers too *)
  expect_rule ~rule:"uncertified-solver" ~line:1
    "let best ti q = Topk.stgq ~n:3 ti q";
  (* the solver-defining units are producers, not consumers *)
  expect_clean ~rule:"uncertified-solver" ~file:"lib/core/stgselect.ml"
    "let solve_again ti q = Stgselect.solve ti q";
  expect_clean ~rule:"uncertified-solver"
    "(* lint: allow uncertified-solver *)\nlet answer ti q = Stgselect.solve ti q";
  (* --no-certify turns the audit off *)
  expect_clean
    ~options:{ Lint.Engine.default_options with certify = false }
    ~rule:"uncertified-solver" "let answer ti q = Stgselect.solve ti q"

(* Every solver module's entry points are audited: each one is flagged
   when its answer goes unchecked, also through the library path, and
   cleared by a Validate call, except in the unit that defines it. *)
let test_audit_covers_every_solver () =
  let entries = Lint.Certify.solver_entry_points in
  let module_of ep = List.hd (String.split_on_char '.' ep) in
  List.iter
    (fun m ->
      check Alcotest.bool (m ^ " is audited") true
        (List.exists (fun ep -> module_of ep = m) entries))
    [ "Sgselect"; "Stgselect"; "Parallel"; "Heuristics"; "Topk"; "Baseline"; "Ip_model" ];
  List.iter
    (fun ep ->
      let call = Printf.sprintf "let answer i q = %s i q" ep in
      expect_rule ~rule:"uncertified-solver" ~line:1 call;
      expect_rule ~rule:"uncertified-solver" ~line:1
        (Printf.sprintf "let answer i q = Stgq_core.%s i q" ep);
      expect_clean ~rule:"uncertified-solver"
        (Printf.sprintf "let answer i q = Validate.certify_stg i q (%s i q)" ep);
      let unit = String.uncapitalize_ascii (module_of ep) ^ ".ml" in
      expect_clean ~rule:"uncertified-solver" ~file:("lib/core/" ^ unit) call)
    entries

(* Engine & reporters ----------------------------------------------- *)

let test_parse_error () =
  expect_rule ~rule:"parse-error" "let = ;;"

let test_reporters () =
  let findings = lint "let f xs = List.hd xs" in
  let json = Lint.Diag.report_json findings in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "json names the rule" true
    (contains ~needle:"\"rule\":\"partial-call\"" json);
  check Alcotest.bool "json names the file" true
    (contains ~needle:"lib/fixture/fixture.ml" json);
  let human = Lint.Diag.report_human findings in
  check Alcotest.bool "human has a summary" true
    (contains ~needle:"1 finding(s), 1 error(s)" human);
  check Alcotest.bool "human is file:line:col" true
    (contains ~needle:"lib/fixture/fixture.ml:1:" human)

(* Self-check: the tree we ship is lint-clean.  The sources are staged
   next to the test via the dune deps; the @lint alias re-checks the
   same invariant against the source tree on every `dune runtest`. *)
let test_head_is_clean () =
  if not (Sys.file_exists "../lib" && Sys.file_exists "../bin") then
    Alcotest.skip ()
  else begin
    let findings = Lint.Engine.lint_paths [ "../lib"; "../bin" ] in
    List.iter (fun f -> print_endline (Lint.Diag.to_human f)) findings;
    check Alcotest.int "lib/ and bin/ are lint-clean" 0 (List.length findings)
  end

let suite =
  [
    Alcotest.test_case "R1 partial calls" `Quick test_partial_call;
    Alcotest.test_case "R1 suppression" `Quick test_partial_call_suppressed;
    Alcotest.test_case "R2 catch-all / exit / io failwith" `Quick test_catch_all;
    Alcotest.test_case "R3 physical equality" `Quick test_phys_eq;
    Alcotest.test_case "R4 Obj.magic" `Quick test_obj_magic;
    Alcotest.test_case "R5 ignored result" `Quick test_ignored_result;
    Alcotest.test_case "R6 top-level state" `Quick test_toplevel_state;
    Alcotest.test_case "R7 missing mli" `Quick test_missing_mli;
    Alcotest.test_case "R8 wall clock in solver code" `Quick test_wall_clock;
    Alcotest.test_case "R9 durability bypass in solver code" `Quick
      test_durability_bypass;
    Alcotest.test_case "R10 event-log bypass in serving code" `Quick
      test_event_log_bypass;
    Alcotest.test_case "certificate audit" `Quick test_uncertified_solver;
    Alcotest.test_case "certificate audit covers every solver module" `Quick
      test_audit_covers_every_solver;
    Alcotest.test_case "parse errors are findings" `Quick test_parse_error;
    Alcotest.test_case "reporters" `Quick test_reporters;
    Alcotest.test_case "HEAD is lint-clean" `Quick test_head_is_clean;
  ]
