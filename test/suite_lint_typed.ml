(* The typed interprocedural analyses: fixture units are typechecked
   in memory (Typemod over the ambient stdlib), so each test states its
   scenario as plain source.  Fixtures carry local [Pool]/[Budget] stub
   modules — the analyzer matches spawn and checkpoint callees by
   qualified-name suffix, so [Fixture.Pool.submit] counts as a spawn
   exactly like [Engine.Pool.submit] does in the real tree. *)

let check = Alcotest.check

let typecheck_init = lazy (Compmisc.init_path ())

(* Typecheck [src] as compilation unit [modname].  [file] becomes the
   recorded source path (suppression directives are read back from it,
   so tests that exercise suppression write the source to disk first). *)
let typecheck ?file ~modname src =
  Lazy.force typecheck_init;
  let file =
    match file with Some f -> f | None -> String.uncapitalize_ascii modname ^ ".ml"
  in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  let past = Parse.implementation lexbuf in
  let env = Compmisc.initial_env () in
  match Typemod.type_structure env past with
  | str, _, _, _, _ ->
      Lint_typed.Cmt_load.of_structure ~modname ~source:file str
  | exception exn ->
      Location.report_exception Format.str_formatter exn;
      Alcotest.failf "fixture does not typecheck: %s"
        (Format.flush_str_formatter ())

let options =
  {
    Lint_typed.Typed_check.paths = [];
    allow_domain = [];
    checkpoint_roots = [ "Fixture" ];
    checkpoint_scope = None;
  }

let analyze ?file src =
  Lint_typed.Typed_check.analyze ~options [ typecheck ?file ~modname:"Fixture" src ]

let hits rule findings =
  List.length
    (List.filter (fun (f : Lint.Diag.finding) -> f.rule = rule) findings)

let expect ~rule ~n ?chain_has src =
  let findings = analyze src in
  check Alcotest.int
    (Printf.sprintf "%d %s finding(s) [%s]" n rule
       (String.concat " || " (List.map Lint.Diag.to_human findings)))
    n (hits rule findings);
  match chain_has with
  | None -> ()
  | Some needle ->
      let in_chain (f : Lint.Diag.finding) =
        f.rule = rule
        && List.exists
             (fun step ->
               let rec has i =
                 i + String.length needle <= String.length step
                 && (String.sub step i (String.length needle) = needle
                    || has (i + 1))
               in
               has 0)
             f.chain
      in
      check Alcotest.bool
        (Printf.sprintf "witness chain mentions %S" needle)
        true
        (List.exists in_chain findings)

let pool_stub = "module Pool = struct let submit f = f () end\n"

let budget_stub =
  "module Budget = struct let check () = (None : int option) end\n"

(* ---------------- domain-safety ---------------- *)

let test_racy_ref () =
  expect ~rule:"domain-safety" ~n:1 ~chain_has:"closure passed to"
    (pool_stub
   ^ {|
let racy () =
  let counter = ref 0 in
  Pool.submit (fun () -> counter := !counter + 1);
  !counter
|})

let test_mutex_protected () =
  expect ~rule:"domain-safety" ~n:0
    (pool_stub
   ^ {|
let safe () =
  let counter = ref 0 in
  let lock = Mutex.create () in
  Pool.submit (fun () ->
      Mutex.lock lock;
      incr counter;
      Mutex.unlock lock);
  Mutex.lock lock;
  let v = !counter in
  Mutex.unlock lock;
  v
|})

let test_mutex_one_branch_only () =
  (* The lock is held on one branch and skipped on the other: the merge
     keeps the weakest path, so the write after the branch is flagged. *)
  expect ~rule:"domain-safety" ~n:1
    (pool_stub
   ^ {|
let half_locked flag =
  let counter = ref 0 in
  let lock = Mutex.create () in
  Pool.submit (fun () ->
      if flag then Mutex.lock lock;
      incr counter;
      if flag then Mutex.unlock lock);
  ()
|})

let test_atomic () =
  expect ~rule:"domain-safety" ~n:0
    (pool_stub
   ^ {|
let safe () =
  let counter = Atomic.make 0 in
  Pool.submit (fun () -> Atomic.incr counter);
  Atomic.get counter
|})

let test_mutable_record_capture () =
  expect ~rule:"domain-safety" ~n:2 ~chain_has:"captures `c`"
    (pool_stub
   ^ {|
type counter = { mutable n : int }
let run () =
  let c = { n = 0 } in
  Pool.submit (fun () -> c.n <- c.n + 1);
  c.n
|})

let test_record_with_mutex_field () =
  expect ~rule:"domain-safety" ~n:0
    (pool_stub
   ^ {|
type counter = { mutable n : int; lock : Mutex.t }
let run () =
  let c = { n = 0; lock = Mutex.create () } in
  Pool.submit (fun () ->
      Mutex.lock c.lock;
      c.n <- c.n + 1;
      Mutex.unlock c.lock);
  c.n
|})

let test_annotated_record () =
  expect ~rule:"domain-safety" ~n:0
    (pool_stub
   ^ {|
type counter = { mutable n : int } [@@lint.domain_safe]
let run () =
  let c = { n = 0 } in
  Pool.submit (fun () -> c.n <- c.n + 1);
  c.n
|})

let test_global_table_racy () =
  expect ~rule:"domain-safety" ~n:1 ~chain_has:"Hashtbl.replace"
    (pool_stub
   ^ {|
let tbl : (int, int) Hashtbl.t = Hashtbl.create 8
let run () = Pool.submit (fun () -> Hashtbl.replace tbl 1 2)
|})

let test_global_table_sharded_unit () =
  (* The floating attribute declares the whole unit domain-sharded, the
     way lib/obs/registry.ml and trace.ml do. *)
  expect ~rule:"domain-safety" ~n:0
    ("[@@@lint.domain_safe]\n" ^ pool_stub
   ^ {|
let tbl : (int, int) Hashtbl.t = Hashtbl.create 8
let run () = Pool.submit (fun () -> Hashtbl.replace tbl 1 2)
|})

let test_transitive_write () =
  (* The racy write hides two calls deep; the witness names the path. *)
  expect ~rule:"domain-safety" ~n:1 ~chain_has:"Fixture.deep"
    (pool_stub
   ^ {|
let tbl : (int, int) Hashtbl.t = Hashtbl.create 8
let deep () = Hashtbl.replace tbl 1 2
let mid () = deep ()
let run () = Pool.submit (fun () -> mid ())
|})

(* A stub with the future-typed Pool surface: [submit] still takes the
   crossing closure as its last positional argument, so the analyzer
   needs no special case — pin that. *)
let future_pool_stub =
  "module Pool = struct\n\
  \  type 'a future = 'a\n\
  \  let submit f = f ()\n\
  \  let await (f : 'a future) = f\n\
   end\n"

let test_future_submit_racy () =
  expect ~rule:"domain-safety" ~n:1 ~chain_has:"closure passed to"
    (future_pool_stub
   ^ {|
let racy () =
  let counter = ref 0 in
  let fut = Pool.submit (fun () -> incr counter) in
  Pool.await fut;
  !counter
|})

let test_future_submit_atomic_clean () =
  expect ~rule:"domain-safety" ~n:0
    (future_pool_stub
   ^ {|
let safe () =
  let counter = Atomic.make 0 in
  let fut = Pool.submit (fun () -> Atomic.incr counter) in
  Pool.await fut;
  Atomic.get counter
|})

(* ---------------- checkpoint-coverage ---------------- *)

let test_checkpoint_free_loop () =
  expect ~rule:"checkpoint-coverage" ~n:1 ~chain_has:"cycle:"
    (budget_stub
   ^ {|
let rec solve n = if n = 0 then 0 else solve (n - 1)
let entry () = solve 10
|})

let test_checkpointed_loop () =
  expect ~rule:"checkpoint-coverage" ~n:0
    (budget_stub
   ^ {|
let rec solve n =
  match Budget.check () with
  | Some _ -> 0
  | None -> if n = 0 then 0 else solve (n - 1)
let entry () = solve 10
|})

let test_transitive_checkpoint () =
  expect ~rule:"checkpoint-coverage" ~n:0
    (budget_stub
   ^ {|
let poll () = Budget.check ()
let rec solve n =
  match poll () with
  | Some _ -> 0
  | None -> if n = 0 then 0 else solve (n - 1)
let entry () = solve 10
|})

let test_bounded_annotation () =
  expect ~rule:"checkpoint-coverage" ~n:0
    (budget_stub
   ^ {|
let scan arr =
  let n = Array.length arr in
  let[@lint.bounded] rec go i = if i >= n then 0 else arr.(i) + go (i + 1) in
  go 0
|})

let test_mutual_recursion_cycle () =
  expect ~rule:"checkpoint-coverage" ~n:1
    (budget_stub
   ^ {|
let rec ping n = if n = 0 then 0 else pong (n - 1)
and pong n = if n = 0 then 1 else ping (n - 1)
let entry () = ping 9
|})

(* ---------------- suppression round-trips ---------------- *)

let with_fixture_file src f =
  let file = Filename.temp_file "lint_typed_fixture" ".ml" in
  let oc = open_out file in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let racy_line_src ~directive =
  pool_stub
  ^ Printf.sprintf
      {|
let racy () =
  let counter = ref 0 in
  Pool.submit (fun () -> counter := 1)%s;
  !counter
|}
      directive

let test_typed_suppression_same_line () =
  let src = racy_line_src ~directive:" (* stgq-lint: allow domain-safety *)" in
  with_fixture_file src (fun file ->
      check Alcotest.int "suppressed on its own line" 0
        (hits "domain-safety" (analyze ~file src)))

let test_typed_suppression_standalone_above () =
  let src =
    pool_stub
    ^ {|
let racy () =
  let counter = ref 0 in
  (* lint: allow domain-safety *)
  Pool.submit (fun () -> counter := 1);
  !counter
|}
  in
  with_fixture_file src (fun file ->
      check Alcotest.int "suppressed from the comment line above" 0
        (hits "domain-safety" (analyze ~file src)))

let test_typed_suppression_wrong_rule_keeps_finding () =
  let src = racy_line_src ~directive:" (* stgq-lint: allow checkpoint-coverage *)" in
  with_fixture_file src (fun file ->
      check Alcotest.int "directive for another rule does not silence" 1
        (hits "domain-safety" (analyze ~file src)))

(* Trailing directives no longer leak onto the following line, and
   standalone ones no longer cover their own (empty) line — pin both
   with the untyped engine, which shares Suppress. *)
let test_trailing_directive_scopes_to_own_line () =
  let src =
    "let a = Obj.magic 0 (* lint: allow obj-magic *)\nlet b = Obj.magic 1\n"
  in
  let findings = Lint.Engine.lint_source ~file:"lib/x/f.ml" src in
  check Alcotest.int "second line still flagged" 1 (hits "obj-magic" findings)

let test_unknown_suppression_warns () =
  let src = "(* lint: allow no-such-rule *)\nlet f x = x + 1\n" in
  let findings = Lint.Engine.lint_source ~file:"lib/x/f.ml" src in
  check Alcotest.int "unknown rule name draws a warning" 1
    (hits "unknown-suppression" findings);
  let src_known = "(* lint: allow obj-magic, domain-safety *)\nlet f x = x + 1\n" in
  check Alcotest.int "known names (incl. typed rules) do not" 0
    (hits "unknown-suppression" (Lint.Engine.lint_source ~file:"lib/x/f.ml" src_known))

(* ---------------- whole-repo smoke ---------------- *)

(* The build tree next to the test dir holds the real .cmts (the test
   executable's library deps compiled them).  Zero typed findings at
   HEAD — same gate as the root @lint-typed alias, minus the dune
   plumbing. *)
let test_repo_smoke () =
  let units, _warn = Lint_typed.Cmt_load.load ~cmt_root:"../lib" in
  if units = [] then ()  (* artefacts not materialised: alias covers it *)
  else
    let findings =
      Lint_typed.Typed_check.analyze
        ~options:Lint_typed.Typed_check.default_options units
    in
    check Alcotest.int
      (String.concat "; "
         (List.map (fun (f : Lint.Diag.finding) -> Lint.Diag.to_human f) findings))
      0 (List.length findings)

let suite =
  [
    Alcotest.test_case "racy ref capture flagged" `Quick test_racy_ref;
    Alcotest.test_case "mutex-protected use clean" `Quick test_mutex_protected;
    Alcotest.test_case "one-branch lock still flagged" `Quick
      test_mutex_one_branch_only;
    Alcotest.test_case "atomic use clean" `Quick test_atomic;
    Alcotest.test_case "mutable record capture flagged" `Quick
      test_mutable_record_capture;
    Alcotest.test_case "record with Mutex.t field clean" `Quick
      test_record_with_mutex_field;
    Alcotest.test_case "domain_safe record annotation clean" `Quick
      test_annotated_record;
    Alcotest.test_case "racy global table flagged" `Quick test_global_table_racy;
    Alcotest.test_case "domain-sharded unit exempt" `Quick
      test_global_table_sharded_unit;
    Alcotest.test_case "transitive write carries witness chain" `Quick
      test_transitive_write;
    Alcotest.test_case "future-typed submit still a spawn site" `Quick
      test_future_submit_racy;
    Alcotest.test_case "future-typed submit with atomic clean" `Quick
      test_future_submit_atomic_clean;
    Alcotest.test_case "checkpoint-free loop flagged" `Quick
      test_checkpoint_free_loop;
    Alcotest.test_case "checkpointed loop clean" `Quick test_checkpointed_loop;
    Alcotest.test_case "transitive checkpoint clean" `Quick
      test_transitive_checkpoint;
    Alcotest.test_case "lint.bounded annotation clean" `Quick
      test_bounded_annotation;
    Alcotest.test_case "mutual recursion cycle flagged" `Quick
      test_mutual_recursion_cycle;
    Alcotest.test_case "typed suppression, same line" `Quick
      test_typed_suppression_same_line;
    Alcotest.test_case "typed suppression, standalone above" `Quick
      test_typed_suppression_standalone_above;
    Alcotest.test_case "suppression names another rule" `Quick
      test_typed_suppression_wrong_rule_keeps_finding;
    Alcotest.test_case "trailing directive scopes to own line" `Quick
      test_trailing_directive_scopes_to_own_line;
    Alcotest.test_case "unknown suppression warns" `Quick
      test_unknown_suppression_warns;
    Alcotest.test_case "whole-repo typed smoke" `Quick test_repo_smoke;
  ]
