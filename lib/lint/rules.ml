open Parsetree

type ctx = {
  file : string;
  is_lib : bool;
  is_io : bool;
  is_solver : bool;
      (** solver code (lib/core, lib/engine) minus the clock owner
          (budget.ml) — the scope of the wall-clock rule *)
}

type rule = {
  id : string;
  severity : Diag.severity;
  summary : string;
  check : ctx -> structure -> Diag.finding list;
}

(* ------------------------------------------------------------------ *)
(* Longident helpers.                                                  *)

let rec lid_to_string = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, s) -> lid_to_string l ^ "." ^ s
  | Longident.Lapply (a, b) ->
      lid_to_string a ^ "(" ^ lid_to_string b ^ ")"

(* "Stdlib.List.hd" and "List.hd" are the same call. *)
let normalize name =
  let prefix = "Stdlib." in
  if String.length name > String.length prefix
     && String.sub name 0 (String.length prefix) = prefix
  then String.sub name (String.length prefix)
         (String.length name - String.length prefix)
  else name

let ident_name e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (normalize (lid_to_string txt))
  | _ -> None

(* Collect every (normalized) value identifier referenced under [e]. *)
let iter_idents f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; loc } -> f (normalize (lid_to_string txt)) loc
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e

let mentions_raise e =
  let found = ref false in
  iter_idents
    (fun name _ ->
      match name with
      | "raise" | "raise_notrace" | "Printexc.raise_with_backtrace" ->
          found := true
      | _ -> ())
    e;
  !found

(* ------------------------------------------------------------------ *)
(* R1 — partial stdlib calls.                                          *)

let always_partial =
  [ "List.hd"; "List.tl"; "List.nth"; "Option.get" ]

let not_found_partial = [ "Hashtbl.find"; "List.find"; "List.assoc" ]

let rec pattern_matches_not_found p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) ->
      normalize (lid_to_string txt) = "Not_found"
  | Ppat_or (a, b) ->
      pattern_matches_not_found a || pattern_matches_not_found b
  | Ppat_alias (inner, _) -> pattern_matches_not_found inner
  | _ -> false

let handles_not_found cases =
  List.exists
    (fun c -> c.pc_guard = None && pattern_matches_not_found c.pc_lhs)
    cases

let check_partial ctx structure =
  ignore (ctx : ctx);
  let findings = ref [] in
  let nf_depth = ref 0 in
  let add loc name =
    findings :=
      Diag.make ~rule:"partial-call" ~severity:Diag.Error loc
        (Printf.sprintf
           "%s is partial; use the _opt variant (or an explicit match) so a \
            missed case is a typed error, not a runtime exception"
           name)
      :: !findings
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_try (body, cases) when handles_not_found cases ->
              incr nf_depth;
              self.expr self body;
              decr nf_depth;
              List.iter (self.case self) cases
          | Pexp_ident { txt; loc } ->
              let name = normalize (lid_to_string txt) in
              if List.mem name always_partial then add loc name
              else if List.mem name not_found_partial && !nf_depth = 0 then
                add loc (name ^ " (outside a Not_found handler)");
              Ast_iterator.default_iterator.expr self e
          | _ -> Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------------ *)
(* R2 — catch-all exception handling, exit, bare failwith in I/O code. *)

let is_catch_all_case c =
  c.pc_guard = None
  && (match c.pc_lhs.ppat_desc with
     | Ppat_any | Ppat_var _ -> true
     | _ -> false)
  && not (mentions_raise c.pc_rhs)

let check_catchall ctx structure =
  if not ctx.is_lib then []
  else begin
    let findings = ref [] in
    let add loc rule_msg =
      findings :=
        Diag.make ~rule:"catch-all" ~severity:Diag.Error loc rule_msg
        :: !findings
    in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_try (_, cases) ->
                List.iter
                  (fun c ->
                    if is_catch_all_case c then
                      add c.pc_lhs.ppat_loc
                        "catch-all exception handler swallows asserts and \
                         unrelated failures; match the specific exception \
                         (or re-raise)")
                  cases
            | Pexp_ident { txt; loc } ->
                if normalize (lid_to_string txt) = "exit" then
                  add loc
                    "exit in library code preempts the caller; return a \
                     value or raise instead"
            | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ]) -> (
                match (ident_name fn, arg.pexp_desc) with
                | Some "failwith", Pexp_constant (Pconst_string _)
                  when ctx.is_io ->
                    add e.pexp_loc
                      "bare failwith in I/O code loses the file/line \
                       context; raise an error that carries the input \
                       position"
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it structure;
    !findings
  end

(* ------------------------------------------------------------------ *)
(* R3 — physical equality.                                             *)

let check_physeq ctx structure =
  ignore (ctx : ctx);
  let findings = ref [] in
  (* Locations of ==/!= heads exempted because an operand is an int
     literal (physical equality on immediates is value equality). *)
  let exempt = Hashtbl.create 8 in
  let is_int_literal e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
    | _ -> false
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply
              (({ pexp_desc = Pexp_ident { txt; loc }; _ } as _head), args)
            when (let n = normalize (lid_to_string txt) in
                  n = "==" || n = "!=")
                 && List.exists
                      (fun (_, a) -> is_int_literal a)
                      args ->
              Hashtbl.replace exempt loc ()
          | Pexp_ident { txt; loc } ->
              let n = normalize (lid_to_string txt) in
              if (n = "==" || n = "!=") && not (Hashtbl.mem exempt loc) then
                findings :=
                  Diag.make ~rule:"phys-eq" ~severity:Diag.Warning loc
                    (Printf.sprintf
                       "physical equality (%s) on structured values compares \
                        identity, not contents; use %s"
                       n
                       (if n = "==" then "=" else "<>"))
                  :: !findings
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------------ *)
(* R4 — Obj.magic.                                                     *)

let check_obj_magic ctx structure =
  ignore (ctx : ctx);
  let findings = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc }
            when normalize (lid_to_string txt) = "Obj.magic" ->
              findings :=
                Diag.make ~rule:"obj-magic" ~severity:Diag.Error loc
                  "Obj.magic defeats the type system; there is no sound use \
                   in this codebase"
                :: !findings
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------------ *)
(* R5 — ignore of a call result.                                       *)

let check_ignored_result ctx structure =
  ignore (ctx : ctx);
  let findings = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (fn, [ (Asttypes.Nolabel, arg) ])
            when ident_name fn = Some "ignore" -> (
              match arg.pexp_desc with
              | Pexp_apply _ ->
                  findings :=
                    Diag.make ~rule:"ignored-result" ~severity:Diag.Warning
                      e.pexp_loc
                      "discarding a call result hides errors the callee \
                       reports through its return value; annotate the type \
                       (ignore (e : t)) or bind it (let _x = e)"
                    :: !findings
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------------ *)
(* R6 — mutable top-level state.                                       *)

let mutable_constructors =
  [
    "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create";
    "Buffer.create"; "Bytes.create"; "Bytes.make"; "Atomic.make";
  ]

(* Scan eagerly-evaluated positions of a top-level binding's RHS; stop
   at function/lazy boundaries (state created per call is fine). *)
let rec eager_mutable_creations acc e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> acc
  | Pexp_apply (fn, args) ->
      let acc =
        match ident_name fn with
        | Some name when List.mem name mutable_constructors ->
            (name, e.pexp_loc) :: acc
        | _ -> acc
      in
      List.fold_left (fun acc (_, a) -> eager_mutable_creations acc a) acc args
  | Pexp_let (_, vbs, body) ->
      let acc =
        List.fold_left
          (fun acc vb -> eager_mutable_creations acc vb.pvb_expr)
          acc vbs
      in
      eager_mutable_creations acc body
  | Pexp_sequence (a, b) | Pexp_ifthenelse (a, b, None) ->
      eager_mutable_creations (eager_mutable_creations acc a) b
  | Pexp_ifthenelse (a, b, Some c) ->
      eager_mutable_creations
        (eager_mutable_creations (eager_mutable_creations acc a) b)
        c
  | Pexp_tuple es | Pexp_array es ->
      List.fold_left eager_mutable_creations acc es
  | Pexp_record (fields, base) ->
      let acc =
        List.fold_left (fun acc (_, v) -> eager_mutable_creations acc v)
          acc fields
      in
      (match base with Some b -> eager_mutable_creations acc b | None -> acc)
  | Pexp_construct (_, Some a) | Pexp_variant (_, Some a)
  | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) | Pexp_open (_, a) ->
      eager_mutable_creations acc a
  | _ -> acc

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let check_toplevel_state ~allowed_modules ctx structure =
  if (not ctx.is_lib) || List.mem (module_name_of_file ctx.file) allowed_modules
  then []
  else begin
    let findings = ref [] in
    let check_bindings vbs =
      List.iter
        (fun vb ->
          List.iter
            (fun (name, loc) ->
              findings :=
                Diag.make ~rule:"toplevel-state" ~severity:Diag.Warning loc
                  (Printf.sprintf
                     "top-level %s creates process-global mutable state; \
                      thread it through a handle, or designate this module \
                      with --allow-state"
                     name)
                :: !findings)
            (eager_mutable_creations [] vb.pvb_expr))
        vbs
    in
    let it =
      {
        Ast_iterator.default_iterator with
        structure_item =
          (fun self item ->
            (match item.pstr_desc with
            | Pstr_value (_, vbs) -> check_bindings vbs
            | _ -> ());
            (* Recurse only into nested modules: expressions inside a
               Pstr_value were already scanned shallowly above, and
               function bodies are exempt by design. *)
            match item.pstr_desc with
            | Pstr_module _ | Pstr_recmodule _ | Pstr_include _ ->
                Ast_iterator.default_iterator.structure_item self item
            | _ -> ());
      }
    in
    it.structure it structure;
    !findings
  end

(* ------------------------------------------------------------------ *)
(* R8 — wall-clock reads in solver code.                               *)

(* Deadlines in the search kernel must come from the monotonic clock
   that [Budget] owns: wall clocks jump (NTP steps, suspend/resume), so
   a solver reading one can time out instantly or never.  [Obs] (its own
   library, outside the solver scope) keeps wall time deliberately —
   spans are correlated with external logs. *)
let wall_clocks = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let check_wallclock ctx structure =
  if not ctx.is_solver then []
  else begin
    let findings = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; loc }
              when List.mem (normalize (lid_to_string txt)) wall_clocks ->
                findings :=
                  Diag.make ~rule:"wall-clock" ~severity:Diag.Error loc
                    (Printf.sprintf
                       "%s is a wall clock; solver deadlines must use the \
                        monotonic Budget.now_ns (wall time jumps under NTP \
                        steps and suspend/resume)"
                       (normalize (lid_to_string txt)))
                  :: !findings
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it structure;
    !findings
  end

(* ------------------------------------------------------------------ *)
(* R9 — raw file writes in solver code.                                *)

(* Solver-state durability belongs to lib/store: a snapshot is written
   temp-file + fsync + atomic rename, and every mutation is CRC-framed
   in the WAL before the in-memory edit lands.  A raw [open_out] or
   [Unix.write] on a solver path bypasses all of that — no checksum, no
   atomicity, no crash story — so state persisted that way can come
   back torn or silently corrupt.  [lib/store] itself is outside the
   solver scope (lib/core, lib/engine), as are the CLI and bench
   drivers writing reports. *)
let raw_writes =
  [
    "open_out";
    "open_out_bin";
    "open_out_gen";
    "output_string";
    "output_bytes";
    "Out_channel.open_text";
    "Out_channel.open_bin";
    "Out_channel.output_string";
    "Unix.write";
    "Unix.write_substring";
    "Unix.single_write";
  ]

let check_durability_bypass ctx structure =
  if not ctx.is_solver then []
  else begin
    let findings = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; loc }
              when List.mem (normalize (lid_to_string txt)) raw_writes ->
                findings :=
                  Diag.make ~rule:"durability-bypass" ~severity:Diag.Error loc
                    (Printf.sprintf
                       "%s writes solver state without the durability \
                        protocol; persist through Store (CRC-framed WAL \
                        append, or snapshot via temp file + fsync + atomic \
                        rename) so a crash cannot leave torn or unverifiable \
                        bytes"
                       (normalize (lid_to_string txt)))
                  :: !findings
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it structure;
    !findings
  end

(* ------------------------------------------------------------------ *)
(* R10 — stdout/stderr prints in serving code.                         *)

(* The serving plane (lib/server, plus the service/resilience layers it
   fronts) reports through structured channels: metrics, spans and the
   [Obs.Events] JSONL log — all queryable from the exposition routes.
   A stray [print_endline] or [Printf.eprintf] there is operational
   state that bypasses every one of them: it interleaves with other
   domains' output, never reaches /events/tail, and vanishes when
   stdout is not a terminal.  [Log] (the levelled logger) and
   formatter-parameterised pretty-printers stay legal. *)
let raw_prints =
  [
    "print_endline";
    "print_string";
    "print_newline";
    "prerr_endline";
    "prerr_string";
    "prerr_newline";
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
    "Format.print_string";
  ]

(* lib/server/*, lib/core/service.ml and lib/core/resilience.ml — the
   layers whose outcomes the event log records. *)
let is_event_log_scope file =
  let components =
    String.split_on_char '/' file
    |> List.concat_map (String.split_on_char '\\')
  in
  let rec after_lib = function
    | "lib" :: next :: _ -> Some next
    | _ :: rest -> after_lib rest
    | [] -> None
  in
  match after_lib components with
  | Some "server" -> true
  | Some "core" ->
      let base = Filename.basename file in
      base = "service.ml" || base = "resilience.ml"
  | _ -> false

let check_event_log_bypass ctx structure =
  if not (is_event_log_scope ctx.file) then []
  else begin
    let findings = ref [] in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.pexp_desc with
            | Pexp_ident { txt; loc }
              when List.mem (normalize (lid_to_string txt)) raw_prints ->
                findings :=
                  Diag.make ~rule:"event-log-bypass" ~severity:Diag.Error loc
                    (Printf.sprintf
                       "%s prints operational state to a raw stream in \
                        serving code; record it through Obs.Events (or the \
                        levelled Log) so it reaches the event ring, the \
                        JSONL sink and /events/tail"
                       (normalize (lid_to_string txt)))
                  :: !findings
            | _ -> ());
            Ast_iterator.default_iterator.expr self e);
      }
    in
    it.structure it structure;
    !findings
  end

(* ------------------------------------------------------------------ *)
(* Registry.                                                           *)

let all ?(allowed_state_modules = []) () =
  [
    {
      id = "partial-call";
      severity = Diag.Error;
      summary =
        "List.hd/tl/nth, Option.get, and Not_found-raising lookups outside \
         a Not_found handler";
      check = check_partial;
    };
    {
      id = "catch-all";
      severity = Diag.Error;
      summary =
        "try ... with _ , exit, and bare failwith in I/O code (lib/ only)";
      check = check_catchall;
    };
    {
      id = "phys-eq";
      severity = Diag.Warning;
      summary = "physical equality ==/!= on non-immediate values";
      check = check_physeq;
    };
    {
      id = "obj-magic";
      severity = Diag.Error;
      summary = "any use of Obj.magic";
      check = check_obj_magic;
    };
    {
      id = "ignored-result";
      severity = Diag.Warning;
      summary = "ignore applied to an un-annotated call result";
      check = check_ignored_result;
    };
    {
      id = "toplevel-state";
      severity = Diag.Warning;
      summary = "eagerly-created mutable state at module top level (lib/ only)";
      check = check_toplevel_state ~allowed_modules:allowed_state_modules;
    };
    {
      id = "wall-clock";
      severity = Diag.Error;
      summary =
        "Unix.gettimeofday/Unix.time/Sys.time in solver code (lib/core, \
         lib/engine) — deadlines must use the monotonic Budget clock";
      check = check_wallclock;
    };
    {
      id = "durability-bypass";
      severity = Diag.Error;
      summary =
        "raw open_out/output_string/Unix.write in solver code (lib/core, \
         lib/engine) — durable state must go through Store's snapshot + WAL \
         protocol";
      check = check_durability_bypass;
    };
    {
      id = "event-log-bypass";
      severity = Diag.Error;
      summary =
        "print_endline/Printf.eprintf in serving code (lib/server, \
         lib/core/{service,resilience}.ml) — operational state must go \
         through Obs.Events or the levelled Log";
      check = check_event_log_bypass;
    };
  ]
