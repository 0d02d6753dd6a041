open Parsetree

let solver_entry_points =
  [
    "Sgselect.solve"; "Sgselect.solve_report";
    "Stgselect.solve"; "Stgselect.solve_report";
    "Parallel.solve"; "Parallel.solve_report";
    "Heuristics.beam_sgq"; "Heuristics.beam_stgq";
    "Topk.sgq"; "Topk.stgq";
    "Baseline.sgq_brute"; "Baseline.stgq_per_slot";
    "Ip_model.solve_sgq"; "Ip_model.solve_stgq";
  ]

let validate_prefixes =
  [ "Validate.check_"; "Validate.is_valid_"; "Validate.certify_" ]

(* The units that define the audited entry points (and the checker
   itself) are producers, not consumers. *)
let exempt_units =
  [
    "sgselect.ml"; "stgselect.ml"; "parallel.ml"; "heuristics.ml"; "topk.ml";
    "baseline.ml"; "ip_model.ml"; "validate.ml";
  ]

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix)
       (String.length suffix)
     = suffix

(* Entry points may be reached through a library alias such as
   Stgq_core.Sgselect.solve; match on the trailing path segments. *)
let is_solver_entry name =
  List.exists
    (fun ep -> name = ep || ends_with ~suffix:("." ^ ep) name)
    solver_entry_points

let is_validate_ref name =
  List.exists
    (fun p ->
      starts_with ~prefix:p name
      ||
      (* qualified through an alias: Stgq_core.Validate.check_stg *)
      let dotted = "." ^ p in
      let rec contains i =
        i + String.length dotted <= String.length name
        && (String.sub name i (String.length dotted) = dotted
           || contains (i + 1))
      in
      contains 0)
    validate_prefixes

type binding = {
  names : string list;           (* bound value names, for intra-unit edges *)
  refs : string list;            (* every identifier referenced in the RHS *)
  solver_calls : (string * Location.t) list;
}

let rec pattern_names p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (inner, { txt; _ }) -> txt :: pattern_names inner
  | Ppat_tuple ps -> List.concat_map pattern_names ps
  | Ppat_constraint (inner, _) -> pattern_names inner
  | _ -> []

let binding_of_expr names e =
  let refs = ref [] in
  let solver_calls = ref [] in
  Rules.iter_idents
    (fun name loc ->
      refs := name :: !refs;
      if is_solver_entry name then solver_calls := (name, loc) :: !solver_calls)
    e;
  { names; refs = !refs; solver_calls = !solver_calls }

(* Top-level bindings of the unit, including those of nested modules —
   an intentionally flat approximation of the unit's call graph. *)
let collect_bindings structure =
  let bindings = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun self item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  bindings :=
                    binding_of_expr (pattern_names vb.pvb_pat) vb.pvb_expr
                    :: !bindings)
                vbs
          | Pstr_eval (e, _) -> bindings := binding_of_expr [] e :: !bindings
          | _ -> Ast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it structure;
  List.rev !bindings

(* Does [b]'s transitive reference closure (following calls to other
   top-level bindings of the same unit) reach a Validate.check_* /
   is_valid_* / certify_* call? *)
let reaches_validate bindings b =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun b -> List.iter (fun n -> Hashtbl.replace by_name n b) b.names)
    bindings;
  let seen = Hashtbl.create 16 in
  let rec visit b =
    List.exists
      (fun r ->
        if is_validate_ref r then true
        else
          match Hashtbl.find_opt by_name r with
          | Some callee when not (Hashtbl.mem seen r) ->
              Hashtbl.replace seen r ();
              visit callee
          | _ -> false)
      b.refs
  in
  visit b

let check (ctx : Rules.ctx) structure =
  if List.mem (Filename.basename ctx.file) exempt_units then []
  else begin
    let bindings = collect_bindings structure in
    List.concat_map
      (fun b ->
        if b.solver_calls = [] || reaches_validate bindings b then []
        else
          List.map
            (fun (name, loc) ->
              Diag.make ~rule:"uncertified-solver" ~severity:Diag.Error loc
                (Printf.sprintf
                   "%s's answer escapes this compilation unit with no \
                    Validate.check_*/is_valid_*/certify_* call reachable \
                    from the calling binding; audit the solution or \
                    suppress with (* lint: allow uncertified-solver *)"
                   name))
            b.solver_calls)
      bindings
  end
