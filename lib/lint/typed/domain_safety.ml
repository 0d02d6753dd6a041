(* domain-safety: flag non-atomic mutable state crossing a domain
   boundary.

   For every spawn site (a closure handed to [Pool.submit]/
   [Domain.spawn]/[Thread.create]) the argument expression is sliced:
   local [let]s it references are inlined, locally-defined functions it
   names become region roots alongside the closure literals themselves,
   and the remaining free identifiers are the values captured across
   the domain boundary.

   Two rules fire on the result:

   - capture rule: a captured value whose type is a record with mutable
     fields, no [Mutex.t] field and no [@lint.domain_safe] annotation
     has no way to be used safely from two domains — flagged at the
     spawn site.  (Plain refs/containers are judged by use instead:
     read-only sharing of a ref is fine, and lock-protected use is
     fine, so flagging the capture itself would be noise.)

   - operation rule: walk every function transitively reachable from
     the region roots (through calls and closure definitions) and flag
     reads/writes of captured refs/containers/mutable fields and of
     module-level mutable globals when no mutex is provably held —
     neither at the operation site nor anywhere up the call chain from
     the region root.  Witness chains name the path. *)

open Lint
open Callgraph

type region = {
  captures : (string, string * Types.type_expr) Hashtbl.t;  (* uname -> name, ty *)
  roots : int list;
  sp_unit : string;  (* modname of the spawning unit *)
  sp_unitc : string;  (* its canonical name, for record lookups *)
}

let fmt_loc loc = Printf.sprintf "%s:%d" (loc_file loc) (loc_line loc)

(* Slice the spawn argument (see header).  [t.local_vbs] spans every
   non-function binding of the unit, so references resolve across the
   whole enclosing function without scope bookkeeping (stamps are
   unique). *)
let slice t ~modname ~unitc (arg : Typedtree.expression) =
  let captures = Hashtbl.create 16 in
  let roots = ref [] in
  let seen_exprs = Hashtbl.create 16 in
  let seen_fids = Hashtbl.create 16 in
  let add_root fid =
    if not (Hashtbl.mem seen_fids fid) then begin
      Hashtbl.add seen_fids fid ();
      roots := fid :: !roots
    end
  in
  let rec add_expr (e : Typedtree.expression) =
    let k = loc_key e.exp_loc in
    if not (Hashtbl.mem seen_exprs k) then begin
      Hashtbl.add seen_exprs k ();
      List.iter
        (fun lk ->
          match Hashtbl.find_opt t.by_loc lk with
          | Some fid -> add_root fid
          | None -> ())
        (closure_locs e);
      List.iter
        (fun (id, ty, _) ->
          let uk = Ident.unique_name id in
          match Hashtbl.find_opt t.fn_stamps (modname, uk) with
          | Some fid ->
              add_root fid;
              (* local closures: their free variables cross too *)
              if not t.funcs.(fid).f_toplevel then
                List.iter add_expr t.funcs.(fid).f_bodies
          | None ->
              if not (Hashtbl.mem t.global_stamps (modname, uk)) then begin
                if not (Hashtbl.mem captures uk) then
                  Hashtbl.add captures uk (Ident.name id, ty);
                match Hashtbl.find_opt t.local_vbs (modname, uk) with
                | Some rhs -> add_expr rhs
                | None -> ()
              end)
        (free_idents e)
    end
  in
  add_expr arg;
  { captures; roots = List.rev !roots; sp_unit = modname; sp_unitc = unitc }

let capture_findings t ~allow_units region (sp : spawn) =
  Hashtbl.fold
    (fun _ (name, ty) acc ->
      match lookup_record t ~unitc:region.sp_unitc ty with
      | Some ri
        when ri.r_mutable_fields <> []
             && (not ri.r_safe)
             && (not ri.r_has_mutex)
             && not (List.mem ri.r_unit allow_units) ->
          let msg =
            Printf.sprintf
              "closure passed to %s captures `%s` of type %s, which has \
               mutable field(s) %s but no Mutex.t field: the state crosses \
               the domain boundary with no way to synchronize it (make the \
               field(s) Atomic, embed a Mutex.t, or mark the type \
               [@lint.domain_safe] if it is domain-sharded by construction)"
              sp.sp_via name ri.r_key
              (String.concat ", " ri.r_mutable_fields)
          in
          let chain =
            [
              Printf.sprintf "%s: closure passed to %s" (fmt_loc sp.sp_loc)
                sp.sp_via;
              Printf.sprintf "captures `%s` : %s" name ri.r_key;
              Printf.sprintf "type %s declared at %s (mutable: %s)" ri.r_key
                (fmt_loc ri.r_loc)
                (String.concat ", " ri.r_mutable_fields);
            ]
          in
          Diag.with_chain chain
            (Diag.make ~rule:"domain-safety" ~severity:Diag.Error sp.sp_loc msg)
          :: acc
      | _ -> acc)
    region.captures []

let global_exempt t ~allow_units key =
  match Hashtbl.find_opt t.globals key with
  | None -> true
  | Some g ->
      g.g_safe
      || List.mem g.g_unit allow_units
      || (match g.g_rec_ty with
         | Some ty -> (
             match lookup_record t ~unitc:g.g_unit ty with
             | Some ri -> ri.r_safe || ri.r_has_mutex
             | None -> false)
         | None -> false)

(* BFS over the region.  A node is (fid, entry_locked): call edges
   propagate the caller's lock, closure-definition edges do not (the
   closure runs later, except a [Mutex.protect] body, whose defines
   edge pass 2 marked locked). *)
let op_findings t ~allow_units region (sp : spawn) seen_ops =
  let parents = Hashtbl.create 64 in
  let visited = Hashtbl.create 64 in
  let queue = Queue.create () in
  let push ~parent node =
    if not (Hashtbl.mem visited node) then begin
      Hashtbl.add visited node ();
      if not (Hashtbl.mem parents node) then Hashtbl.add parents node parent;
      Queue.add node queue
    end
  in
  List.iter (fun fid -> push ~parent:None (fid, false)) region.roots;
  let findings = ref [] in
  let rec chain_of node =
    let fid, _ = node in
    let f = t.funcs.(fid) in
    let step = Printf.sprintf "%s (%s:%d)" f.f_name f.f_file f.f_line in
    match Hashtbl.find_opt parents node with
    | Some (Some p) -> chain_of p @ [ step ]
    | _ -> [ step ]
  in
  while not (Queue.is_empty queue) do
    let ((fid, entry_locked) as node) = Queue.pop queue in
    let f = t.funcs.(fid) in
    List.iter
      (fun op ->
        let protected = op.op_locked || entry_locked in
        let flag root_name why =
          (* Per line, not per location: [x := !x + 1] is one racy
             statement, not a write finding plus a read finding. *)
          let key = (loc_file op.op_loc, loc_line op.op_loc, root_name) in
          if not (Hashtbl.mem seen_ops key) then begin
            Hashtbl.add seen_ops key ();
            let msg =
              Printf.sprintf
                "%s on `%s` runs on a domain spawned at %s (via %s) with no \
                 mutex held on any path from the spawn; %s"
                op.op_desc root_name (fmt_loc sp.sp_loc) sp.sp_via why
            in
            let chain =
              Printf.sprintf "%s: closure passed to %s" (fmt_loc sp.sp_loc)
                sp.sp_via
              :: chain_of node
              @ [
                  Printf.sprintf "%s `%s` at %s" op.op_desc root_name
                    (fmt_loc op.op_loc);
                ]
            in
            findings :=
              Diag.with_chain chain
                (Diag.make ~rule:"domain-safety" ~severity:Diag.Error op.op_loc
                   msg)
              :: !findings
          end
        in
        if not protected then
          match op.op_root with
          | Rvar (uk, name)
            when f.f_unit = region.sp_unit && Hashtbl.mem region.captures uk ->
              flag name
                "the value is captured from the submitting domain, so \
                 sibling jobs and the submitter race on it (guard it with \
                 the same Mutex everywhere, or use Atomic)"
          | Rglobal key when not (global_exempt t ~allow_units key) ->
              flag key
                "the target is module-level mutable state shared by every \
                 domain (guard it with a Mutex, use Atomic, or annotate it \
                 [@lint.domain_safe] if domain-sharded)"
          | _ -> ())
      f.f_ops;
    List.iter
      (fun c -> push ~parent:(Some node) (c.c_dst, entry_locked || c.c_locked))
      f.f_calls;
    List.iter
      (fun (dst, locked) -> push ~parent:(Some node) (dst, locked))
      f.f_defines
  done;
  !findings

let check (t : Callgraph.t) ~allow_units =
  let seen_ops = Hashtbl.create 64 in
  let seen_caps = Hashtbl.create 64 in
  Array.to_list t.funcs
  |> List.concat_map (fun f ->
         List.rev f.f_spawns
         |> List.concat_map (fun sp ->
                let region =
                  slice t ~modname:f.f_unit ~unitc:f.f_unitc sp.sp_arg
                in
                let caps =
                  capture_findings t ~allow_units region sp
                  |> List.filter (fun (d : Diag.finding) ->
                         let key = (d.file, d.line, d.message) in
                         if Hashtbl.mem seen_caps key then false
                         else begin
                           Hashtbl.add seen_caps key ();
                           true
                         end)
                in
                caps @ op_findings t ~allow_units region sp seen_ops))
