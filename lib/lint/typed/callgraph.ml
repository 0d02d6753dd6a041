(* Module-qualified call graph over Typedtree.

   Pass 1 tables every function — top-level bindings (through nested
   plain modules), [let]-bound local functions and anonymous closures —
   plus every module-level mutable global and every record type with
   mutable fields.  Pass 2 walks each function body once in evaluation
   order, tracking a must-hold mutex depth, and records the facts the
   analyses consume: call edges, closure-definition edges, mutable-state
   operations, spawn sites and budget checkpoints. *)

type root =
  | Rvar of string * string  (* Ident.unique_name key, display name *)
  | Rglobal of string  (* key into [globals] *)
  | Runknown

type op = {
  op_desc : string;
  op_root : root;
  op_write : bool;
  op_locked : bool;  (* a Mutex is provably held at the site *)
  op_loc : Location.t;
}

type spawn = {
  sp_via : string;  (* resolved callee, e.g. [Pool.submit] *)
  sp_arg : Typedtree.expression;
  sp_loc : Location.t;
}

type call = { c_dst : int; c_locked : bool; c_loc : Location.t }

type func = {
  fid : int;
  f_unit : string;  (* modname of the defining unit *)
  f_unitc : string;  (* canonical unit name *)
  f_name : string;  (* qualified display name, [Pool.submit.record] *)
  f_file : string;
  f_line : int;
  f_toplevel : bool;
  f_parent : int option;
  f_attrs : string list;
  f_bodies : Typedtree.expression list;
  mutable f_calls : call list;
  mutable f_defines : (int * bool) list;  (* dst, runs-under-lock *)
  mutable f_ops : op list;
  mutable f_spawns : spawn list;
  mutable f_checkpoints : bool;  (* applies Budget.check/charge itself *)
}

type record_info = {
  r_key : string;  (* canonical [Unit.t] *)
  r_unit : string;
  r_loc : Location.t;
  r_mutable_fields : string list;
  r_has_mutex : bool;
  r_safe : bool;
}

type global_info = {
  g_key : string;
  g_unit : string;
  g_desc : string;
  g_loc : Location.t;
  g_safe : bool;
  g_rec_ty : Types.type_expr option;  (* for record globals: their type *)
}

type t = {
  funcs : func array;
  by_name : (string, int) Hashtbl.t;  (* top-level qualified name -> fid *)
  by_loc : (string, int) Hashtbl.t;  (* pre-peel function expr loc -> fid *)
  fn_stamps : (string * string, int) Hashtbl.t;  (* (modname, uname) -> fid *)
  globals : (string, global_info) Hashtbl.t;
  global_stamps : (string * string, string) Hashtbl.t;
  local_vbs : (string * string, Typedtree.expression) Hashtbl.t;
      (* every non-function let binding: (modname, uname) -> RHS *)
  records : (string, record_info) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Names and paths.                                                    *)

let loc_key (loc : Location.t) =
  Printf.sprintf "%s:%d:%d" loc.loc_start.pos_fname loc.loc_start.pos_cnum
    loc.loc_end.pos_cnum

let loc_file (loc : Location.t) = loc.loc_start.pos_fname

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum

let canon_parts p =
  let rec parts = function
    | Path.Pident id -> [ Ident.name id ]
    | Path.Pdot (q, s) -> parts q @ [ s ]
    | Path.Papply (q, _) -> parts q
    | Path.Pextra_ty (q, _) -> parts q
  in
  parts p
  |> List.filter (fun s -> s <> "Stdlib")
  |> List.map Cmt_load.canonical_of_modname

let canon_str p = String.concat "." (canon_parts p)

(* Split a wrapped-unit name into its library-qualified components:
   [Engine__Feasible -> ["Engine"; "Feasible"]]. *)
let split_wrapped s =
  let n = String.length s in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub s start (n - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' && i > start then
      go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0 |> List.filter (fun c -> c <> "")

(* Library-qualified components of a path — [Engine__Feasible.extract]
   and its alias spelling [Engine.Feasible.extract] normalise to the
   same ["Engine"; "Feasible"; "extract"], which disambiguates units
   whose canonical names collide across libraries. *)
let lib_parts p =
  let rec parts = function
    | Path.Pident id -> [ Ident.name id ]
    | Path.Pdot (q, s) -> parts q @ [ s ]
    | Path.Papply (q, _) -> parts q
    | Path.Pextra_ty (q, _) -> parts q
  in
  parts p
  |> List.filter (fun s -> s <> "Stdlib")
  |> List.concat_map split_wrapped

(* [suffix_matches ["Pool"; "submit"] "Engine.Pool.submit"] — component
   suffix, so [Budget.check] never matches [Budget.check_interval]. *)
let suffix_matches suffix qualified =
  let comps = String.split_on_char '.' qualified in
  let rec ends_with l =
    if l = suffix then true
    else match l with [] -> false | _ :: rest -> ends_with rest
  in
  ends_with comps

let attr_names attrs = List.map Cmt_load.attr_name attrs

let has_attr names attr_strs =
  List.exists (fun a -> List.mem a names) attr_strs

let bounded_attr = [ "lint.bounded"; "bounded" ]

let safe_attr = [ "lint.domain_safe"; "domain_safe" ]

(* ------------------------------------------------------------------ *)
(* Generic Typedtree helpers.                                          *)

let pattern_idents : type k. k Typedtree.general_pattern -> Ident.t list =
 fun pat ->
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      pat =
        (fun (type k2) sub (q : k2 Typedtree.general_pattern) ->
          (match q.pat_desc with
          | Typedtree.Tpat_var (id, _) -> acc := id :: !acc
          | Typedtree.Tpat_alias (_, id, _) -> acc := id :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.pat sub q);
    }
  in
  it.pat it pat;
  !acc

(* Free value identifiers of [e], exact by stamp uniqueness: an ident
   occurrence whose binder lies inside [e] is bound there and nowhere
   else, so [free = occurrences \ bound] needs no scope tracking. *)
let free_idents (e : Typedtree.expression) =
  let occurs = ref [] in
  let bound = Hashtbl.create 16 in
  let bind id = Hashtbl.replace bound (Ident.unique_name id) () in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_ident (Path.Pident id, _, _) ->
              occurs := (id, x.exp_type, x.exp_loc) :: !occurs
          | Texp_for (id, _, _, _, _, _) -> bind id
          | Texp_letop { param; _ } -> bind param
          | Texp_function { param; _ } -> bind param
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
      pat =
        (fun (type k2) sub (q : k2 Typedtree.general_pattern) ->
          (match q.pat_desc with
          | Typedtree.Tpat_var (id, _) -> bind id
          | Typedtree.Tpat_alias (_, id, _) -> bind id
          | _ -> ());
          Tast_iterator.default_iterator.pat sub q);
    }
  in
  it.expr it e;
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (id, _, _) ->
      let k = Ident.unique_name id in
      if Hashtbl.mem bound k || Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (List.rev !occurs)

(* All closure-literal locations inside [e] (for slice -> region roots). *)
let closure_locs (e : Typedtree.expression) =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub x ->
          (match x.exp_desc with
          | Texp_function _ -> acc := loc_key x.exp_loc :: !acc
          | _ -> ());
          Tast_iterator.default_iterator.expr sub x);
    }
  in
  it.expr it e;
  !acc

(* Head type constructor, canonical components.  Record fields come
   wrapped in [Tpoly] in [.cmt] artefacts. *)
let rec type_head ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (canon_parts p)
  | Types.Tpoly (ty, _) -> type_head ty
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Lookup.                                                             *)

let lookup_suffix tbl parts =
  let rec go = function
    | [] -> None
    | _ :: rest as l -> (
        match Hashtbl.find_opt tbl (String.concat "." l) with
        | Some v -> Some v
        | None -> go rest)
  in
  go parts

let resolve_value t ~modname ~unitc p =
  match p with
  | Path.Pident id -> (
      let k = (modname, Ident.unique_name id) in
      match Hashtbl.find_opt t.fn_stamps k with
      | Some fid -> `Func fid
      | None -> (
          match Hashtbl.find_opt t.global_stamps k with
          | Some g -> `Global g
          | None -> `None))
  | _ -> (
      let parts = canon_parts p in
      (* Most-specific first: this unit's own binding, then the exact
         library-qualified name ([Engine.Feasible.extract] never
         resolves to another library's [Feasible.extract]), then the
         canonical-name suffix fallback for externals. *)
      let try_tbl tbl =
        match Hashtbl.find_opt tbl (String.concat "." (unitc :: parts)) with
        | Some v -> Some v
        | None -> (
            match
              Hashtbl.find_opt tbl (String.concat "." (lib_parts p))
            with
            | Some v -> Some v
            | None -> lookup_suffix tbl parts)
      in
      match try_tbl t.by_name with
      | Some fid -> `Func fid
      | None -> (
          match try_tbl t.globals with
          | Some g -> `Global g.g_key
          | None -> `None))

(* Record keys are unit-qualified ([Context.t]), but a within-unit
   reference is a bare [Pident] whose canonical parts carry no unit —
   so try the caller's unit prepended before the suffix fallback. *)
let lookup_record t ?unitc ty =
  match type_head ty with
  | None -> None
  | Some parts -> (
      match
        Option.bind unitc (fun u ->
            Hashtbl.find_opt t.records (String.concat "." (u :: parts)))
      with
      | Some ri -> Some ri
      | None -> lookup_suffix t.records parts)

(* ------------------------------------------------------------------ *)
(* Pass 1: collect functions, globals, record types.                   *)

let containers = [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Bytes" ]

let container_pure = [ "hash"; "seeded_hash"; "hash_param"; "to_string" ]

let creation_fns =
  [ "create"; "make"; "init"; "of_seq"; "of_list"; "copy"; "create_float" ]

let last2 qualified =
  match List.rev (String.split_on_char '.' qualified) with
  | fn :: m :: _ -> Some (m, fn)
  | _ -> None

(* Syntactic mutability of a module-level binding's RHS. *)
let rec global_mutability (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (_, _, body) -> global_mutability body
  | Texp_array _ -> Some ("array literal", None)
  | Texp_record { fields; _ }
    when Array.exists
           (fun (ld, _) -> ld.Types.lbl_mut = Asttypes.Mutable)
           fields ->
      Some ("record with mutable fields", Some e.exp_type)
  | Texp_apply (f, _) -> (
      match f.exp_desc with
      | Texp_ident (p, _, _) -> (
          let q = canon_str p in
          if q = "ref" then Some ("ref cell", None)
          else
            match last2 q with
            | Some (m, fn)
              when (List.mem m containers || m = "Array")
                   && List.mem fn creation_fns ->
                Some (m ^ "." ^ fn ^ " value", None)
            | _ -> None)
      | _ -> None)
  | _ -> None

let is_function (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* Peel the parameter lambdas of a binding: the bodies are where the
   interesting statements live.  Multi-case [function] keeps the guard
   expressions as extra bodies. *)
let rec peel_bodies (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ c ]; _ } when c.c_guard = None ->
      if is_function c.c_rhs then peel_bodies c.c_rhs else [ c.c_rhs ]
  | Texp_function { cases; _ } ->
      List.concat_map
        (fun (c : Typedtree.value Typedtree.case) ->
          Option.to_list c.c_guard @ [ c.c_rhs ])
        cases
  | _ -> [ e ]

type builder = {
  mutable b_funcs : func list;  (* reverse order *)
  mutable b_count : int;
  b_by_name : (string, int) Hashtbl.t;
  b_by_loc : (string, int) Hashtbl.t;
  b_fn_stamps : (string * string, int) Hashtbl.t;
  b_globals : (string, global_info) Hashtbl.t;
  b_global_stamps : (string * string, string) Hashtbl.t;
  b_local_vbs : (string * string, Typedtree.expression) Hashtbl.t;
  b_records : (string, record_info) Hashtbl.t;
}

let register_func b ~unit_ ~unitc ~name ?lib_name ~toplevel ~parent ~attrs ~loc
    bodies =
  let fid = b.b_count in
  b.b_count <- fid + 1;
  let f =
    {
      fid;
      f_unit = unit_;
      f_unitc = unitc;
      f_name = name;
      f_file = loc_file loc;
      f_line = loc_line loc;
      f_toplevel = toplevel;
      f_parent = parent;
      f_attrs = attrs;
      f_bodies = bodies;
      f_calls = [];
      f_defines = [];
      f_ops = [];
      f_spawns = [];
      f_checkpoints = false;
    }
  in
  b.b_funcs <- f :: b.b_funcs;
  if toplevel then begin
    if not (Hashtbl.mem b.b_by_name name) then Hashtbl.add b.b_by_name name fid;
    match lib_name with
    | Some a when not (Hashtbl.mem b.b_by_name a) ->
        Hashtbl.add b.b_by_name a fid
    | _ -> ()
  end;
  if not (Hashtbl.mem b.b_by_loc (loc_key loc)) then
    Hashtbl.add b.b_by_loc (loc_key loc) fid;
  (fid, f)

let collect_unit b (u : Cmt_load.unit_info) =
  let modname = u.modname and unitc = u.canonical in
  let add_define (parent : func) fid =
    parent.f_defines <- (fid, false) :: parent.f_defines
  in
  (* Scan a function body for nested named functions and anonymous
     closures; both become graph nodes with a defines edge from the
     parent.  Everything else is recursed into generically. *)
  let rec scan_body (parent : func) (e : Typedtree.expression) =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun sub x ->
            match x.exp_desc with
            | Texp_let (_, vbs, cont) ->
                List.iter (fun vb -> scan_vb parent vb) vbs;
                sub.expr sub cont
            | Texp_function _ ->
                let name =
                  Printf.sprintf "%s.<fun:%d>" parent.f_name
                    (loc_line x.exp_loc)
                in
                ignore (nested parent ~name ~attrs:[] ~loc:x.exp_loc x : int)
            | _ -> Tast_iterator.default_iterator.expr sub x);
      }
    in
    it.expr it e
  and scan_vb (parent : func) (vb : Typedtree.value_binding) =
    match (vb.vb_pat.pat_desc, is_function vb.vb_expr) with
    | Typedtree.Tpat_var (id, _), true ->
        let name = parent.f_name ^ "." ^ Ident.name id in
        let fid =
          nested parent ~name
            ~attrs:(attr_names vb.vb_attributes)
            ~loc:vb.vb_expr.exp_loc vb.vb_expr
        in
        Hashtbl.replace b.b_fn_stamps (modname, Ident.unique_name id) fid
    | _ ->
        List.iter
          (fun id ->
            Hashtbl.replace b.b_local_vbs
              (modname, Ident.unique_name id)
              vb.vb_expr)
          (pattern_idents vb.vb_pat);
        scan_body parent vb.vb_expr
  and nested parent ~name ~attrs ~loc e =
    let bodies = peel_bodies e in
    let fid, f =
      register_func b ~unit_:modname ~unitc ~name ~toplevel:false
        ~parent:(Some parent.fid) ~attrs ~loc bodies
    in
    add_define parent fid;
    List.iter (scan_body f) bodies;
    fid
  in
  let init_parent = ref None in
  let init_func () =
    match !init_parent with
    | Some f -> f
    | None ->
        let loc =
          Location.in_file
            (match u.source with "" -> unitc ^ ".ml" | s -> s)
        in
        let _, f =
          register_func b ~unit_:modname ~unitc ~name:(unitc ^ ".(init)")
            ~toplevel:false ~parent:None ~attrs:[] ~loc []
        in
        init_parent := Some f;
        f
  in
  let rec items mpath (its : Typedtree.structure_item list) =
    List.iter (item mpath) its
  and item mpath (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_value (_, vbs) -> List.iter (toplevel_vb mpath) vbs
    | Tstr_type (_, decls) -> List.iter (type_decl mpath) decls
    | Tstr_module mb -> module_binding mpath mb
    | Tstr_recmodule mbs -> List.iter (module_binding mpath) mbs
    | Tstr_eval (e, _) -> scan_body (init_func ()) e
    | _ -> ()
  and module_binding mpath (mb : Typedtree.module_binding) =
    match mb.mb_name.txt with
    | None -> ()
    | Some name -> (
        let rec unwrap (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_structure str -> Some str
          | Tmod_constraint (me, _, _, _) -> unwrap me
          | _ -> None
        in
        match unwrap mb.mb_expr with
        | Some str -> items (mpath @ [ name ]) str.str_items
        | None -> ())
  and toplevel_vb mpath (vb : Typedtree.value_binding) =
    match (vb.vb_pat.pat_desc, is_function vb.vb_expr) with
    | Typedtree.Tpat_var (id, _), true ->
        let name =
          String.concat "." ((unitc :: mpath) @ [ Ident.name id ])
        in
        let lib_name =
          String.concat "."
            (split_wrapped modname @ mpath @ [ Ident.name id ])
        in
        let bodies = peel_bodies vb.vb_expr in
        let fid, f =
          register_func b ~unit_:modname ~unitc ~name ~lib_name ~toplevel:true
            ~parent:None
            ~attrs:(attr_names vb.vb_attributes)
            ~loc:vb.vb_expr.exp_loc bodies
        in
        Hashtbl.replace b.b_fn_stamps (modname, Ident.unique_name id) fid;
        List.iter (scan_body f) bodies
    | pat, _ ->
        let ids = pattern_idents vb.vb_pat in
        let key_of id = String.concat "." ((unitc :: mpath) @ [ Ident.name id ]) in
        (match (pat, ids, global_mutability vb.vb_expr) with
        | _, [ id ], Some (desc, rec_ty) ->
            let key = key_of id in
            let safe =
              u.domain_safe || has_attr safe_attr (attr_names vb.vb_attributes)
            in
            let info =
              {
                g_key = key;
                g_unit = unitc;
                g_desc = desc;
                g_loc = vb.vb_expr.exp_loc;
                g_safe = safe;
                g_rec_ty = rec_ty;
              }
            in
            if not (Hashtbl.mem b.b_globals key) then
              Hashtbl.add b.b_globals key info;
            let lib_key =
              String.concat "."
                (split_wrapped modname @ mpath @ [ Ident.name id ])
            in
            if not (Hashtbl.mem b.b_globals lib_key) then
              Hashtbl.add b.b_globals lib_key info;
            Hashtbl.replace b.b_global_stamps
              (modname, Ident.unique_name id)
              key
        | _ ->
            List.iter
              (fun id ->
                Hashtbl.replace b.b_local_vbs
                  (modname, Ident.unique_name id)
                  vb.vb_expr)
              ids);
        scan_body (init_func ()) vb.vb_expr
  and type_decl mpath (td : Typedtree.type_declaration) =
    match td.typ_kind with
    | Ttype_record lds ->
        let muts =
          List.filter_map
            (fun (ld : Typedtree.label_declaration) ->
              if ld.ld_mutable = Asttypes.Mutable then Some (Ident.name ld.ld_id)
              else None)
            lds
        in
        if muts <> [] then begin
          let has_mutex =
            List.exists
              (fun (ld : Typedtree.label_declaration) ->
                match type_head ld.ld_type.ctyp_type with
                | Some parts -> suffix_matches [ "Mutex"; "t" ] (String.concat "." parts)
                | None -> false)
              lds
          in
          let key =
            String.concat "." ((unitc :: mpath) @ [ Ident.name td.typ_id ])
          in
          let safe =
            u.domain_safe || has_attr safe_attr (attr_names td.typ_attributes)
          in
          let info =
            {
              r_key = key;
              r_unit = unitc;
              r_loc = td.typ_loc;
              r_mutable_fields = muts;
              r_has_mutex = has_mutex;
              r_safe = safe;
            }
          in
          if not (Hashtbl.mem b.b_records key) then
            Hashtbl.add b.b_records key info
        end
    | _ -> ()
  in
  items [] u.str.str_items

(* ------------------------------------------------------------------ *)
(* Pass 2: evaluation-order walk of each function body.                *)

type wstate = { mutable lock : int }

let spawn_targets =
  [
    ([ "Pool"; "submit" ], `Last);
    ([ "Domain"; "spawn" ], `First);
    ([ "Thread"; "create" ], `First);
  ]

let writing_fns =
  [
    "replace"; "add"; "remove"; "reset"; "clear"; "set"; "unsafe_set"; "fill";
    "blit"; "take"; "take_opt"; "pop"; "pop_opt"; "push"; "transfer"; "drop";
    "truncate"; "add_char"; "add_string"; "add_bytes"; "add_buffer";
    "add_subbytes"; "add_substring"; "filter_map_inplace"; "unsafe_fill";
    "blit_string"; "unsafe_blit";
  ]

let walk_func t ~modname ~unitc (f : func) =
  let resolve p = resolve_value t ~modname ~unitc p in
  let rec peel_proj (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_field (r, _, _) -> peel_proj r
    | Texp_apply (fn, [ (Asttypes.Nolabel, Some r) ])
      when (match fn.exp_desc with
           | Texp_ident (p, _, _) -> canon_str p = "!"
           | _ -> false) ->
        peel_proj r
    | _ -> e
  in
  let classify_root (e : Typedtree.expression) =
    match (peel_proj e).exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
        let k = (modname, Ident.unique_name id) in
        match Hashtbl.find_opt t.global_stamps k with
        | Some g -> Rglobal g
        | None -> Rvar (Ident.unique_name id, Ident.name id))
    | Texp_ident (p, _, _) -> (
        match resolve p with `Global g -> Rglobal g | _ -> Runknown)
    | _ -> Runknown
  in
  let add_op st ~desc ~write root loc =
    f.f_ops <-
      {
        op_desc = desc;
        op_root = root;
        op_write = write;
        op_locked = st.lock > 0;
        op_loc = loc;
      }
      :: f.f_ops
  in
  let clone st = { lock = st.lock } in
  let first_nolabel args =
    List.find_map
      (function Asttypes.Nolabel, (Some _ as e) -> e | _ -> None)
      args
  in
  let last_nolabel args = first_nolabel (List.rev args) in
  let rec go st (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable
    | Texp_extension_constructor _ | Texp_new _ ->
        ()
    | Texp_let (_, vbs, body) ->
        List.iter (fun (vb : Typedtree.value_binding) -> go st vb.vb_expr) vbs;
        go st body
    | Texp_function _ -> ()  (* a separate node; defines edge from pass 1 *)
    | Texp_apply (fn, args) -> apply st fn args e.exp_loc
    | Texp_match (scrut, cases, _) ->
        go st scrut;
        branches st
          (List.map
             (fun (c : Typedtree.computation Typedtree.case) st' ->
               Option.iter (go st') c.c_guard;
               go st' c.c_rhs)
             cases)
    | Texp_try (body, cases) ->
        branches st
          ((fun st' -> go st' body)
          :: List.map
               (fun (c : Typedtree.value Typedtree.case) st' ->
                 Option.iter (go st') c.c_guard;
                 go st' c.c_rhs)
               cases)
    | Texp_tuple es | Texp_array es -> List.iter (go st) es
    | Texp_construct (_, _, es) -> List.iter (go st) es
    | Texp_variant (_, eo) -> Option.iter (go st) eo
    | Texp_record { fields; extended_expression; _ } ->
        Option.iter (go st) extended_expression;
        Array.iter
          (fun ((_, d) : Types.label_description * Typedtree.record_label_definition) ->
            match d with
            | Typedtree.Overridden (_, x) -> go st x
            | Typedtree.Kept _ -> ())
          fields
    | Texp_field (r, _, ld) ->
        go st r;
        field_op st ~write:false r ld e.exp_loc
    | Texp_setfield (r, _, ld, v) ->
        go st r;
        go st v;
        field_op st ~write:true r ld e.exp_loc
    | Texp_ifthenelse (c, th, eo) -> (
        go st c;
        match eo with
        | Some el -> branches st [ (fun st' -> go st' th); (fun st' -> go st' el) ]
        | None -> discard st th)
    | Texp_sequence (a, bx) ->
        go st a;
        go st bx
    | Texp_while (c, body) ->
        go st c;
        discard st body
    | Texp_for (_, _, lo, hi, _, body) ->
        go st lo;
        go st hi;
        discard st body
    | Texp_send (o, _) -> go st o
    | Texp_setinstvar (_, _, _, v) -> go st v
    | Texp_override (_, fs) -> List.iter (fun (_, _, x) -> go st x) fs
    | Texp_letmodule (_, _, _, _, body) -> go st body
    | Texp_letexception (_, body) -> go st body
    | Texp_assert (x, _) -> go st x
    | Texp_lazy x -> discard st x
    | Texp_object _ -> ()
    | Texp_pack _ -> ()
    | Texp_letop { let_; ands; body; _ } ->
        go st let_.bop_exp;
        List.iter (fun (a : Typedtree.binding_op) -> go st a.bop_exp) ands;
        discard st body.c_rhs
    | Texp_open (_, body) -> go st body
  (* Branch merge: walk each arm from the current state, keep the
     weakest lock depth — protection must hold on every path. *)
  and branches st arms =
    let locks =
      List.map
        (fun arm ->
          let st' = clone st in
          arm st';
          st'.lock)
        arms
    in
    st.lock <- List.fold_left min st.lock locks
  (* Deferred or possibly-skipped code: effects on lock state stay
     local (a while body may run zero times). *)
  and discard st e =
    let st' = clone st in
    go st' e
  and field_op st ~write r (ld : Types.label_description) loc =
    if write || ld.lbl_mut = Asttypes.Mutable then begin
      let exempt =
        match lookup_record t ~unitc ld.lbl_res with
        | Some ri -> ri.r_safe || ri.r_has_mutex
        | None -> false
      in
      if not exempt then
        add_op st
          ~desc:
            (Printf.sprintf "mutable field %s `.%s`"
               (if write then "write" else "read")
               ld.lbl_name)
          ~write (classify_root r) loc
    end
  and apply st fn args loc =
    let fn_canon () =
      match fn.exp_desc with
      | Texp_ident (p, _, _) -> canon_str p
      | _ -> ""
    in
    match (fn_canon (), args) with
    | "@@", [ (Asttypes.Nolabel, Some g); (Asttypes.Nolabel, Some x) ] ->
        redirect st g x loc
    | "|>", [ (Asttypes.Nolabel, Some x); (Asttypes.Nolabel, Some g) ] ->
        redirect st g x loc
    | _ ->
        go st fn;
        List.iter (fun (_, eo) -> Option.iter (go st) eo) args;
        let target =
          match fn.exp_desc with
          | Texp_ident (p, _, _) -> resolve p
          | _ -> `None
        in
        let qual =
          match (target, fn.exp_desc) with
          | `Func fid, _ -> Some t.funcs.(fid).f_name
          | _, Texp_ident (p, _, _) -> Some (canon_str p)
          | _ -> None
        in
        (match qual with
        | Some q when suffix_matches [ "Mutex"; "lock" ] q ->
            st.lock <- st.lock + 1
        | Some q when suffix_matches [ "Mutex"; "unlock" ] q ->
            st.lock <- max 0 (st.lock - 1)
        | Some q
          when suffix_matches [ "Budget"; "check" ] q
               || suffix_matches [ "Budget"; "charge" ] q ->
            f.f_checkpoints <- true
        | Some q when suffix_matches [ "Mutex"; "protect" ] q -> (
            (* The body closure runs with the mutex held. *)
            let body_fid =
              match last_nolabel args with
              | Some barg -> (
                  match barg.exp_desc with
                  | Texp_function _ ->
                      Hashtbl.find_opt t.by_loc (loc_key barg.exp_loc)
                  | Texp_ident (p, _, _) -> (
                      match resolve p with `Func fid -> Some fid | _ -> None)
                  | _ -> None)
              | None -> None
            in
            match body_fid with
            | Some bfid ->
                f.f_calls <-
                  { c_dst = bfid; c_locked = true; c_loc = loc } :: f.f_calls;
                f.f_defines <-
                  List.map
                    (fun (d, l) -> if d = bfid then (d, true) else (d, l))
                    f.f_defines
            | None -> ())
        | _ -> ());
        (match qual with
        | Some q -> (
            match
              List.find_opt (fun (sfx, _) -> suffix_matches sfx q) spawn_targets
            with
            | Some (_, pos) -> (
                let arg =
                  match pos with
                  | `First -> first_nolabel args
                  | `Last -> last_nolabel args
                in
                match arg with
                | Some a ->
                    f.f_spawns <-
                      { sp_via = q; sp_arg = a; sp_loc = loc } :: f.f_spawns
                | None -> ())
            | None -> ())
        | None -> ());
        (match target with
        | `Func fid ->
            f.f_calls <-
              { c_dst = fid; c_locked = st.lock > 0; c_loc = loc } :: f.f_calls
        | _ -> ());
        (match qual with
        | Some q -> apply_op st q args loc
        | None -> ())
  and redirect st g x loc =
    match g.exp_desc with
    | Texp_apply (g0, args0) ->
        apply st g0 (args0 @ [ (Asttypes.Nolabel, Some x) ]) loc
    | _ -> apply st g [ (Asttypes.Nolabel, Some x) ] loc
  and apply_op st q args loc =
    let root0 () =
      match first_nolabel args with
      | Some a -> classify_root a
      | None -> Runknown
    in
    match q with
    | ":=" -> add_op st ~desc:"ref write (:=)" ~write:true (root0 ()) loc
    | "!" -> add_op st ~desc:"ref read (!)" ~write:false (root0 ()) loc
    | "incr" | "decr" ->
        add_op st ~desc:("ref write (" ^ q ^ ")") ~write:true (root0 ()) loc
    | _ -> (
        match last2 q with
        | Some (m, fn)
          when List.mem m containers
               && (not (List.mem fn container_pure))
               && not (List.mem fn creation_fns) ->
            add_op st ~desc:q ~write:(List.mem fn writing_fns) (root0 ()) loc
        | Some ("Array", fn) when List.mem fn [ "set"; "unsafe_set"; "fill" ]
          ->
            add_op st ~desc:("Array." ^ fn) ~write:true (root0 ()) loc
        | _ -> ())
  in
  let st = { lock = 0 } in
  List.iter (go st) f.f_bodies

(* ------------------------------------------------------------------ *)

let build (units : Cmt_load.unit_info list) =
  let b =
    {
      b_funcs = [];
      b_count = 0;
      b_by_name = Hashtbl.create 256;
      b_by_loc = Hashtbl.create 256;
      b_fn_stamps = Hashtbl.create 256;
      b_globals = Hashtbl.create 64;
      b_global_stamps = Hashtbl.create 64;
      b_local_vbs = Hashtbl.create 256;
      b_records = Hashtbl.create 64;
    }
  in
  List.iter (collect_unit b) units;
  let funcs = Array.of_list (List.rev b.b_funcs) in
  let t =
    {
      funcs;
      by_name = b.b_by_name;
      by_loc = b.b_by_loc;
      fn_stamps = b.b_fn_stamps;
      globals = b.b_globals;
      global_stamps = b.b_global_stamps;
      local_vbs = b.b_local_vbs;
      records = b.b_records;
    }
  in
  Array.iter (fun f -> walk_func t ~modname:f.f_unit ~unitc:f.f_unitc f) funcs;
  t
