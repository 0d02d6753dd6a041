(** Module-qualified call graph over Typedtree.

    [build] runs two passes.  Pass 1 tables every function — top-level
    bindings (through nested plain modules), [let]-bound local
    functions and anonymous closures — plus module-level mutable
    globals and record types with mutable fields.  Pass 2 walks each
    function body once in evaluation order, tracking a must-hold mutex
    depth, and records the facts the analyses consume: call edges,
    closure-definition edges, mutable-state operations, spawn sites and
    budget checkpoints. *)

(** The base value an operation touches. *)
type root =
  | Rvar of string * string  (** [Ident.unique_name] key, display name *)
  | Rglobal of string  (** key into [globals] *)
  | Runknown

type op = {
  op_desc : string;
  op_root : root;
  op_write : bool;
  op_locked : bool;  (** a Mutex is provably held at the site *)
  op_loc : Location.t;
}

type spawn = {
  sp_via : string;  (** resolved callee, e.g. [Pool.submit] *)
  sp_arg : Typedtree.expression;
  sp_loc : Location.t;
}

type call = { c_dst : int; c_locked : bool; c_loc : Location.t }

type func = {
  fid : int;
  f_unit : string;  (** modname of the defining unit *)
  f_unitc : string;  (** canonical unit name *)
  f_name : string;  (** qualified display name, [Pool.submit.record] *)
  f_file : string;
  f_line : int;
  f_toplevel : bool;
  f_parent : int option;
  f_attrs : string list;
  f_bodies : Typedtree.expression list;
  mutable f_calls : call list;
  mutable f_defines : (int * bool) list;  (** dst, runs-under-lock *)
  mutable f_ops : op list;
  mutable f_spawns : spawn list;
  mutable f_checkpoints : bool;  (** applies Budget.check/charge itself *)
}

type record_info = {
  r_key : string;  (** canonical [Unit.t] *)
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
  g_rec_ty : Types.type_expr option;  (** for record globals: their type *)
}

type t = {
  funcs : func array;
  by_name : (string, int) Hashtbl.t;  (** top-level qualified name -> fid *)
  by_loc : (string, int) Hashtbl.t;  (** function expr loc -> fid *)
  fn_stamps : (string * string, int) Hashtbl.t;
      (** (modname, unique_name) -> fid *)
  globals : (string, global_info) Hashtbl.t;
  global_stamps : (string * string, string) Hashtbl.t;
  local_vbs : (string * string, Typedtree.expression) Hashtbl.t;
      (** every non-function let binding: (modname, unique_name) -> RHS *)
  records : (string, record_info) Hashtbl.t;
}

val loc_key : Location.t -> string
val loc_file : Location.t -> string
val loc_line : Location.t -> int

(** Attribute spellings accepted with or without the [lint.] prefix. *)
val bounded_attr : string list

val safe_attr : string list

val has_attr : string list -> string list -> bool

(** Free value identifiers of an expression with their types, exact by
    stamp uniqueness (an occurrence bound inside the expression is
    bound nowhere else, so free = occurrences minus binders). *)
val free_idents :
  Typedtree.expression -> (Ident.t * Types.type_expr * Location.t) list

(** Locations ([loc_key]) of every closure literal inside. *)
val closure_locs : Typedtree.expression -> string list

(** Record info for a type expression whose head constructor is a known
    mutable-record type.  [unitc] (the referencing unit, canonical) is
    tried as a qualifier first — a within-unit reference is a bare
    [Pident] with no unit in its path — then canonical-name suffix. *)
val lookup_record : t -> ?unitc:string -> Types.type_expr -> record_info option

val build : Cmt_load.unit_info list -> t
