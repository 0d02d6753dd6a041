(* lint: allow-file toplevel-state *)
(* Query-level tracing: hierarchical spans recorded into per-domain
   lock-free ring buffers and stitched into trees at read time.  Like
   the metric registry the buffers are process-global — any layer can
   open a span without threading a tracer handle through every API.

   Record-path discipline: when tracing is disabled every entry point
   ([with_span], [add_attrs], [current]) reads exactly one atomic flag
   and returns; no clock reads, no allocation. *)

(* Domain-safety contract for the typed analysis: the rings are
   per-domain shards indexed by [Domain.self ()] and every shared
   scalar is Atomic — cross-domain access is by design. *)
[@@@lint.domain_safe]

type ctx = {
  trace_id : int;
  span_id : int;
}

type span = {
  sp_trace : int;
  sp_id : int;
  sp_parent : int;  (* 0 = no parent (root) *)
  sp_name : string;
  sp_domain : int;
  sp_start_ns : float;
  sp_dur_ns : float;
  sp_attrs : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Switch — separate from the metric registry's, so metrics and
   tracing can be enabled and costed independently. *)

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* ------------------------------------------------------------------ *)
(* Span/trace ids: one global atomic sequence, never 0.                *)

let next_id = Atomic.make 1

let fresh_id () = Atomic.fetch_and_add next_id 1

(* ------------------------------------------------------------------ *)
(* Per-domain buffers.  Writers claim a slot with one fetch-and-add on
   their shard's cursor, then publish the span with one atomic exchange
   on the slot — no locks, no cross-domain contention on the record
   path.  Slots are atomic so a reader on another domain always sees a
   fully-published span or nothing.                                    *)

let n_shards = 16 (* power of two *)

let slots_per_shard = 512 (* power of two *)

type shard = {
  slots : span option Atomic.t array;
  cursor : int Atomic.t;
}

let shards =
  Array.init n_shards (fun _ ->
      {
        slots = Array.init slots_per_shard (fun _ -> Atomic.make None);
        cursor = Atomic.make 0;
      })

let recorded_total = Atomic.make 0

let dropped_total = Atomic.make 0

let capacity = n_shards * slots_per_shard

let record sp =
  let sh = shards.((Domain.self () :> int) land (n_shards - 1)) in
  let i = Atomic.fetch_and_add sh.cursor 1 in
  (match Atomic.exchange sh.slots.(i land (slots_per_shard - 1)) (Some sp) with
  | Some _ -> Atomic.incr dropped_total
  | None -> ());
  Atomic.incr recorded_total

let total_recorded () = Atomic.get recorded_total

let dropped () = Atomic.get dropped_total

let by_start a b = compare (a.sp_start_ns, a.sp_id) (b.sp_start_ns, b.sp_id)

(* Every buffered span, oldest first. *)
let spans () =
  let all =
    Array.fold_left
      (fun acc sh ->
        Array.fold_left
          (fun acc slot ->
            match Atomic.get slot with Some sp -> sp :: acc | None -> acc)
          acc sh.slots)
      [] shards
  in
  List.sort by_start all

let reset () =
  Array.iter
    (fun sh ->
      Array.iter (fun slot -> Atomic.set slot None) sh.slots;
      Atomic.set sh.cursor 0)
    shards;
  Atomic.set recorded_total 0;
  Atomic.set dropped_total 0

(* Publish the totals into every registry snapshot and hook [reset]
   into Registry.reset, without a module cycle. *)
let () =
  Registry.register_counter_source (fun () ->
      [
        ("obs.trace.spans", total_recorded ());
        ("obs.trace.dropped", dropped ());
      ]);
  Registry.register_reset_hook reset

(* ------------------------------------------------------------------ *)
(* Current-span context: a per-domain stack of open frames.            *)

type frame = {
  f_ctx : ctx;
  (* the attr lists as given, newest list first; flattened once, at
     record time, so adding a list costs one cell whatever its length *)
  mutable f_attrs : (string * string) list list;
}

let tls : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let current () =
  if not (Atomic.get enabled_flag) then None
  else
    match !(Domain.DLS.get tls) with [] -> None | f :: _ -> Some f.f_ctx

let add_attrs kvs =
  if Atomic.get enabled_flag then
    match !(Domain.DLS.get tls) with
    | [] -> ()
    | f :: _ -> f.f_attrs <- kvs :: f.f_attrs

(* [with_ctx ctx f] runs [f] with [ctx] installed as the parent for
   spans opened inside — the cross-domain half of propagation: capture
   [current ()] where work is submitted, install it where it runs. *)
let with_ctx octx f =
  match octx with
  | None -> f ()
  | Some c ->
      if not (Atomic.get enabled_flag) then f ()
      else begin
        let stack = Domain.DLS.get tls in
        let saved = !stack in
        stack := { f_ctx = c; f_attrs = [] } :: saved;
        Fun.protect ~finally:(fun () -> stack := saved) f
      end

(* Pop [frame] (restoring [saved]) and record its span. *)
let close stack saved frame ~parent name t0 =
  let dur = Registry.now_ns () -. t0 in
  stack := saved;
  record
    {
      sp_trace = frame.f_ctx.trace_id;
      sp_id = frame.f_ctx.span_id;
      sp_parent = parent;
      sp_name = name;
      sp_domain = (Domain.self () :> int);
      sp_start_ns = t0;
      sp_dur_ns = dur;
      sp_attrs = List.concat (List.rev frame.f_attrs);
    }

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get tls in
    let saved = !stack in
    let id = fresh_id () in
    let frame, parent =
      match saved with
      | f0 :: _ ->
          ( { f_ctx = { trace_id = f0.f_ctx.trace_id; span_id = id }; f_attrs = [ attrs ] },
            f0.f_ctx.span_id )
      | [] -> ({ f_ctx = { trace_id = id; span_id = id }; f_attrs = [ attrs ] }, 0)
    in
    stack := frame :: saved;
    let t0 = Registry.now_ns () in
    match f () with
    | v ->
        close stack saved frame ~parent name t0;
        v
    | exception e ->
        close stack saved frame ~parent name t0;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Read-time stitching.                                                *)

type tree = {
  t_span : span;
  t_children : tree list;
}

let trees spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.sp_id sp) spans;
  let children : (int, span list) Hashtbl.t = Hashtbl.create 64 in
  let roots = ref [] in
  List.iter
    (fun sp ->
      if sp.sp_parent <> 0 && Hashtbl.mem by_id sp.sp_parent then
        Hashtbl.replace children sp.sp_parent
          (sp :: Option.value ~default:[] (Hashtbl.find_opt children sp.sp_parent))
      else roots := sp :: !roots)
    spans;
  let rec build sp =
    let kids =
      List.sort by_start
        (Option.value ~default:[] (Hashtbl.find_opt children sp.sp_id))
    in
    { t_span = sp; t_children = List.map build kids }
  in
  List.map build (List.sort by_start !roots)

let last () =
  match List.rev (trees (spans ())) with [] -> None | t :: _ -> Some t

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)

let quote s = "\"" ^ Registry.json_escape s ^ "\""

let span_args sp =
  ("trace_id", string_of_int sp.sp_trace)
  :: ("span_id", string_of_int sp.sp_id)
  :: ("parent_id", string_of_int sp.sp_parent)
  :: sp.sp_attrs

(* Chrome trace-event JSON (the format Perfetto and chrome://tracing
   load): one complete ("ph":"X") event per span, timestamps in
   microseconds, one process per trace id, one thread per domain. *)
let chrome_json spans =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n  ";
      Buffer.add_string buf
        (Registry.json_object
           [
             ("name", quote sp.sp_name);
             ("cat", quote "stgq");
             ("ph", quote "X");
             ("ts", Printf.sprintf "%.3f" (sp.sp_start_ns /. 1e3));
             ("dur", Printf.sprintf "%.3f" (sp.sp_dur_ns /. 1e3));
             ("pid", string_of_int sp.sp_trace);
             ("tid", string_of_int sp.sp_domain);
             ( "args",
               Registry.json_object
                 (List.map (fun (k, v) -> (k, quote v)) (span_args sp)) );
           ]))
    spans;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let rec tree_json t =
  let sp = t.t_span in
  Registry.json_object
    [
      ("name", quote sp.sp_name);
      ("trace_id", string_of_int sp.sp_trace);
      ("span_id", string_of_int sp.sp_id);
      ("parent_id", string_of_int sp.sp_parent);
      ("domain", string_of_int sp.sp_domain);
      ("start_ns", Printf.sprintf "%.0f" sp.sp_start_ns);
      ("dur_ns", Printf.sprintf "%.0f" sp.sp_dur_ns);
      ( "attrs",
        Registry.json_object (List.map (fun (k, v) -> (k, quote v)) sp.sp_attrs)
      );
      ( "children",
        "[" ^ String.concat ", " (List.map tree_json t.t_children) ^ "]" );
    ]

let render t =
  let buf = Buffer.create 512 in
  let attr_text attrs =
    match attrs with
    | [] -> ""
    | kvs ->
        "  ("
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ ")"
  in
  let rec walk prefix child_prefix t =
    let sp = t.t_span in
    Buffer.add_string buf
      (Printf.sprintf "%s%s  %s  [d%d]%s\n" prefix sp.sp_name
         (Report.ns sp.sp_dur_ns) sp.sp_domain (attr_text sp.sp_attrs));
    let rec each = function
      | [] -> ()
      | [ c ] -> walk (child_prefix ^ "`- ") (child_prefix ^ "   ") c
      | c :: rest ->
          walk (child_prefix ^ "|- ") (child_prefix ^ "|  ") c;
          each rest
    in
    each t.t_children
  in
  walk "" "" t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Pruning waterfall: the per-query solver profile, folded out of the
   search-stat attrs Instr.record_search attaches to solve spans.      *)

type waterfall = {
  w_solves : int;
  w_nodes : int;
  w_examined : int;
  w_included : int;
  w_deferred : int;
  w_removed_exterior : int;
  w_removed_interior : int;
  w_removed_temporal : int;
  w_pruned_distance : int;
  w_pruned_acquaintance : int;
  w_pruned_availability : int;
  w_self_ns : (string * float) list;
  w_budget_trip : (string * string) option;
}

let waterfall t =
  let sum key =
    let total = ref 0 in
    let rec walk t =
      List.iter
        (fun (k, v) ->
          if k = key then
            total := !total + Option.value ~default:0 (int_of_string_opt v))
        t.t_span.sp_attrs;
      List.iter walk t.t_children
    in
    walk t;
    !total
  in
  let self_ns = Hashtbl.create 16 in
  let rec walk_self t =
    let kids_ns =
      List.fold_left (fun acc c -> acc +. c.t_span.sp_dur_ns) 0. t.t_children
    in
    let self = Float.max 0. (t.t_span.sp_dur_ns -. kids_ns) in
    let name = t.t_span.sp_name in
    Hashtbl.replace self_ns name
      (self +. Option.value ~default:0. (Hashtbl.find_opt self_ns name));
    List.iter walk_self t.t_children
  in
  walk_self t;
  let trip = ref None in
  let rec find_trip t =
    (match List.assoc_opt "budget.trip" t.t_span.sp_attrs with
    | Some reason when !trip = None ->
        let at =
          Option.value ~default:"?"
            (List.assoc_opt "budget.checkpoint_nodes" t.t_span.sp_attrs)
        in
        trip := Some (reason, at)
    | _ -> ());
    List.iter find_trip t.t_children
  in
  find_trip t;
  {
    w_solves = sum "search.solves";
    w_nodes = sum "search.nodes";
    w_examined = sum "search.examined";
    w_included = sum "search.includes";
    w_deferred = sum "search.deferred";
    w_removed_exterior = sum "search.removed.exterior";
    w_removed_interior = sum "search.removed.interior";
    w_removed_temporal = sum "search.removed.temporal";
    w_pruned_distance = sum "search.pruned.distance";
    w_pruned_acquaintance = sum "search.pruned.acquaintance";
    w_pruned_availability = sum "search.pruned.availability";
    w_self_ns =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) self_ns []
      |> List.sort (fun (_, a) (_, b) -> compare b a);
    w_budget_trip = !trip;
  }

(* The accounting identity the kernel maintains: every candidate the
   expansion loop examines is included, removed by one of the three
   filtering rules, or deferred to a later relaxation round. *)
let waterfall_balanced w =
  w.w_examined
  = w.w_included + w.w_removed_exterior + w.w_removed_interior
    + w.w_removed_temporal + w.w_deferred

let render_waterfall w =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "pruning waterfall (%d solve%s, %d nodes expanded)" w.w_solves
    (if w.w_solves = 1 then "" else "s")
    w.w_nodes;
  line "  candidates examined          %8d" w.w_examined;
  line "  |- removed: exterior-unfamiliar %5d" w.w_removed_exterior;
  line "  |- removed: interior-unfamiliar %5d" w.w_removed_interior;
  line "  |- removed: temporal            %5d" w.w_removed_temporal;
  line "  |- deferred (later relaxation)  %5d" w.w_deferred;
  line "  `- included in a group          %5d" w.w_included;
  line "  balance: %s"
    (if waterfall_balanced w then "exact (kills + deferrals + includes = examined)"
     else "INEXACT — kernel accounting bug");
  line "  bound cuts: distance %d, acquaintance %d, availability %d"
    w.w_pruned_distance w.w_pruned_acquaintance w.w_pruned_availability;
  (match w.w_budget_trip with
  | Some (reason, at) -> line "  budget trip: %s at checkpoint nodes=%s" reason at
  | None -> ());
  if w.w_self_ns <> [] then begin
    line "  phase self-time:";
    List.iter (fun (name, ns) -> line "    %-28s %s" name (Report.ns ns)) w.w_self_ns
  end;
  Buffer.contents buf
