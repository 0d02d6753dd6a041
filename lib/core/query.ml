type sgq = {
  p : int;
  s : int;
  k : int;
}

type stgq = {
  p : int;
  s : int;
  k : int;
  m : int;
}

type instance = {
  graph : Socgraph.Graph.t;
  initiator : int;
}

type temporal_instance = {
  social : instance;
  schedules : Timetable.Availability.t array;
}

type sg_solution = {
  attendees : int list;
  total_distance : float;
}

type stg_solution = {
  st_attendees : int list;
  st_total_distance : float;
  start_slot : int;
}

let check_sgq ({ p; s; k } : sgq) =
  if p < 1 then invalid_arg "Query: p must be >= 1";
  if s < 1 then invalid_arg "Query: s must be >= 1";
  if k < 0 then invalid_arg "Query: k must be >= 0"

let check_stgq ({ p; s; k; m } : stgq) =
  check_sgq { p; s; k };
  if m < 1 then invalid_arg "Query: m must be >= 1"

let check_instance { graph; initiator } =
  if initiator < 0 || initiator >= Socgraph.Graph.n_vertices graph then
    invalid_arg "Query: initiator out of range"

let check_temporal_instance { social; schedules } =
  check_instance social;
  Timetable.Availability.check_schedules
    ~n:(Socgraph.Graph.n_vertices social.graph)
    schedules

let sg_context ?ctx { graph; initiator } ~s =
  match ctx with
  | Some c ->
      Engine.Context.ensure_for c ~initiator ~s;
      c
  | None -> Engine.Context.build graph ~initiator ~s

let stg_context ?ctx ti ~s =
  if Option.is_none ctx then check_temporal_instance ti;
  let ctx = sg_context ?ctx ti.social ~s in
  (ctx, Engine.Feasible.slab ctx.Engine.Context.fg ti.schedules)

let sgq_of_stgq { p; s; k; m = _ } = { p; s; k }

let pp_sg_solution ppf { attendees; total_distance } =
  Format.fprintf ppf "group {%a}, total distance %g"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    attendees total_distance

let pp_stg_solution ~m ppf { st_attendees; st_total_distance; start_slot } =
  Format.fprintf ppf "group {%a}, total distance %g, period %a .. %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    st_attendees st_total_distance Timetable.Slot.pp start_slot Timetable.Slot.pp
    (start_slot + m - 1)
