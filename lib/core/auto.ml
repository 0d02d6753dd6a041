type choice = Exact | Beam

type plan = {
  choice : choice;
  feasible_size : int;
  log10_groups : float;
}

(* log10 C(n, r) without overflow. *)
let log10_choose n r =
  if r < 0 || r > n then neg_infinity
  else begin
    let r = min r (n - r) in
    let acc = ref 0. in
    for i = 1 to r do
      acc := !acc +. log10 (float_of_int (n - r + i)) -. log10 (float_of_int i)
    done;
    !acc
  end

let make_plan ~budget fg (p : int) =
  let f = Feasible.size fg in
  let lg = log10_choose (f - 1) (p - 1) in
  {
    choice = (if lg <= log10 budget then Exact else Beam);
    feasible_size = f;
    log10_groups = lg;
  }

let plan_sgq ?(budget = 1e8) instance (query : Query.sgq) =
  Query.check_sgq query;
  let ctx = Feasible.context_of_instance instance ~s:query.s in
  make_plan ~budget ctx.Engine.Context.fg query.p

let sgq ?(budget = 1e8) ?beam_width instance (query : Query.sgq) =
  Query.check_sgq query;
  (* One context serves the planning estimate and the chosen solver. *)
  let ctx = Feasible.context_of_instance instance ~s:query.s in
  let plan = make_plan ~budget ctx.Engine.Context.fg query.p in
  let solution =
    match plan.choice with
    | Exact -> Sgselect.solve ~ctx instance query
    | Beam -> Heuristics.beam_sgq ?width:beam_width ~ctx instance query
  in
  (* Exact or heuristic, the answer leaves with a validated certificate. *)
  (Validate.certify_sg instance query solution, plan)

let stgq ?(budget = 1e8) ?beam_width (ti : Query.temporal_instance) (query : Query.stgq) =
  Query.check_stgq query;
  let ctx = Feasible.context_of_temporal ti ~s:query.s in
  let plan = make_plan ~budget ctx.Engine.Context.fg query.p in
  let solution =
    match plan.choice with
    | Exact -> Stgselect.solve ~ctx ti query
    | Beam -> Heuristics.beam_stgq ?width:beam_width ~ctx ti query
  in
  (Validate.certify_stg ti query solution, plan)
