type form = Group_form | Full_form

type 'a outcome = {
  result : 'a option;
  ilp_stats : Ilp.stats;
}

(* ------------------------------------------------------------------ *)
(* Shared pieces.  All variable indices are built over the feasible
   graph's sub-ids; φ_u occupies slot [u] in every formulation, so the
   extraction code below is formulation-agnostic. *)

(* Constraints (1)-(3): cardinality, initiator membership, acquaintance. *)
let social_constraints fg ~p ~k =
  let size = Engine.Feasible.size fg in
  let all_phi = List.init size (fun u -> (u, 1.)) in
  let cardinality = Lp.constr all_phi Lp.Eq (float_of_int p) in
  let initiator = Lp.constr [ (fg.Engine.Feasible.q, 1.) ] Lp.Eq 1. in
  let acquaintance u =
    (* Σ_{v∈N(u)} φ_v >= (p-1) φ_u - k *)
    let nbrs =
      Socgraph.Graph.fold_neighbors fg.Engine.Feasible.sub u (fun v _ acc -> (v, 1.) :: acc) []
    in
    Lp.constr ((u, -.float_of_int (p - 1)) :: nbrs) Lp.Ge (-.float_of_int k)
  in
  cardinality :: initiator :: List.init size acquaintance

(* Temporal constraints (9)-(10) over start-slot variables τ_t, given the
   variable index of τ_t as [tau t].  Constraint (10) rows are emitted
   only where a_{u,t̂} = 0 (they are vacuous otherwise).  [literal] keeps
   one row per (u, t, t̂) as printed; otherwise rows are merged per (u, t). *)
let temporal_constraints fg ~m ~avail ~starts ~tau ~literal =
  let size = Engine.Feasible.size fg in
  let one_per_activity =
    Lp.constr (List.map (fun t -> (tau t, 1.)) starts) Lp.Eq 1.
  in
  let rows = ref [ one_per_activity ] in
  List.iter
    (fun t ->
      for u = 0 to size - 1 do
        if literal then
          for t_hat = t to t + m - 1 do
            if not (Timetable.Availability.available avail.(u) t_hat) then
              (* φ_u <= 1 - τ_t + 0 *)
              rows := Lp.constr [ (u, 1.); (tau t, 1.) ] Lp.Le 1. :: !rows
          done
        else if not (Timetable.Availability.window_free avail.(u) ~start:t ~len:m)
        then rows := Lp.constr [ (u, 1.); (tau t, 1.) ] Lp.Le 1. :: !rows
      done)
    starts;
  !rows

(* Constraints (4)-(8) of the full form: shortest-path flows per target.
   Returns the extra constraints plus the number of flow/distance
   variables appended after the φ block. *)
let path_constraints fg ~s ~delta ~pi =
  let size = Engine.Feasible.size fg in
  let q = fg.Engine.Feasible.q in
  let edges = Socgraph.Graph.edges fg.Engine.Feasible.sub in
  let rows = ref [] in
  for u = 0 to size - 1 do
    if u <> q then begin
      (* (4): flow leaves q iff u is selected. *)
      let out_q =
        Socgraph.Graph.fold_neighbors fg.Engine.Feasible.sub q
          (fun i _ acc -> (pi ~u ~from:q ~into:i, 1.) :: acc)
          []
      in
      rows := Lp.constr ((u, -1.) :: out_q) Lp.Eq 0. :: !rows;
      (* (5): flow enters u iff u is selected. *)
      let in_u =
        Socgraph.Graph.fold_neighbors fg.Engine.Feasible.sub u
          (fun i _ acc -> (pi ~u ~from:i ~into:u, 1.) :: acc)
          []
      in
      rows := Lp.constr ((u, -1.) :: in_u) Lp.Eq 0. :: !rows;
      (* (6): conservation at every other vertex. *)
      for j = 0 to size - 1 do
        if j <> q && j <> u then begin
          let terms =
            Socgraph.Graph.fold_neighbors fg.Engine.Feasible.sub j
              (fun i _ acc ->
                (pi ~u ~from:i ~into:j, 1.) :: (pi ~u ~from:j ~into:i, -1.) :: acc)
              []
          in
          rows := Lp.constr terms Lp.Eq 0. :: !rows
        end
      done;
      (* (7): δ_u equals the selected path's length. *)
      let dist_terms =
        List.concat_map
          (fun (i, j, w) ->
            [ (pi ~u ~from:i ~into:j, w); (pi ~u ~from:j ~into:i, w) ])
          edges
      in
      rows := Lp.constr ((delta u, -1.) :: dist_terms) Lp.Eq 0. :: !rows;
      (* (8): at most s edges on the path. *)
      let hop_terms =
        List.concat_map
          (fun (i, j, _) ->
            [ (pi ~u ~from:i ~into:j, 1.); (pi ~u ~from:j ~into:i, 1.) ])
          edges
      in
      rows := Lp.constr hop_terms Lp.Le (float_of_int s) :: !rows
    end
  done;
  !rows

(* ------------------------------------------------------------------ *)
(* Model assembly.                                                     *)

type layout = {
  n_vars : int;
  kinds : Ilp.var_kind array;
  objective : (int * float) list;
  extra : Lp.constr list;  (** constraints beyond the social ones *)
}

(* Group form: φ only, objective Σ d_u φ_u with precomputed distances. *)
let group_layout fg ~tau_count =
  let size = Engine.Feasible.size fg in
  let n_vars = size + tau_count in
  {
    n_vars;
    kinds = Array.make n_vars Ilp.Binary;
    objective =
      List.init size (fun u -> (u, fg.Engine.Feasible.dist.(u)))
      |> List.filter (fun (_, d) -> d <> 0.);
    extra = [];
  }

(* Full form: φ (binary) + δ (continuous) + π (binary per target and
   directed edge) + τ at the tail. *)
let full_layout fg ~s ~tau_count =
  let size = Engine.Feasible.size fg in
  let edges = Socgraph.Graph.edges fg.Engine.Feasible.sub in
  let n_edges = List.length edges in
  (* Directed-edge index: 2e for (i->j) with i<j, 2e+1 for the reverse. *)
  let edge_index = Hashtbl.create (2 * n_edges) in
  List.iteri
    (fun e (i, j, _) ->
      Hashtbl.replace edge_index (i, j) (2 * e);
      Hashtbl.replace edge_index (j, i) ((2 * e) + 1))
    edges;
  let pi_block = size in
  let delta u = size + (2 * n_edges * size) + u in
  let pi ~u ~from ~into =
    match Hashtbl.find_opt edge_index (from, into) with
    | Some d -> pi_block + (u * 2 * n_edges) + d
    | None -> invalid_arg "Ip_model: pi over a non-edge"
  in
  let n_vars = size + (2 * n_edges * size) + size + tau_count in
  let kinds = Array.make n_vars Ilp.Binary in
  for u = 0 to size - 1 do
    kinds.(delta u) <- Ilp.Continuous
  done;
  {
    n_vars;
    kinds;
    objective = List.init size (fun u -> (delta u, 1.));
    extra = path_constraints fg ~s ~delta ~pi;
  }

let tau_offset layout tau_count = layout.n_vars - tau_count

let extract_group fg solution =
  let group = ref [] in
  for u = Engine.Feasible.size fg - 1 downto 0 do
    if solution.(u) > 0.5 then group := u :: !group
  done;
  !group

let run_ilp ?node_limit layout constraints =
  let model =
    {
      Ilp.kinds = layout.kinds;
      sense = Lp.Minimize;
      objective = layout.objective;
      constraints = constraints @ layout.extra;
    }
  in
  Ilp.solve ?node_limit model

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let solve_sgq ?(form = Group_form) ?node_limit (instance : Query.instance)
    (query : Query.sgq) =
  Query.check_sgq query;
  let fg =
    Engine.Feasible.extract instance.graph ~initiator:instance.initiator ~s:query.s
  in
  let layout =
    match form with
    | Group_form -> group_layout fg ~tau_count:0
    | Full_form -> full_layout fg ~s:query.s ~tau_count:0
  in
  let constraints = social_constraints fg ~p:query.p ~k:query.k in
  match run_ilp ?node_limit layout constraints with
  | Ilp.Unbounded -> assert false (* binary model with bounded objective *)
  | Ilp.Infeasible st -> { result = None; ilp_stats = st }
  | Ilp.Optimal { solution; stats; _ } ->
      let group = extract_group fg solution in
      {
        result =
          Some
            {
              Query.attendees = Engine.Feasible.originals fg group;
              total_distance = Engine.Feasible.total_distance fg group;
            };
        ilp_stats = stats;
      }

let solve_stgq ?(form = Group_form) ?node_limit (ti : Query.temporal_instance)
    (query : Query.stgq) =
  Query.check_stgq query;
  Query.check_temporal_instance ti;
  let fg =
    Engine.Feasible.extract ti.social.graph ~initiator:ti.social.initiator ~s:query.s
  in
  let avail = Engine.Feasible.slab fg ti.schedules in
  let horizon = Timetable.Availability.horizon avail.(fg.Engine.Feasible.q) in
  (* Only starts where the initiator is available can carry τ_t = 1
     (φ_q = 1 plus constraint (10) forbids the rest anyway). *)
  let starts =
    List.init (max 0 (horizon - query.m + 1)) Fun.id
    |> List.filter (fun t ->
           Timetable.Availability.window_free avail.(fg.Engine.Feasible.q) ~start:t
             ~len:query.m)
  in
  if starts = [] then
    { result = None; ilp_stats = { Ilp.nodes_explored = 0; lp_solves = 0 } }
  else begin
    let tau_count = List.length starts in
    let layout, literal =
      match form with
      | Group_form -> (group_layout fg ~tau_count, false)
      | Full_form -> (full_layout fg ~s:query.s ~tau_count, true)
    in
    let offset = tau_offset layout tau_count in
    let start_arr = Array.of_list starts in
    let index_of_start = Hashtbl.create tau_count in
    Array.iteri (fun i t -> Hashtbl.replace index_of_start t i) start_arr;
    let tau t =
      match Hashtbl.find_opt index_of_start t with
      | Some i -> offset + i
      | None -> invalid_arg (Printf.sprintf "Ip_model: unknown window start %d" t)
    in
    let constraints =
      social_constraints fg ~p:query.p ~k:query.k
      @ temporal_constraints fg ~m:query.m ~avail ~starts ~tau ~literal
    in
    match run_ilp ?node_limit layout constraints with
    | Ilp.Unbounded -> assert false
    | Ilp.Infeasible st -> { result = None; ilp_stats = st }
    | Ilp.Optimal { solution; stats; _ } ->
        let group = extract_group fg solution in
        let start =
          let found = ref (-1) in
          Array.iteri
            (fun i t -> if !found < 0 && solution.(offset + i) > 0.5 then found := t)
            start_arr;
          !found
        in
        {
          result =
            Some
              {
                Query.st_attendees = Engine.Feasible.originals fg group;
                st_total_distance = Engine.Feasible.total_distance fg group;
                start_slot = start;
              };
          ilp_stats = stats;
        }
  end
