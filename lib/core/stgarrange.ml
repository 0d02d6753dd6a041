type result = {
  k_used : int;
  solution : Query.stg_solution;
}

let run (ti : Query.temporal_instance) ~p ~s ~m ~target_distance =
  (* One context is shared across the whole k-relaxation ladder: only
     the acquaintance bound changes between attempts, never (q, s). *)
  let ctx, _ = Query.stg_context ti ~s in
  let rec attempt k =
    if k > p - 1 then None
    else
      match
        Stgselect.solve ~ctx ~initial_bound:(target_distance +. 1e-6) ti
          { Query.p; s; k; m }
      with
      | Some solution when solution.Query.st_total_distance <= target_distance +. 1e-9 -> (
          match Validate.check_stg ti { Query.p; s; k; m } solution with
          | [] -> Some { k_used = k; solution }
          | violations -> raise (Validate.Certificate_failure violations))
      | _ -> attempt (k + 1)
  in
  attempt 0

let versus_pcarrange ti ~p ~s ~m =
  match Pcarrange.run ti ~p ~s ~m with
  | None -> None
  | Some pc -> (
      match run ti ~p ~s ~m ~target_distance:pc.Pcarrange.total_distance with
      | None -> None
      | Some stg -> Some (stg, pc))
