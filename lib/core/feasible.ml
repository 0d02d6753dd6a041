include Engine.Feasible

let extract (instance : Query.instance) ~s =
  Query.check_instance instance;
  Engine.Feasible.extract instance.graph ~initiator:instance.initiator ~s

let context_of_instance (instance : Query.instance) ~s =
  Query.check_instance instance;
  Engine.Context.build instance.graph ~initiator:instance.initiator ~s

let context_of_temporal (ti : Query.temporal_instance) ~s =
  Query.check_temporal_instance ti;
  Engine.Context.build ti.social.Query.graph ~initiator:ti.social.Query.initiator ~s

let temporal ?ctx (ti : Query.temporal_instance) ~s =
  let ctx =
    match ctx with
    | Some c ->
        Engine.Context.ensure_for c ~initiator:ti.social.Query.initiator ~s;
        c
    | None -> context_of_temporal ti ~s
  in
  (ctx, slab ctx.Engine.Context.fg ti.schedules)
