type t = {
  initiator : int;
  s : int;
  fg : Feasible.t;
}

let m_builds = Obs.counter "engine.context.builds"

let build graph ~initiator ~s =
  Faultinject.fire Faultinject.Context_build;
  Obs.Counter.incr m_builds;
  Obs.Trace.with_span "context.build"
    ~attrs:[ ("initiator", string_of_int initiator); ("s", string_of_int s) ]
  @@ fun () -> { initiator; s; fg = Feasible.extract graph ~initiator ~s }

let ensure_for t ~initiator ~s =
  if t.initiator <> initiator then
    invalid_arg "Engine.Context: cached context belongs to another initiator";
  if t.s <> s then
    invalid_arg "Engine.Context: cached context was built for another s"
