(** domain-safety: non-atomic mutable state crossing a domain boundary.

    For every closure handed to [Pool.submit]/[Domain.spawn]/
    [Thread.create], slice out what the closure region captures, then:

    - flag captured values whose type is a mutable record with no
      [Mutex.t] field and no [@lint.domain_safe] annotation (no way to
      use such a value safely from two domains), and
    - walk every function reachable from the region and flag
      reads/writes of captured refs/containers/mutable fields and of
      module-level mutable globals when no mutex is provably held on
      the path from the spawn.

    Findings carry witness chains: spawn site, call path, operation.

    [allow_units] — modnames whose module-level state is exempt (the
    unit carries a floating [\[@@@lint.domain_safe\]] or was allowed on
    the command line). *)

val check : Callgraph.t -> allow_units:string list -> Lint.Diag.finding list
