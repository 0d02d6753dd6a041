(** Batched multi-query planning: group, share, pipeline.

    A server for millions of users sees many in-flight queries against
    the same region of the social graph.  Per query, the expensive
    shared prefix is the {!Context} build — radius extraction
    (Definition 1), the availability slab, the Lemma-4 pivot index.
    [Batch.run] amortises it: requests are grouped by their
    [(initiator, s)] key — the equivalence under which feasible regions
    coincide exactly, so one context serves the whole group — and each
    group fetches {e one} context through {!Cache} (single-flight, so
    concurrent batches coalesce too).  Pruning artifacts are shared
    through that context: the distance slabs live in [ctx.fg], and the
    [warm] hook runs on the build domain to pre-fill the memoized
    Lemma-4 pivot lists each request will ask for.

    With a {!Pool}, groups are {e pipelined}: the context build for
    group [k+1] is submitted as a pool job before the caller starts
    solving group [k], so builds hide behind solves (the hidden
    nanoseconds surface as the [pipeline.overlap_ns] span attribute and
    the [engine.batch.pipeline_overlap_pct] gauge).  Solves themselves
    run on the calling domain, in input order, with the sequential
    kernel — which is what keeps batched answers bit-identical to the
    one-query-at-a-time path. *)

(** [run ?pool ~cache ~key ?warm ~solve reqs] answers every request and
    returns the results in input order.

    - [key req] is the request's [(initiator, s)] — requests with equal
      keys form one group and share one context (grouping is stable:
      groups are solved in first-appearance order, members in input
      order);
    - [warm ctx req] (default: nothing) runs on the domain that fetched
      the group's context, before any solve — use it to pre-compute
      memoized artifacts (e.g. [Context.pivots ~m]) off the solve path;
    - [solve lookup req] runs on the calling domain; [lookup] is the
      group's one {!Cache.lookup} (its context, and whether it was a
      cache hit).

    Without a pool the same grouping and sharing apply; builds simply
    happen inline.  The caller must not be a worker of [pool] (awaiting
    a build from inside the pool can deadlock it). *)
val run :
  ?pool:Pool.t ->
  cache:Cache.t ->
  key:('req -> int * int) ->
  ?warm:(Context.t -> 'req -> unit) ->
  solve:(Cache.lookup -> 'req -> 'res) ->
  'req list ->
  'res list
