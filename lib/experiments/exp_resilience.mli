(** Beyond the paper: overload resilience and the retry-storm collapse
    point, per allocator.

    The paper measures how much throughput each allocator loses at 8
    cores; this experiment measures what that loss {e does} to a service
    with real clients — deadlines, retries with capped exponential
    backoff, load shedding.  Past an allocator's capacity, timeouts breed
    retries, retries amplify offered load, and goodput collapses while
    the servers stay 100% busy on work nobody is waiting for: metastable
    failure.  Because the region allocator's capacity is lower, it
    crosses that knee at a lower offered load than default or DDmalloc —
    the Figure-1 story extended from throughput to stability.

    All allocators face one shared policy per machine (deadline derived
    from the default allocator's service time) and one shared load axis
    (fractions of default's capacity), so collapse onsets are directly
    comparable.  Sweeps are memoized as ["serve"] blobs through
    {!Exp_latency.sweep_points} with the policy in the blob key. *)

val plan : Context.t -> Context.key list
(** The 8-core MediaWiki read-only measurements on both machines (a
    subset of {!Exp_latency.plan}'s keys). *)

val render : Context.t -> unit

val sweep :
  Context.t ->
  machine:Mm_cachesim.Machine.t ->
  kind:Mm_runtime.Alloc_factory.kind ->
  Mm_serve.Sweep.point list
(** One allocator's policy sweep over the shared fraction grid (exposed
    for the end-to-end ordering test). *)

val fractions : float list
(** The shared load grid, as fractions of default's capacity. *)

val default_capacity : Context.t -> machine:Mm_cachesim.Machine.t -> float

val policy_for : Context.t -> machine:Mm_cachesim.Machine.t -> Mm_serve.Policy.t
