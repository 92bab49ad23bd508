(** Beyond the paper: tail latency and saturation, per allocator.

    The paper argues in throughput, but what a web user feels is tail
    latency under load — and the region allocator's bandwidth penalty
    shows up as queueing delay well before its throughput ceiling.  This
    experiment layers the {!Mm_serve} discrete-event serving simulator on
    the paper's 8-core measurements: per machine × workload × allocator
    it sweeps offered load up to (and past) the default allocator's
    capacity and reports p99 latency at moderate/high load plus the
    highest offered rate each allocator sustained.

    Sweeps are derived artifacts: each is memoized through
    {!Context.force_blob} (payload kind ["serve"]), keyed by the
    underlying measurement's store key plus every simulation parameter,
    so warm runs simulate nothing and render byte-identically. *)

val plan : Context.t -> Context.key list
(** The 8-core PHP measurements on both machines (shared with
    fig5/fig6/fig8/fig9). *)

val render : Context.t -> unit

val sweep_points :
  ?policy:Mm_serve.Policy.t ->
  Context.t ->
  machine:Mm_cachesim.Machine.t ->
  spec:Mm_workload.Spec.t ->
  kind:Mm_runtime.Alloc_factory.kind ->
  cores:int ->
  arrival:Mm_serve.Arrival.kind ->
  dispatch:Mm_serve.Dispatch.policy ->
  requests:int ->
  warmup_frac:float ->
  rates:float list ->
  Mm_serve.Sweep.point list
(** One memoized sweep: force the (machine, cores, kind, spec)
    measurement, derive its contention table, run (or read from the
    store) the offered-load sweep.  [policy] (default
    {!Mm_serve.Policy.none}) is part of the blob key, so policy sweeps
    and plain sweeps never alias.  This is the layer `mmstudy serve` and
    the resilience experiment drive with their own parameters; the
    experiment's tables are partial applications of it. *)

val capacity_of :
  Context.t ->
  machine:Mm_cachesim.Machine.t ->
  spec:Mm_workload.Spec.t ->
  kind:Mm_runtime.Alloc_factory.kind ->
  cores:int ->
  float
(** All-cores-busy service rate of one configuration, requests/second
    (see {!Mm_serve.Contention.capacity}). *)
