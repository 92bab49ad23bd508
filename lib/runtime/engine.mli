(** The measurement engine: one simulated core, scaled to the machine.

    All cores in the paper's setup run statistically identical worker
    processes, so we simulate one core faithfully — its processes
    interleaved on its caches, with context-switch costs and (on Niagara)
    fine-grained multithread interleaving — and let {!Mm_cachesim.Perf_model}
    scale the measured per-transaction event profile to N cores and solve
    the shared-bus fixed point.

    A run produces both the hardware-event profile (Figures 1, 6, 8, 11)
    and model outputs: throughput (Figures 5, 7, 10, Table 4), CPU-time
    breakdown, bus utilization, and memory consumption (Figure 9).

    {b Isolation invariant.}  [run] and [run_group] are hermetic: every
    call builds its own {!Mm_memsim.Memory}, OS layer,
    {!Mm_cachesim.Cache_system} and per-process {!Mm_stats.Rng} (seeded
    from [config.seed]), and no module in the simulation stack keeps
    top-level mutable state — the only
    shared top-level values are immutable configuration records (machine
    descriptions, allocator capability/config defaults, paper data).
    Consequently two [run]s never share mutable state: concurrent calls
    from different domains are safe, and a configuration's measurement is
    a pure function of its [config] regardless of what else runs, in
    which order, or on how many domains.  The experiment scheduler
    ([Mm_sched.Pool] driven by [Mm_experiments.Context.prefetch]) relies
    on this for byte-identical output at any [--jobs] count; keep the
    invariant when extending the runtime (thread any new randomness or
    scratch state through [config]/local state, never module state).

    {b Hot-path allocation contract.}  The simulated-access path under
    [run] — {!Mm_memsim.Memory.touch}/[code_touch]/[instr] through the
    attached {!Mm_cachesim.Cache_system} observers — performs {e zero}
    OCaml minor-heap allocation (see the unboxed-observer contract in
    [memory.mli] and the [Gc.minor_words] test in [test_memsim.ml]).
    Observers receive the access as immediate arguments
    ([ctx kind addr bytes]), never as an allocated record, and must not
    allocate or retain those arguments; event counts are bit-identical to
    the historical boxed-[Access.t] path.  When extending the engine or
    the observers, keep closure creation, boxing ([Int64], [option],
    tuples) and [Printf] out of the per-access path — allocation there
    dominates end-to-end simulation time. *)

type config = {
  machine : Mm_cachesim.Machine.t;
  active_cores : int;
  kind : Alloc_factory.kind;
  spec : Mm_workload.Spec.t;
  scale : float;  (** fraction of Table 3's per-transaction call counts *)
  warmup_txns : int;
  measure_txns : int;
  large_page_heap : bool;
  seed : int;
  restart_period : int option;  (** Ruby runtime: restart every k txns *)
  use_bulk_free : bool;
      (** [false] = the Ruby runtime: never call freeAll (§4.4) *)
  processes : int option;  (** override simulated processes on the core *)
}

val config :
  machine:Mm_cachesim.Machine.t ->
  active_cores:int ->
  kind:Alloc_factory.kind ->
  spec:Mm_workload.Spec.t ->
  ?scale:float ->
  ?warmup_txns:int ->
  ?measure_txns:int ->
  ?large_page_heap:bool ->
  ?seed:int ->
  ?restart_period:int option ->
  ?use_bulk_free:bool ->
  ?processes:int ->
  unit ->
  config
(** Defaults: scale 1.0, warmup/measure sized from the process count, small
    pages, seed 42, no restarts, processes = the machine's worker count
    divided by active cores (capped at 8 simulated). *)

val effective_processes : config -> int
(** The number of worker processes {!run} simulates on the core:
    [processes], or the machine's workers per active core, at most 8. *)

val max_txns_per_process : config -> int
(** The most transactions any one worker completes in a {!run}:
    ⌈(warmup + measure) / processes⌉.  Workers complete transactions in
    strict rotation (every transaction of a spec is the same number of
    allocation events), so no worker gets further ahead than that. *)

val effective_restart_period : config -> int option
(** [restart_period], or [None] when the period exceeds
    {!max_txns_per_process}: such a restart never fires. *)

val effective : config -> config
(** The configuration with every knob that cannot act normalised away:
    today [restart_period] set to {!effective_restart_period}.  {!run}
    of a configuration equals {!run} of its effective configuration in
    every field but [cfg], so configurations with equal effective
    configurations are one simulation.  Returns [cfg] itself (physically)
    when every knob can act. *)

type measurement = {
  cfg : config;
  events : Mm_cachesim.Events.t;  (** totals over the measured window *)
  txns : int;  (** measured transactions *)
  perf : Mm_cachesim.Perf_model.result;  (** at the simulated scale *)
  throughput : float;
      (** full-scale transactions/second for the whole machine *)
  consumption : Mm_stats.Summary.t;
      (** per-transaction peak memory consumption (Figure 9) *)
  mallocs_per_txn : float;
  frees_per_txn : float;
  reallocs_per_txn : float;
  mean_alloc_size : float;
}

val run : config -> measurement
(** [run cfg] is the one-member case of {!run_group}. *)

val shares_stream : config -> config -> bool
(** Two configurations share a stream when their {!effective}
    configurations are equal in every field but [active_cores] and they
    simulate the same number of processes ({!effective_processes}).  The
    core count then changes only the size of a core's L2 share
    ({!Mm_cachesim.Machine.l2_sets_per_core}): the processes, the
    generator, the allocators and every reference they make are the
    same.  [large_page_heap] is one of the fields that must be equal,
    because the D-TLB sees the stream before any L2 does; a restart
    period that never fires is not. *)

val run_group : config list -> measurement list
(** The measurements of configurations that pairwise {!shares_stream},
    in list order, from one pass of the processes, the generator and the
    allocators through one {!Mm_cachesim.Cache_system.create_group}: a
    shared L1I, L1D, D-TLB and prefetcher, one L2 per distinct share.
    Workers restart at the first member's [restart_period]; the
    members' effective periods are equal, so a period that never fires
    is simulated as itself and matches the no-restart run only because
    {!max_txns_per_process} bounds what a worker completes.  Each
    measurement reports its own [cfg] and is byte-identical
    ({!measurement_to_string}) to {!run} of its configuration — an L2
    never feeds back into the front, so every counter is exact.  Raises
    [Invalid_argument] on an empty list or on configurations that do not
    share a stream. *)

val event_per_txn : measurement -> Mm_cachesim.Events.counter -> float
(** Whole-machine-context total of one counter, per transaction. *)

(** {2 Measurement serialization}

    The payload format of the persistent measurement store: a versioned,
    human-diffable "key value" line format.  Floats are written with [%h]
    (hex mantissa) so every finite value round-trips bit-exactly — a warm
    store hit renders byte-identically to the simulation that produced
    it.  Machine and workload are stored by name; the allocator
    configuration is stored in full (the ablations sweep DDmalloc's
    parameters, including the size-class scheme). *)

val measurement_schema_version : int
(** Bumped on any change to the serialization format; folded into
    [Version.sim_fingerprint], so a format change invalidates the whole
    store rather than misparsing old entries. *)

val measurement_to_string : measurement -> string

val measurement_of_string : string -> (measurement, string) result
(** Inverse of {!measurement_to_string}:
    [measurement_of_string (measurement_to_string m) = Ok m] (structural
    equality, including every {!Mm_cachesim.Events} counter).  Never
    raises — any malformed, truncated, or wrong-version payload is an
    [Error], which store readers treat as a miss. *)
