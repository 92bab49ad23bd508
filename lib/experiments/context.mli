(** Shared execution context for the experiment drivers.

    Several of the paper's tables and figures are views over the same set
    of simulation runs (Figure 5, Figure 6, Figure 8, Figure 9 and Table 4
    all read the 8-core profiles), so the context memoizes measurements by
    configuration.  It also encodes the platform conventions the paper
    used: 4 MB pages on Niagara for everything, small pages on Xeon unless
    an experiment asks otherwise, and DDmalloc's §3.3 metadata staggering
    on Niagara, where hardware threads share the L1.

    The context is the execute stage of the plan → execute → render
    pipeline and is safe to share across domains: drivers build {!key}s
    (pure plans), {!prefetch} simulates them on a {!Mm_sched.Pool}, and
    render passes then read the memo table.  Each configuration is
    simulated {e at most once per process}, even when several domains
    request it concurrently — late requesters block on the in-flight run
    instead of recomputing.

    With a {!Mm_store.Store.t} attached, the memo table gains a
    persistent disk layer: {!force} resolves memory hit → disk hit →
    simulate, and write-behinds every fresh simulation, so the whole
    suite is incremental {e across processes}.  Store entries are keyed
    by {!store_key} (a pure function of the key's
    {!Mm_runtime.Engine.config}, seed included) plus
    [Mm_runtime.Version.sim_fingerprint], and decoded measurements are
    bit-exact ([%h] float round-trip), so warm output is byte-identical
    to cold output.  Derived blobs ({!force_blob}) go through the same
    memo path, in-flight rendezvous included. *)

type t

val create :
  ?scale:float -> ?seed:int -> ?store:Mm_store.Store.t -> ?refresh:bool ->
  unit -> t
(** [scale] applies to every per-transaction call count (default 0.25 —
    see EXPERIMENTS.md for the scaling policy); results are reported at
    full-transaction equivalents.  [store] attaches the persistent
    measurement store (default: none — process-local memoization only,
    exactly the historical behaviour).  [refresh] makes {!force} skip
    store {e reads} while still writing results back: recompute
    everything, repopulating the store. *)

val scale : t -> float

val seed : t -> int

val store : t -> Mm_store.Store.t option

val php_kinds : Mm_runtime.Alloc_factory.kind list
(** The paper's three PHP-runtime allocators: default, region, DDmalloc. *)

val ruby_kinds : Mm_runtime.Alloc_factory.kind list
(** §4.4's four allocators: glibc, Hoard, TCmalloc, DDmalloc. *)

val dd_kind_for : Mm_cachesim.Machine.t -> Mm_runtime.Alloc_factory.kind
(** DDmalloc configured as the paper ran it on this machine. *)

(** {2 Keys — planned configurations} *)

type key
(** One fully-specified simulation configuration: the memoization
    identity plus how to run it.  Keys are cheap to build and pure —
    nothing is simulated until {!force} or {!prefetch}. *)

val store_key : key -> string
(** The canonical configuration string the persistent store digests,
    rendered once when the key is built and a pure function of
    {!config}: machine, cores, allocator configuration (DDmalloc's
    fields, with the size-class scheme as its name and class count) plus
    ["+lp"] for a large-page heap, spec, restart period, large pages,
    Ruby (no freeAll), measured transactions (0 for PHP keys, whose
    transaction counts follow from machine and cores), bit-exact scale
    and seed.  Two planned keys have equal strings exactly when their
    configs are structurally equal. *)

val key_name : key -> string
(** The same string as {!store_key}, for logs and tests. *)

val config : key -> Mm_runtime.Engine.config
(** The configuration the key's measurement reports as its [cfg]. *)

val php_key :
  t ->
  machine:Mm_cachesim.Machine.t ->
  cores:int ->
  kind:Mm_runtime.Alloc_factory.kind ->
  spec:Mm_workload.Spec.t ->
  ?large_pages_override:bool ->
  ?scale_override:float ->
  unit ->
  key
(** Plan a PHP-runtime run (freeAll at each transaction end).
    [scale_override] lets sweeps that need a reduced transaction scale
    (e.g. the quadratic address-ordered free-list ablation) stay inside
    the memo table; the scale is part of the key. *)

val ruby_key :
  t ->
  kind:Mm_runtime.Alloc_factory.kind ->
  restart_period:int option ->
  measure_txns:int ->
  key
(** Plan a Ruby-runtime run on 8 Xeon cores: no freeAll; optional
    periodic process restarts (period counted per worker).  Four workers
    are simulated so restart effects land inside the measured window.
    A period no worker reaches
    ({!Mm_runtime.Engine.effective_restart_period}) keeps its own store
    key and bytes, but its measurement is the no-restart key's with [cfg]
    relabelled: forcing it forces the no-restart key, not a second
    simulation. *)

val force : t -> key -> Mm_runtime.Engine.measurement
(** Memoized execution of one key.  Thread-safe; concurrent forces of the
    same key run the simulation exactly once and share the result. *)

val prefetch : t -> jobs:int -> key list -> unit
(** Execute every not-yet-memoized key on a pool of [jobs] domains.
    Duplicate keys in the list are collapsed first.  Results land in the
    memo table; measurements are identical to sequential {!force} because
    every simulation is hermetic (own simulated memory, caches and RNG —
    the isolation invariant documented in [lib/runtime/engine.mli]).
    Exceptions from simulations are re-raised after the pool drains. *)

val simulated : t -> int
(** Number of simulations actually executed so far (misses of both the
    memo table and the store), for dedup accounting, the CLI's execution
    summary, and tests.  A key relabelled from another key's measurement
    (see {!ruby_key}) counts as neither a simulation nor a disk hit. *)

val disk_hits : t -> int
(** Number of measurements served from the persistent store instead of
    simulated. *)

val store_errors : t -> int
(** Reads and writes the attached store abandoned after exhausting its
    bounded retries (see [Mm_store.Store.health]); 0 without a store.
    An abandoned read is a miss and an abandoned write is dropped, so
    store errors change counters, never output bytes. *)

(** {2 Derived-artifact blobs}

    Experiments that post-process measurements into a second artifact —
    the serving simulator's latency sweeps — memoize that artifact here,
    through {!force}'s memo path (memory → disk → compute, in-flight
    rendezvous, write-behind), over opaque payload strings keyed by the
    caller and stored with a payload-kind tag so store diagnostics can
    tell sweeps from measurements. *)

val force_blob :
  t ->
  kind:string ->
  key:string ->
  valid:(string -> bool) ->
  compute:(unit -> string) ->
  string
(** Memoized derived payload.  [key] must be a canonical string fully
    determining the payload (include the underlying {!store_key}s and
    every derivation parameter); [kind] tags the store entry (e.g.
    ["serve"]); a disk payload failing [valid] is treated as a miss and
    recomputed.  Concurrent requests for one [key] compute it once.
    Respects [refresh] (skip reads, still write). *)

val blob_computed : t -> int
(** Blobs computed fresh (memo and store misses). *)

val blob_disk_hits : t -> int
(** Blobs served from the persistent store. *)

(** {2 Memoized run + read (force of an equivalent key)} *)

val run_php :
  t ->
  machine:Mm_cachesim.Machine.t ->
  cores:int ->
  kind:Mm_runtime.Alloc_factory.kind ->
  spec:Mm_workload.Spec.t ->
  ?large_pages_override:bool ->
  unit ->
  Mm_runtime.Engine.measurement
(** [force] of the corresponding {!php_key}. *)

val run_ruby :
  t ->
  kind:Mm_runtime.Alloc_factory.kind ->
  restart_period:int option ->
  measure_txns:int ->
  Mm_runtime.Engine.measurement
(** [force] of the corresponding {!ruby_key}. *)

val mgmt_fraction : Mm_runtime.Engine.measurement -> float
(** Share of per-transaction CPU time spent in memory management. *)

val delta_pct : float -> float -> float
(** [delta_pct v baseline] = (v - baseline) / baseline * 100. *)
