(** One simulated runtime process (a PHP or Ruby worker).

    Executes transactions of its workload spec against its heap: per
    allocation event it performs interpreter work (instructions, hot-code
    fetches, working-set touches), allocates an object and writes it, and
    retires earlier objects by per-object free in LIFO-biased order at the
    Table 3 free/malloc ratio.  At the end of a transaction it calls
    [freeAll] when the allocator supports bulk free (the PHP runtime), and
    otherwise frees every remaining object individually (the Ruby runtime
    with malloc/free allocators).

    Execution is sliceable: the engine interleaves [step ~ops] calls from
    the processes sharing a core, so cache pollution between co-scheduled
    processes (and between Niagara's hardware threads) is emergent. *)

type t

val create :
  kind:Alloc_factory.kind ->
  os:Mm_memsim.Os_layer.t ->
  mem:Mm_memsim.Memory.t ->
  spec:Mm_workload.Spec.t ->
  pid:int ->
  seed:int ->
  use_bulk_free:bool ->
  t
(** [use_bulk_free:false] models the Ruby runtime of §4.4: freeAll is never
    called even when the allocator supports it; transaction-end cleanup
    frees the survivors one by one (the collector's sweep). *)

val step : t -> ops:int -> bool
(** Run up to [ops] allocation events; [true] if a transaction completed
    during this slice. *)

val txns_done : t -> int

val handle : t -> Core.Allocator.handle

val live_objects : t -> int

val consumption_peaks : t -> Mm_stats.Summary.t
(** Per-transaction peak consumption (Figure 9's measure). *)

val restart : t -> unit
(** Ruby-runtime process restart: discards the heap (a fresh allocator
    instance, after {!Mm_memsim.Os_layer.retire} drops the old heap's host
    backing), clears the object pool, and charges the kernel and
    application the cost of tearing down and rebooting the worker. *)

val restarts : t -> int

val reset_measurement : t -> unit
(** Forget the consumption-peak history (called at the warmup/measure
    boundary). *)
