(** The memory-allocator interface of the study.

    Every allocator in the paper — the default Zend-style allocator of the
    PHP runtime, the region-based allocator, GNU obstack, glibc/dlmalloc,
    Hoard, TCmalloc, Reaps, and our DDmalloc — is implemented against this
    one signature, so the runtime, the experiments, and the property-based
    test suite treat them interchangeably.

    Construction is not part of the signature: each allocator module has
    a [create] of type {!constructor}.  Only DDmalloc's also takes a
    [?config], because its ablations sweep every field; the baselines'
    sizes are constants.  {!Mm_runtime.Alloc_factory} is the one table
    that maps an allocator kind to its module and constructor.

    Allocators operate on the simulated memory: their free lists, boundary
    tags, and segment tables live at simulated addresses, and every metadata
    load/store they perform flows to the cache simulator tagged with the
    [Mgmt] context.  Instruction costs are charged through
    {!Mm_memsim.Memory.instr} with per-path constants documented in each
    implementation. *)

(** Table 1 of the paper: what each allocation approach supports. *)
type capabilities = {
  bulk_free : bool;  (** supports [freeAll] *)
  per_object_free : bool;  (** supports [free] of a single object *)
  defragmentation : bool;  (** performs coalescing/splitting/fitting work *)
}

type stats = {
  mutable mallocs : int;
  mutable frees : int;
  mutable reallocs : int;
  mutable free_alls : int;
  mutable bytes_requested : int;  (** cumulative over all mallocs *)
  mutable peak_consumption : int;
      (** high-water of {!S.consumption} since the last [reset_peak];
          Figure 9's per-allocator "memory consumed" measure *)
}

type 'heap constructor =
  os:Mm_memsim.Os_layer.t ->
  mem:Mm_memsim.Memory.t ->
  pid:int ->
  code_base:int ->
  unit ->
  'heap
(** A fresh heap for one runtime process.  [pid] feeds optimizations that
    stagger per-process layout; [code_base] is where the allocator's code
    lives in the synthetic code space. *)

module type S = sig
  type t

  val name : string

  val capabilities : capabilities

  val code_size : int
  (** Bytes of (simulated) machine code; drives the I-cache model.  Small
      allocators (region, DDmalloc) have small footprints — the paper
      attributes part of their L1I-miss reduction to exactly this. *)

  val malloc : t -> size:int -> int
  (** Allocate [size] bytes ([size > 0]); returns the object address,
      8-byte aligned. *)

  val free : t -> addr:int -> unit
  (** Release one object.  Undefined on addresses not returned by this
      heap's [malloc]/[realloc]; raises [Invalid_argument] if the allocator
      lacks per-object free. *)

  val realloc : t -> addr:int -> size:int -> int
  (** Resize; preserves the first [min old-size size] bytes. *)

  val usable_size : t -> addr:int -> int
  (** Bytes actually usable at [addr] (≥ requested size). *)

  val free_all : t -> unit
  (** Bulk-release every object (end of transaction).  Raises
      [Invalid_argument] if unsupported (glibc/Hoard/TCmalloc). *)

  val consumption : t -> int
  (** Current memory consumption under the paper's Figure 9 definition for
      this allocator family (claimed-from-OS for malloc/free allocators,
      segments+metadata for DDmalloc, bytes bumped this transaction for the
      region allocator).  O(1). *)

  val live_objects : t -> int
  (** Objects allocated and not yet freed (by [free] or [free_all]). *)
end

(** A heap packaged with its statistics, usable without knowing which
    allocator module produced it.  Calls switch the memory context to [Mgmt]
    for the duration of the operation and keep {!stats} updated. *)
type handle = {
  h_name : string;
  h_caps : capabilities;
  h_stats : stats;
  h_malloc : size:int -> int;
  h_free : addr:int -> unit;
  h_realloc : addr:int -> size:int -> int;
  h_usable_size : addr:int -> int;
  h_free_all : unit -> unit;
  h_consumption : unit -> int;
  h_live_objects : unit -> int;
  h_reset_peak : unit -> unit;
}

val pack :
  (module S with type t = 'a) -> mem:Mm_memsim.Memory.t -> 'a -> handle
