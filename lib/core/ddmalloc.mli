(** DDmalloc — the defrag-dodging allocator (§3 of the paper).

    Segregated storage over fixed-size, alignment-restricted segments:

    - The heap is an arena of [segment_size]-byte segments, each segment
      aligned to a multiple of its size, so the owning segment of any object
      is a shift of its address.
    - Each segment serves exactly one size class; the segment is an array of
      equal-sized objects with {e no per-object header}.
    - Metadata is one pointer-array of free-list heads (one per class), one
      byte per segment recording its class, and the carving state.
    - [malloc] pops a free list, or takes the next object of the segment
      being carved (writing the remaining-object count at the top of the
      unallocated run, exactly as in Figure 3), or carves a fresh segment.
    - [free] pushes the object back in LIFO order.  Nothing is coalesced,
      split, sorted, or fitted — defragmentation is {e dodged}, not delayed.
    - [free_all] clears only the metadata; the heap returns to its initial
      state at a cost independent of how much was allocated.
    - Objects larger than half a segment take whole segment runs, tracked
      only by segment-class bytes.

    Optimizations from §3.3: per-process staggering of the metadata's cache
    placement ([pid_metadata_offset]) and large-page mappings for the heap
    ([large_pages]); each heap is private to one process, so there are no
    locks. *)

type reuse_policy =
  | Lifo  (** paper's choice: freed objects reused most-recently-freed-first *)
  | Fifo  (** ablation: queue order — colder reuse *)
  | Addr_ordered
      (** ablation: address-ordered insertion, a defragmentation-flavoured
          policy whose O(list) insert shows why DDmalloc avoids it *)

val reuse_name : reuse_policy -> string
(** ["lifo"], ["fifo"] or ["addr"]: the policy's name in store keys and
    stored measurements. *)

val reuse_of_name : string -> reuse_policy option
(** Inverse of {!reuse_name}. *)

type config = {
  segment_size : int;  (** bytes per segment; paper uses 32 KB *)
  arena_size : int;  (** address space per heap; paper's region chunk scale *)
  scheme : Size_class.scheme;
  pid_metadata_offset : bool;  (** §3.3 optimization 1 *)
  large_pages : bool;  (** §3.3 optimization 2 *)
  reuse : reuse_policy;
}

val config :
  ?segment_size:int ->
  ?arena_size:int ->
  ?scheme:Size_class.scheme ->
  ?pid_metadata_offset:bool ->
  ?large_pages:bool ->
  ?reuse:reuse_policy ->
  unit ->
  config
(** Defaults: 32 KB segments, 256 MB arena, the paper's size classes, both
    §3.3 optimizations off, LIFO reuse. *)

include Allocator.S

val create : ?config:config -> t Allocator.constructor
(** A fresh heap for one process; [config] defaults to [config ()]. *)

val segments_in_use : t -> int

val metadata_bytes : t -> int

val arena_base : t -> int
(** Base address of the segment arena (tests use it to reason about
    placement). *)
