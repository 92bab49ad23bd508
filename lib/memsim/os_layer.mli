(** A minimal operating-system memory layer.

    Allocators obtain large chunks of address space here, as real allocators
    do with [mmap]/[sbrk].  The layer hands out disjoint, aligned ranges of
    the simulated address space (never reusing an address), records which
    ranges are mapped with large pages and which owner mapped each range,
    tracks per-owner claimed bytes (Figure 9's "memory allocated from the
    underlying allocator"), and charges the instruction cost of the system
    call to the [Kernel] context — the paper's Oprofile breakdowns exclude
    kernel memory management from the "memory operations" bucket, and so
    do we. *)

type t

type owner
(** An interned owner, labelled ["name[pid]"]: one per allocator instance
    family and process (a restarted worker's fresh allocator gets the same
    owner back). *)

val create : Memory.t -> t

val owner : t -> name:string -> pid:int -> owner
(** The owner labelled ["name[pid]"], created on first use. *)

val mmap :
  t -> owner:owner -> bytes:int -> align:int -> large_pages:bool -> int
(** Claim [bytes] of address space aligned to [align] (a power of two).
    Returns the base address.  The space reads as zero until written. *)

val munmap : t -> owner:owner -> addr:int -> bytes:int -> unit
(** Release a previously mapped range (bookkeeping only; the range must not
    be touched again). *)

val retire : t -> owner -> unit
(** The owner's heap is dead (a worker restart): forget the ranges it has
    mapped and not unmapped, and drop the host backing of every whole
    64 KB block inside them ({!Memory.discard}).  The ranges must not be
    touched again.  Claimed bytes, partial blocks and every simulated
    event are unchanged. *)

val page_size_of : t -> addr:int -> int
(** Page size governing [addr]: 2 MB for ranges mapped with large pages,
    4 KB otherwise (including unmapped scratch such as simulated stacks). *)

val claimed : owner -> int
(** Current bytes mapped by the owner (mmap minus munmap). *)

val claimed_bytes : t -> owner:string -> int
(** {!claimed} of the owner with this label; 0 if there is none. *)

val total_claimed : t -> int

val syscall_instructions : int
(** Instruction cost charged to [Kernel] per mmap/munmap. *)
