(** A general-purpose malloc/free engine with boundary tags.

    This is the machinery the paper calls "defragmentation activities": every
    chunk carries a size header; free chunks carry a footer and doubly-linked
    bin pointers; [free] coalesces with both neighbours; [malloc] searches
    segregated bins, takes the best candidate and splits off the remainder.
    Doug Lea's allocator, glibc's, and the default allocator of the PHP
    runtime (Zend MM) all follow this design, and the engine is shared by
    our {!Php_malloc} (Zend-style, with bulk free), {!Dl_malloc} (glibc
    stand-in, with an unsorted bin and no bulk free) and {!Reap_malloc}
    wrappers.

    All bin heads, headers, footers, and link words live in simulated
    memory, so the defragmentation work is visible to the cache simulator
    exactly where a real allocator would pay for it. *)

type params = {
  block_size : int;  (** growth granularity (Zend: 256 KB; glibc: 1 MB) *)
  use_unsorted : bool;
      (** glibc-style deferred binning: frees land in an unsorted bin that
          malloc sifts through before searching sized bins *)
  owner : string;  (** OS-layer accounting name *)
}

type t

val create :
  params -> os:Mm_memsim.Os_layer.t -> mem:Mm_memsim.Memory.t -> pid:int ->
  code_base:int -> t

val malloc : t -> size:int -> int

val free : t -> addr:int -> unit

val realloc : t -> addr:int -> size:int -> int

val usable_size : t -> addr:int -> int

val free_all : t -> unit
(** Reinitialize every block to a single free chunk and empty the bins —
    the Zend-MM per-request cleanup.  Blocks remain claimed from the OS. *)

val consumption : t -> int
(** Bytes claimed from the OS (Figure 9's measure for malloc/free
    allocators). *)

val live_objects : t -> int

val blocks : t -> int

val header_bytes : int
(** Per-object header overhead (8 B) — the per-object metadata the paper
    blames for part of the default allocator's extra cache pressure. *)
