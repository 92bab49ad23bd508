(** A general-purpose malloc/free engine with boundary tags.

    This is the machinery the paper calls "defragmentation activities": every
    chunk carries a size header; free chunks carry a footer and doubly-linked
    bin pointers; [free] coalesces with both neighbours; [malloc] searches
    segregated bins, takes the best candidate and splits off the remainder.
    Doug Lea's allocator, glibc's, and the default allocator of the PHP
    runtime (Zend MM) all follow this design.  The engine's one parameter
    set, {!PARAMS}, is the whole difference between our {!Php_malloc}
    (Zend-style, with bulk free), {!Dl_malloc} (glibc stand-in, with an
    unsorted bin and no bulk free) and {!Reap_malloc}: each is one
    application of {!Make}.

    All bin heads, headers, footers, and link words live in simulated
    memory, so the defragmentation work is visible to the cache simulator
    exactly where a real allocator would pay for it. *)

module type PARAMS = sig
  val name : string
  (** Allocator name, also its OS-layer accounting name. *)

  val capabilities : Core.Allocator.capabilities
  (** [free_all] raises [Invalid_argument] unless [bulk_free]. *)

  val code_size : int

  val block_size : int
  (** Growth granularity (Zend: 256 KB; glibc: 1 MB). *)

  val use_unsorted : bool
  (** glibc-style deferred binning: frees land in an unsorted bin that
      malloc sifts through before searching sized bins. *)
end

module type S = sig
  include Core.Allocator.S

  val create : t Core.Allocator.constructor
end

module Make (_ : PARAMS) : S
(** With bulk free, [free_all] is the Zend-MM per-request cleanup: every
    block becomes a single free chunk again and the bins empty; blocks
    remain claimed from the OS.  [consumption] is the bytes claimed from
    the OS (Figure 9's measure for malloc/free allocators). *)

val header_bytes : int
(** Per-object header overhead (8 B) — the per-object metadata the paper
    blames for part of the default allocator's extra cache pressure. *)
