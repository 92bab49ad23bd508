(** The default allocator of the PHP runtime (Zend MM style).

    The paper's baseline: a general-purpose boundary-tag allocator that
    "does coalescing and splitting of objects" on every malloc/free, plus a
    bulk [free_all] used by the runtime at the end of each transaction.
    Grows in 256 KB blocks.  The defragmentation work it performs per call
    — exactly what DDmalloc dodges — comes from the shared
    {!Boundary_heap} engine. *)

include Boundary_heap.S
