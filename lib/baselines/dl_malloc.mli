(** glibc-style general-purpose allocator (the Ruby experiments' default).

    A Doug-Lea-family allocator: boundary tags, coalescing, splitting, and
    glibc's deferred binning through an unsorted bin.  Grows in 1 MB blocks.
    Supports only malloc/free — no bulk free — so it appears in the paper
    only in the Ruby on Rails comparison (§4.4) against Hoard, TCmalloc and
    DDmalloc. *)

include Boundary_heap.S
