(** Reaps (Berger, Zorn & McKinley, OOPSLA 2002) — Table 1's third row of
    prior work: a hybrid that supports both bulk free over a region and
    per-object free, but whose per-object path "acts in almost the same way
    as Doug Lea's allocator", i.e. still pays for defragmentation.  The
    paper contrasts DDmalloc with Reaps precisely on that point, so our
    Reaps is the boundary-tag engine plus a bulk [free_all], growing in
    1 MB blocks. *)

include Boundary_heap.S
