(** GNU-obstack-style region allocator (paper §4.1).

    The paper also evaluated GNU obstack as a second region allocator and
    found their own 256 MB-chunk bump allocator faster; we reproduce why:
    obstack grows in small chunks (4 KB default), so allocation crosses a
    chunk boundary often, paying a header write and a chunk-map call each
    time, and [free_all] must walk the chunk chain to release it.

    Like the region allocator it has no per-object free; extents for
    [realloc]/[usable_size] use the same untraced oracle. *)

include Core.Allocator.S

val create : t Core.Allocator.constructor

val chunks_live : t -> int
