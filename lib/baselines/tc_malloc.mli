(** TCmalloc-style allocator (Ghemawat & Menage).

    Thread-cache design: per-class LIFO free lists give a fast path as lean
    as DDmalloc's, but defragmentation is {e delayed}, not dodged — when a
    cache list outgrows its cap of 256 objects, half of it is walked and
    released to the central free list, and refills walk batches of 16
    back out.  Fresh spans are
    carved by linking every object up front.  The paper's §4.4 shows these
    delayed activities still cost enough that DDmalloc outperforms TCmalloc
    by 5.3% on Ruby on Rails; this implementation reproduces exactly those
    walk-and-transfer costs.

    Every span is a 64 KB aligned mapping whose first line records the span
    class (or large-object size), which is how [free] classifies pointers —
    the analogue of TCmalloc's pagemap lookup. *)

include Core.Allocator.S

val create : t Core.Allocator.constructor

val scavenges : t -> int
(** How many cache→central releases have happened (the delayed
    defragmentation events). *)
