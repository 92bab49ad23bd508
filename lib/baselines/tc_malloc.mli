(** TCmalloc-style allocator (Ghemawat & Menage).

    Thread-cache design: per-class LIFO free lists give a fast path as lean
    as DDmalloc's, but defragmentation is {e delayed}, not dodged — when a
    cache list outgrows its cap, half of it is walked and released to the
    central free list, and refills walk batches back out.  Fresh spans are
    carved by linking every object up front.  The paper's §4.4 shows these
    delayed activities still cost enough that DDmalloc outperforms TCmalloc
    by 5.3% on Ruby on Rails; this implementation reproduces exactly those
    walk-and-transfer costs.

    Every span is a 64 KB aligned mapping whose first line records the span
    class (or large-object size), which is how [free] classifies pointers —
    the analogue of TCmalloc's pagemap lookup. *)

type config = {
  span_size : int;  (** 64 KB *)
  batch : int;  (** objects moved per central↔cache transfer (paper-era: 16) *)
  cache_cap : int;  (** max objects per cache list before scavenging (256) *)
}

val config : ?span_size:int -> ?batch:int -> ?cache_cap:int -> unit -> config

include Core.Allocator.S with type config := config

val scavenges : t -> int
(** How many cache→central releases have happened (the delayed
    defragmentation events). *)
