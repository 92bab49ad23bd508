(** The region-based allocator of the study (§4.1 of the paper).

    Obtains a 256 MB chunk of memory at startup and allocates by bumping a
    pointer, rounding requests to multiples of 8 bytes.  When the chunk is
    exhausted it maps the next one.  There is no per-object free: dead
    objects are never reused, so within a transaction the allocator streams
    through fresh memory — the behaviour whose bus-traffic cost on eight
    cores is the paper's first headline result.  [free_all] resets the bump
    pointer to the first chunk.

    [realloc] allocates anew and copies (nothing is ever freed).  Because a
    pure region allocator keeps no per-object size metadata, object extents
    for [realloc]/[usable_size] come from an untraced host-side oracle
    (standing in for the callers' knowledge in the PHP runtime); this
    charges the region allocator {e no} simulated traffic for it, which is
    conservative — the region allocator loses to DDmalloc in the paper
    despite this favour. *)

include Core.Allocator.S

val create : t Core.Allocator.constructor

val chunks_mapped : t -> int
