(** Hoard-style allocator (Berger et al., ASPLOS 2000).

    Superblock-structured: 8 KB aligned superblocks, each dedicated to one
    power-of-two size class, with a per-superblock free list and fill count
    in a header at the superblock's base.  Empty superblocks are returned
    (Hoard's emptiness-threshold transfer, modeled as an unmap).  The PHP
    processes of the study are single-threaded, so each heap is one
    thread's heap and Hoard's cross-thread machinery never triggers; the
    costs that matter here are its per-operation superblock bookkeeping.
    Appears in the paper's Ruby on Rails comparison (§4.4). *)

include Core.Allocator.S

val create : t Core.Allocator.constructor

val superblocks_live : t -> int
