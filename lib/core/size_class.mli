(** Size-class mapping for segregated-storage allocators.

    DDmalloc (§3.2 of the paper) maps every request to a size class:
    multiples of 8 bytes below 128, multiples of 32 below 512, powers of two
    above.  The mapping is a tunable parameter — coarser classes mean fewer
    free lists but more internal fragmentation — so it is expressed as a
    first-class [scheme] and swept by the [abl-sc] ablation. *)

type scheme

val name : scheme -> string

val max_size : scheme -> int
(** Largest size served from a class; bigger requests take the allocator's
    large-object path. *)

val class_count : scheme -> int
(** At most 256. *)

val class_sizes : scheme -> int array
(** Ascending object sizes, one per class. *)

val index_of_size : scheme -> int -> int
(** [index_of_size s n] is the class serving an [n]-byte request
    ([1 <= n <= max_size s]).  O(1) table lookup. *)

val size_of_index : scheme -> int -> int

val overhead : scheme -> int -> int
(** Internal fragmentation: [size_of_index (index_of_size n) - n]. *)

val paper : max_size:int -> scheme
(** The DDmalloc mapping from the paper: ×8 < 128 B, ×32 < 512 B, powers of
    two up to [max_size]. *)

val power_of_two : max_size:int -> scheme
(** Ablation: pure powers of two from 8 B up — faster mapping, more
    internal fragmentation. *)

val fine : max_size:int -> scheme
(** Ablation: ×8 steps up to 512 B then powers of two — less fragmentation,
    more (and colder) free lists. *)

val of_sizes : name:string -> int array -> scheme
(** Build a scheme from an explicit ascending list of at most 256 sizes. *)
