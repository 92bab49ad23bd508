(** Data TLB: fully-associative, exact LRU, fixed entry count; every
    operation is O(1) and {!access} allocates nothing.

    Page size is a property of the run (4 KB, or the large-page size when
    the heap is mapped with large pages — §3.3 optimization 2; the paper
    used 4 MB pages on Niagara everywhere and measured Xeon both ways). *)

type t

val create : entries:int -> page_shift:int -> t

val access : t -> addr:int -> bool
(** [true] = hit.  A miss installs the translation. *)

val flush : t -> unit
(** Address-space switch without ASIDs (x86-style) empties the TLB. *)

val page_shift : t -> int
