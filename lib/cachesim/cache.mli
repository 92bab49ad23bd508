(** One set-associative, write-back, write-allocate cache level.

    Addresses are presented pre-shifted as line numbers; replacement is
    exact LRU; dirty bits drive writeback accounting.

    {b Set state.}  Each set keeps a circular doubly linked recency list
    of its ways, one byte per link, so a hit moves its way to the head
    and a miss takes the LRU way in constant time: no age stamps, no
    victim scan.  The head is the MRU way; there is no separate MRU hint.
    Each way holds one packed tag word, [line lsl 2 lor dirty lsl 1 lor
    prefetched]; an empty way holds the word of line [-1], clean.

    {b Tie rule.}  {!create} and {!flush} order every list from way
    [ways - 1] (MRU) down to way 0 (LRU), so ways untouched since then
    are taken lowest index first.  Results, victims and dirty bits are
    exactly those of an age-stamped LRU whose victim scan takes the
    lowest-index way among the oldest.

    The hot path allocates nothing: results are bare constructors and
    victim information is read back through {!victim_line}/
    {!victim_dirty} instead of a boxed [Miss] payload. *)

type t

type result =
  | Hit
  | Hit_prefetched
      (** first demand touch of a line brought in by the prefetcher — the
          reference may still wait on the in-flight fill (a "late"
          prefetch) *)
  | Miss
      (** line filled; victim described by {!victim_line}/{!victim_dirty}
          until the next access *)

val max_ways : int
(** 256: a set's way indices are stored one byte each. *)

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two and [ways] in [1..max_ways]; raises
    [Invalid_argument] otherwise. *)

val access : t -> line:int -> store:bool -> result
(** Reference a line; on miss the line is filled (and marked dirty if
    [store]). *)

val mark_mru_dirty : t -> line:int -> unit
(** Set the dirty bit of the most recently touched way of [line]'s set.
    Valid only when the previous {!access} to this cache returned with
    [line] resident (so [line] is that way): it then has the same effect
    as a repeated store [access], whose LRU update would be a no-op. *)

val insert : t -> line:int -> result
(** Fill a line without a demand reference (prefetch); clean, LRU-refreshed.
    [Hit] if already present. *)

val victim_line : t -> int
(** After {!access}/{!insert} returned [Miss]: the evicted line, or [-1] if
    the frame was empty.  Clobbered by the next miss on this cache. *)

val victim_dirty : t -> bool
(** After {!access}/{!insert} returned [Miss]: whether the victim was
    dirty.  Clobbered by the next miss on this cache. *)

val contains : t -> line:int -> bool
(** Probe without disturbing LRU state. *)

val flush : t -> unit
(** Invalidate everything (drops dirty data; used only between runs). *)

val sets : t -> int

val ways : t -> int
