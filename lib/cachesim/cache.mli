(** One set-associative, write-back, write-allocate cache level.

    Addresses are presented pre-shifted as line numbers; LRU replacement;
    dirty bits drive writeback accounting.  The hot path allocates nothing:
    results are bare constructors and victim information is read back
    through {!victim_line}/{!victim_dirty} instead of a boxed [Miss]
    payload, and an MRU-way hint per set short-circuits the way scan on
    the common repeated-line case (results are identical with or without
    the hint — it only skips work). *)

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

val create : sets:int -> ways:int -> t
(** [sets] must be a power of two. *)

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
