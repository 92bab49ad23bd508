(** One simulated core's memory hierarchy, wired to a simulated memory —
    or several such hierarchies that see the same reference stream.

    The runtime simulates a single representative core (all cores run
    statistically identical PHP processes); this module consumes that
    core's reference streams — data accesses, instruction fetches, and
    instruction counts — and maintains L1I, L1D, the core's share of L2,
    the D-TLB, and the stream prefetcher, accumulating the paper's
    hardware-event counters per context.  The multicore performance model
    ({!Perf_model}) then scales one core's behaviour to the machine.

    {b Stream groups.}  The active core count changes only the size of a
    core's L2 share, so one system can stand for several core counts at
    once ({!create_group}): one {e front} — L1I, L1D, D-TLB, prefetcher —
    counts instructions, loads, stores, L1I, L1D and D-TLB misses once,
    and every L2 reference the front makes (dirty L1D victims, demand
    misses, prefetch fills, in that order) goes to one L2 {e back-end} per
    distinct share size, which counts L2 misses, bus fills, writebacks,
    prefetches and late prefetch hits.  Nothing an L2 does feeds back into
    the front (the prefetcher sees only the L1D miss sequence), so each
    member's counts are exactly those of a system of its own.
    {!create} is the one-member case.

    This module is the installed {!Mm_memsim.Memory.observer} and obeys its
    contract: processing one access allocates nothing (counter bumps go
    through precomputed flat indices, cache results carry no boxed payload,
    and the prefetcher feeds candidates through a preallocated callback)
    and nothing about the access is retained beyond the call.  The counts
    it produces are bit-identical to the historical boxed-record path. *)

type t

val create_group :
  machine:Machine.t -> active_cores:int list -> large_page_heap:bool -> t
(** A hierarchy for each core count in [active_cores] (the members, in
    list order) behind one shared front.  A core's L2 share shrinks as
    more cores are active ({!Machine.l2_sets_per_core}); members whose
    shares have the same geometry share one back-end, since an L2's counts
    depend only on its geometry and its input.  [large_page_heap] selects
    the D-TLB page size (§3.3 optimization 2).  Raises [Invalid_argument]
    on an empty list. *)

val create :
  machine:Machine.t -> active_cores:int -> large_page_heap:bool -> t
(** [create_group ~active_cores:[active_cores]]. *)

val attach : t -> Mm_memsim.Memory.t -> unit
(** Install this hierarchy as the memory's access/instruction/code
    observers. *)

val on_context_switch : t -> unit
(** Process switch on this core: flushes the TLB on machines without
    address-space identifiers (x86), nothing elsewhere. *)

val events : t -> int -> Events.t
(** [events t i] is a fresh copy of member [i]'s counters: the front's
    plus its back-end's. *)

val reset_events : t -> unit

val flush : t -> unit
(** Cold caches (process restart / measurement barrier). *)
