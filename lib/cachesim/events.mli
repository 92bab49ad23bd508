(** Hardware-event counters, per access context.

    These are the same counters the paper reads with Oprofile (Figure 8:
    instructions, L1I / L1D / D-TLB / L2 misses, bus transactions), kept
    separately for [Mgmt], [App] and [Kernel] so the profiler can attribute
    CPU time the way Figure 6 does. *)

type counter =
  | Instructions
  | Loads
  | Stores
  | L1i_miss
  | L1d_miss
  | L2_miss  (** demand misses that went to memory *)
  | Dtlb_miss
  | Bus_fill  (** demand line fills from memory *)
  | Bus_writeback
  | Bus_prefetch  (** prefetcher line fills from memory *)
  | Pf_late
      (** first demand touches of prefetched lines (pay a partial memory
          latency — the fill was in flight) *)

val counter_name : counter -> string

val all_counters : counter list

type t

val create : unit -> t

val reset : t -> unit

val add : t -> Mm_memsim.Access.context -> counter -> int -> unit

(** {2 Raw-index fast path}

    The cache simulator bumps counters on every simulated line reference;
    going through the variant dispatch of {!add} per bump is measurable.
    Hot callers precompute flat indices [ctx_index ctx * ncounters +
    counter_index c] once per access and bump through {!unsafe_add}. *)

val ncounters : int

val counter_index : counter -> int

val ctx_index : Mm_memsim.Access.context -> int

val unsafe_add : t -> int -> int -> unit
(** [unsafe_add t i n] adds [n] at flat index [i] with no bounds check;
    [i] must come from the [ctx_index]/[counter_index] arithmetic above. *)

val get : t -> Mm_memsim.Access.context -> counter -> int

val total : t -> counter -> int
(** Sum over all contexts. *)

val bus_transactions : t -> int
(** Fills + writebacks + prefetches, the paper's "bus transactions". *)

val accumulate : into:t -> t -> unit

val copy : t -> t
