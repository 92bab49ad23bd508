(** Sparse simulated memory.

    A flat 63-bit byte-addressed space, backed lazily in 4 KiB pages so a
    256 MB region chunk or a sparsely used DDmalloc segment costs host
    memory only for the pages written.  Pages sit in a two-level table:
    4 MiB chunks of 1024 page slots, found by chunk id.  A chunk exists
    while at least one of its pages is backed.  Allocators store their
    real data structures here — free-list links threaded through dead
    objects, boundary tags, segment metadata — so the addresses they touch
    (and therefore their cache behaviour) are genuine, not modeled.

    Three event streams flow out of a memory:
    - data accesses (context, kind, addr, bytes) from loads, stores, and
      payload touches;
    - instruction counts, charged by allocators and the workload engine;
    - code touches (simulated instruction-fetch addresses), used by the
      I-cache model.

    All three are tagged with the current {!Access.context}, switched by the
    runtime around allocator calls.  The backing granularity never shows
    in them: every event and every byte read back is the same as with any
    other granularity.

    {b Zero-allocation hot path.}  A simulated data access performs no heap
    allocation: the observer receives the four components of an
    {!Access.t} as immediate arguments rather than a boxed record, page
    lookup goes through a one-entry last-page cache and then a one-entry
    last-chunk cache (and a preallocated [Not_found] instead of an
    allocating [find_opt] when both miss), and {!load_word}/{!store_word}
    move a native [int] in one 64-bit access whose [Int64] never boxes.
    Billions of events per experiment ride on this path. *)

type t

(** The unboxed access observer: [f ctx kind addr bytes].  The contract:
    observers must not allocate on this path and must not retain the
    arguments beyond the call (they are immediates, there is nothing to
    retain).  Event streams are bit-identical to the historical boxed
    [Access.t -> unit] observer. *)
type observer = Access.context -> Access.kind -> int -> int -> unit

val create : unit -> t

val reset : t -> unit
(** Drop all backing pages and zero the statistics; observers stay. *)

val discard : t -> addr:int -> bytes:int -> unit
(** Drop the backing of every whole page ({!page_size}) inside
    [\[addr, addr + bytes)], and every chunk left with no backed page;
    those addresses read as zero again and cost no host memory until
    written.  Partial pages at either end keep their bytes.  Emits no
    event: this is host-memory bookkeeping for ranges the simulation will
    never touch again (a restarted worker's dead heap). *)

(** {2 Context and observers} *)

val set_context : t -> Access.context -> unit

val context : t -> Access.context

val with_context : t -> Access.context -> (unit -> 'a) -> 'a
(** Run the thunk under the given context, restoring the previous one
    (also on exceptions).  Allocation-free apart from the closure the
    caller passes. *)

val set_access_observer : t -> observer -> unit

val set_instr_observer : t -> (Access.context -> int -> unit) -> unit

val set_code_observer : t -> (Access.context -> int -> unit) -> unit
(** The [int] is a simulated code byte-address (for the I-cache). *)

(** {2 Data accesses}

    Addresses must be non-negative.  A multi-byte load or store must not
    cross a page boundary ({!page_size}); all allocator structures are
    8-byte aligned, so this never occurs in practice, and it is enforced by
    assertion.  {!touch}, {!memset} and {!memcpy} may span any range. *)

val load8 : t -> addr:int -> int

val store8 : t -> addr:int -> value:int -> unit

val load_word : t -> addr:int -> int
(** 64-bit little-endian load narrowed to an OCaml int (addresses and
    sizes fit 62 bits).  Never boxes. *)

val store_word : t -> addr:int -> value:int -> unit
(** Stores the sign-extended little-endian 64-bit pattern of [value]
    ([Int64.of_int value]), without the [Int64] boxing. *)

val touch : t -> kind:Access.kind -> addr:int -> bytes:int -> unit
(** Emit access events for a payload region without materializing backing
    store.  This is how application reads/writes of object contents are
    simulated cheaply. *)

val memset : t -> addr:int -> bytes:int -> value:int -> unit
(** Real stores (materializes every page of the range); used e.g. to clear
    allocator metadata.  Emits one store event per 64 KiB-aligned fragment
    of the range. *)

val memcpy : t -> dst:int -> src:int -> bytes:int -> unit
(** Copies only bytes whose source pages are materialized, but emits load
    and store events for the full extent (a [realloc] copy touches every
    line whether or not the simulator ever stored real data there): one
    load and one store per fragment that lies inside one 64 KiB-aligned
    fragment of both the source and the destination.  Unmaterialized
    source ranges read as zero, exactly like {!load8}; a destination page
    that was never materialized stays that way when its source is
    unbacked.  The two ranges must not overlap. *)

(** {2 Instruction accounting} *)

val instr : t -> int -> unit
(** Charge [n] executed instructions to the current context. *)

val code_touch : t -> addr:int -> unit
(** Report a simulated instruction-fetch at [addr] (I-cache model). *)

(** {2 Statistics} *)

val backed_bytes : t -> int
(** Total bytes of materialized pages: [page_size] times the pages
    backed. *)

val backed_chunks : t -> int
(** Chunks (4 MiB spans) holding at least one backed page. *)

val access_count : t -> int
(** Number of access events emitted since creation/reset. *)

val page_size : int
(** Size of a backing page (4 KiB): the granularity of {!discard} and the
    span no multi-byte access may cross. *)
