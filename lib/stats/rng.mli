(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that every
    experiment is exactly reproducible from its seed.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): fast, 64-bit, and cheap to
    split into independent streams — one stream per simulated process keeps
    workloads on different cores statistically independent yet repeatable.

    The state is kept unboxed, so drawing does not allocate: {!int},
    {!int_in} and {!bool} allocate nothing, and the
    functions returning a [float] or [int64] allocate at most the boxed
    result (none once inlined into an unboxing caller).  Only {!create},
    {!copy} and {!split} allocate a generator. *)

type t

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the generator state; the copy and the original then
    evolve independently. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and advances
    [t].  Used to give each simulated process its own stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform over [0, bound).  [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform over the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val float : t -> float
(** Uniform over [0, 1). *)

val bool : t -> p:float -> bool
(** [bool t ~p] is [true] with probability [p] (clamped to [0, 1]). *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller, one value per call). *)

val exponential : t -> mean:float -> float
(** Exponential deviate with the given mean. *)
