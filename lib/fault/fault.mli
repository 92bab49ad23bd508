(** Deterministic, process-global fault injection.

    The injector drives every simulated infrastructure failure in the
    stack — store read and write errors, torn writes — from one seeded
    plan so a failing run can be replayed exactly.  It is disabled by
    default; a probe then costs one atomic read.

    Enable it either from the environment ([MM_FAULT_SEED=<int>], read
    once at program start) or programmatically with {!configure} (tests,
    the [mmstudy chaos] drill).

    Every decision is a pure function: the [n]-th probe of a (site, key)
    pair since {!configure} fires iff [u < rate], where [u] is a uniform
    draw seeded by a hash of (seed, site, key, n).  The fault pattern
    therefore depends only on the seed and on the order of probes {e per
    key} — never on which domain reaches a site first — and a retry or a
    rewrite of the same key draws afresh.  Counting restarts at 0 in each
    process, so one seed faults the same keys in every process.

    The contract for every injection point: a fault plan may change
    counters, timings, and logs — never experiment output bytes. *)

type site =
  | Store_read  (** I/O error while reading a store entry *)
  | Store_write  (** I/O error while writing a store entry *)
  | Store_torn  (** store write published truncated (torn write) *)

exception Injected of site
(** Raised by injection points to simulate the failure. *)

val all_sites : site list

val site_name : site -> string
(** Stable lower-case name, e.g. ["store-read"], for reports and keys. *)

val default_rate : site -> float
(** Per-probe firing probability used when no explicit rate is given. *)

val configure : ?rates:(site * float) list -> seed:int -> unit -> unit
(** [configure ~seed ()] (re)arms the injector with [seed], forgetting
    every earlier probe and resetting all counters.  [rates] overrides
    the default per-site probabilities (entries not listed keep their
    default).  Takes precedence over [MM_FAULT_SEED]. *)

val disable : unit -> unit
(** Disarm the injector and reset counters. *)

val enabled : unit -> bool
(** Whether a fault plan is armed. *)

val seed : unit -> int option
(** The armed plan's seed, if any. *)

val probe : site -> key:string -> float option
(** [probe site ~key] decides whether this probe of [key] at [site]
    fails, counting the injection when it does.  A fault comes with a
    uniform draw in [0, 1) taken from the same decision (e.g. where to
    truncate a torn write).  Always [None] when disabled. *)

val injected : site -> int
(** How many times [site] has fired since the plan was (re)armed. *)

val counts : unit -> (site * int) list
(** All per-site counters, in {!all_sites} order. *)

val total_injected : unit -> int
