(** Parallel [map] on stdlib domains.

    The experiment pipeline plans hundreds of independent simulation
    configurations up front; [map] executes them on OCaml 5 domains
    (domainslib is not part of the toolchain).  [jobs] worker domains
    claim input indices from one [Atomic] cursor (a fetch-and-add per
    task, so workers share no lock-guarded task list) and write each
    outcome into that input's own slot; the caller joins them.  A worker
    that finishes a short task claims the next index, so long and short
    tasks balance.

    Guarantees:
    - {b input-order results}: [map] and [run] return results in the
      order the inputs were given, whatever order the workers finish in;
    - {b exception barrier}: if tasks raise, every task still runs to
      completion (or failure) before the exception of the {e earliest}
      failing input is re-raised with its backtrace;
    - with [jobs <= 1] (or at most one input) no domain is spawned and
      the tasks run in order on the caller, with the same semantics;
    - otherwise tasks never run on the calling domain. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] runs [f] over [xs] on [min jobs (length xs)] worker
    domains and returns the results in the order of [xs]. *)

val run : jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks] = [map ~jobs (fun f -> f ()) thunks]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1..16] — the
    default for every [-j]/[--jobs] flag. *)
