(** A fixed-size worker pool on stdlib domains.

    The experiment pipeline plans hundreds of independent simulation
    configurations up front; this pool executes them on OCaml 5 domains.
    Built on [Domain] + [Mutex]/[Condition] only (domainslib is not part
    of the toolchain).

    Guarantees:
    - {b submission-order results}: [map] and [run] return results in the
      order the inputs were given, whatever order the workers finish in;
    - {b exception barrier}: if tasks raise, every task still runs to
      completion (or failure) before the exception of the {e earliest
      submitted} failing task is re-raised with its backtrace;
    - [jobs = 1] degenerates to sequential in-domain execution with the
      same semantics, so callers need no special case. *)

type t
(** A running pool of worker domains. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [max 1 jobs] worker domains that sleep until
    work is submitted. *)

val jobs : t -> int
(** Number of worker domains. *)

type 'a promise
(** The eventual result of a submitted task. *)

val submit : t -> (unit -> 'a) -> 'a promise
(** Enqueue one task.  Raises [Invalid_argument] if the pool has been
    shut down. *)

val await : 'a promise -> 'a
(** Block until the task finishes; returns its value or re-raises its
    exception (with the original backtrace). *)

val shutdown : t -> unit
(** Wait for queued work to drain, then join every worker domain.
    Idempotent. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] runs [f] over [xs] on a temporary pool of
    [min jobs (length xs)] domains and returns the results in the order
    of [xs].  With [jobs <= 1] no domain is spawned.  Exception barrier
    as described above. *)

val run : jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks] = [map ~jobs (fun f -> f ()) thunks]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1..16] — the
    default for every [-j]/[--jobs] flag. *)
