(** Request dispatch: which per-core FIFO run queue an arrival joins.

    Models the front-end of a prefork web server.  [Round_robin] is the
    oblivious baseline; [Least_loaded] joins the shortest queue (ties to
    the lowest core index, so placement is deterministic); [Affinity]
    hashes a request's flow — think client connection or session — to a
    fixed core, trading balance for locality the way SO_REUSEPORT-style
    sharding does. *)

type policy =
  | Round_robin
  | Least_loaded
  | Affinity

val all : policy list

val name : policy -> string
(** ["round-robin"] | ["least-loaded"] | ["affinity"]. *)

val of_name : string -> policy option

type t
(** Dispatcher state (the round-robin cursor); one per simulation run. *)

val create : policy -> cores:int -> t

val pick : t -> loads:int array -> flow:int -> int
(** Core index in [0, cores) for the next arrival.  [loads.(i)] is the
    number of requests queued or in service on core [i], read only by
    [Least_loaded]; the simulator passes its own per-core counters, so
    a pick allocates nothing.  [flow] is the request's flow id (used
    only by [Affinity]).  Raises [Invalid_argument] if [loads] is
    shorter than [cores], whatever the policy. *)
