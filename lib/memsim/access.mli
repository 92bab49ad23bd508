(** Memory-access events.

    Every load, store, or payload touch performed against the simulated
    memory is described by a (context, kind, addr, bytes) quadruple and
    handed to the observer installed on the {!Memory.t} as four immediate
    arguments — the hot path never materializes a record.  The cache
    simulator is that observer; the profiler attributes the resulting hits,
    misses, and stall cycles to the access's {!context}.

    The {!t} record names the quadruple for code that wants to keep
    events, such as tests and ad-hoc tracing: an observer builds it
    itself, off the measured path. *)

type context =
  | Mgmt  (** inside malloc/free/realloc/freeAll — the allocator itself *)
  | App  (** application code touching its own objects and working set *)
  | Kernel  (** OS work: page faults, process restart, context switches *)

type kind =
  | Load
  | Store

type t = {
  context : context;
  kind : kind;
  addr : int;  (** simulated byte address *)
  bytes : int;  (** extent of the access; split per line by the observer *)
}

val context_name : context -> string

val pp : Format.formatter -> t -> unit
