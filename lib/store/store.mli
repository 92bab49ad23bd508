(** Persistent content-addressed measurement store.

    Turns the experiment suite into an incremental computation across
    processes: a measurement is a pure function of its fully-expanded
    configuration (the isolation invariant of [lib/runtime/engine.mli]),
    so it is stored once under the digest of (simulator fingerprint,
    canonical configuration string) and served from disk forever after —
    the same digest → immutable-artifact discipline build systems use.

    The store itself is payload-agnostic: it maps canonical key strings
    to opaque byte strings.  [Mm_experiments.Context] supplies the
    encoding ([Mm_runtime.Engine.measurement_to_string]/[of_string]) and
    the fingerprint ([Mm_runtime.Version.sim_fingerprint]); keeping those
    out of this library keeps it dependency-free and reusable.

    {b Crash safety and concurrency.}  Writes go to a unique temp file in
    the store directory, are flushed and [fsync]ed, then published with
    an atomic [rename] — durability before visibility, so a crash can
    never publish a torn entry — and concurrent writers of the same
    digest (which, by content-addressing, carry identical payloads) race
    benignly — last rename wins.  Publication and the maintenance sweeps
    ({!gc}/{!clear}) mutually exclude through an advisory lock file
    ([.lock] in the store directory) plus an in-process mutex, so the
    deleter cannot race a rename.  Reads validate a self-describing
    header (store schema, fingerprint, full key, payload byte count and
    MD5); any mismatch, truncation, or corruption reads as a miss, never
    an error.

    {b Fault tolerance.}  Transient I/O errors — real ones, or those
    injected by [Mm_fault.Fault] ([MM_FAULT_SEED]) — are absorbed by a
    bounded retry with exponential backoff (4 attempts, waits of 0.5, 1
    and 2 ms between them).  A read that stays broken is a miss (the caller recomputes
    and the next write heals the entry on disk); a write that stays
    broken raises.  Injected torn writes publish truncated entries on
    purpose, exercising the read-as-miss self-healing path.  {!health}
    reports the retry/failure tallies.

    {b Invalidation.}  The fingerprint participates in the digest, so
    bumping [Version.sim_fingerprint] orphans every existing entry
    (they become unreachable, reclaimable with {!gc}/{!clear}) rather
    than serving stale measurements. *)

type t

val default_dir : unit -> string
(** [$MMSTUDY_CACHE_DIR] if set and non-empty, else ["_mmstudy_cache"]
    (relative to the working directory). *)

val open_ : ?dir:string -> fingerprint:string -> unit -> t
(** Open (lazily creating on first write) the store at [dir] (default
    {!default_dir}).  [fingerprint] is mixed into every digest and
    written into every entry header. *)

val dir : t -> string

val fingerprint : t -> string

val digest_hex : t -> key:string -> string
(** The content address of [key] under this store's fingerprint. *)

val entry_path : t -> key:string -> string
(** Absolute-or-relative path of the entry file for [key] (which may or
    may not exist).  Exposed for tests and debugging. *)

type health = {
  read_retries : int;  (** reads retried after a transient fault *)
  read_failures : int;  (** reads abandoned (served as misses) *)
  write_retries : int;  (** writes retried after a transient fault *)
  write_failures : int;  (** writes abandoned (exception raised) *)
}

val health : t -> health
(** Snapshot of this handle's fault tallies since {!open_}.  All zero on
    a healthy store. *)

val find : t -> key:string -> string option
(** The stored payload for [key], or [None] on miss {e or} on any
    validation failure (wrong fingerprint, truncated file, corrupt
    header).  A hit refreshes the entry's mtime so {!gc} approximates
    LRU. *)

val default_kind : string
(** ["measurement"] — the payload kind assumed when {!store} is not told
    otherwise, and the kind attributed to pre-tag (schema 1) entries by
    {!stats}. *)

val store : t -> ?kind:string -> key:string -> data:string -> unit -> unit
(** Atomically publish [data] under [key], overwriting any existing
    entry.  [kind] (default {!default_kind}) tags the entry header with
    the payload type — e.g. ["serve"] for serving-simulator sweeps — so
    {!stats} and gc diagnostics stay legible as payload types grow; it
    does not affect the digest or retrieval.  Raises
    [Sys_error]/[Unix.Unix_error] only for environmental failures
    (permissions, disk full); callers doing write-behind may treat those
    as best-effort. *)

(** {2 Maintenance — operate on a directory, not an open store}

    These walk every entry file regardless of fingerprint, so they also
    see entries orphaned by fingerprint bumps. *)

type stats = {
  entries : int;
  bytes : int;  (** total size of all entry files *)
  by_kind : (string * int * int) list;
      (** per payload kind: (kind, entries, bytes), sorted by kind.
          Schema-1 entries count as {!default_kind}; unparseable files
          count as ["unknown"]. *)
}

val stats : dir:string -> stats

val clear : dir:string -> int
(** Delete every entry (and stray temp file); returns the number of
    entries removed.  A missing directory counts as empty. *)

val gc : dir:string -> max_bytes:int -> int
(** Delete least-recently-used entries until the store fits in
    [max_bytes]; returns the number removed.  Holds the store lock for
    the whole scan-and-delete, so a concurrent writer cannot race the
    deleter. *)
