module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Perf = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec
module Pool = Mm_sched.Pool
module Store = Mm_store.Store
module Fault = Mm_fault.Fault

type id = {
  k_machine : string;
  k_cores : int;
  k_kind : string;
  k_spec : string;
  k_restart : int option;
  k_large_pages : bool;
  k_ruby : bool;
  k_measure : int;
  k_scale : float;
  k_seed : int;
      (* Part of the identity even though it is ambient in the [t]: the
         persistent store outlives the process, so keys from runs with
         different [--seed] values must never collide. *)
}

type key = {
  key_id : id;
  fill : fill;
}

(* How a memo miss is filled: by simulating the configuration, or by
   relabelling the measurement of a key it provably behaves like. *)
and fill =
  | Simulate of Engine.config
  | Same_as of key * Engine.config

(* One configuration being simulated right now.  Late requesters for the
   same id block on the cell instead of recomputing. *)
type cell = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  mutable c_state :
    [ `Pending | `Done of Engine.measurement | `Failed of exn ];
}

type t = {
  scale : float;
  seed : int;
  store : Store.t option;  (* read-through / write-behind disk layer *)
  refresh : bool;  (* skip store reads (still write) — force recompute *)
  lock : Mutex.t;  (* guards cache, inflight, blob_cache and all counters *)
  cache : (id, Engine.measurement) Hashtbl.t;
  inflight : (id, cell) Hashtbl.t;
  blob_cache : (string * string, string) Hashtbl.t;  (* (kind, key) *)
  mutable n_simulated : int;
  mutable n_disk_hits : int;
  mutable n_blob_computed : int;
  mutable n_blob_disk_hits : int;
}

let create ?(scale = 0.25) ?(seed = 42) ?store ?(refresh = false) () =
  assert (scale > 0.0 && scale <= 1.0);
  {
    scale;
    seed;
    store;
    refresh;
    lock = Mutex.create ();
    cache = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    blob_cache = Hashtbl.create 16;
    n_simulated = 0;
    n_disk_hits = 0;
    n_blob_computed = 0;
    n_blob_disk_hits = 0;
  }

let scale t = t.scale

let seed t = t.seed

let store t = t.store

let simulated t =
  Mutex.lock t.lock;
  let n = t.n_simulated in
  Mutex.unlock t.lock;
  n

let disk_hits t =
  Mutex.lock t.lock;
  let n = t.n_disk_hits in
  Mutex.unlock t.lock;
  n

let key_name k =
  let i = k.key_id in
  Printf.sprintf "%s/%dc/%s/%s%s%s%s~s%d" i.k_machine i.k_cores i.k_kind
    i.k_spec
    (if i.k_large_pages then "+lp" else "")
    (if i.k_ruby then
       Printf.sprintf "+ruby:%s/%d"
         (match i.k_restart with None -> "norestart" | Some p -> string_of_int p)
         i.k_measure
     else "")
    (Printf.sprintf "@%g" i.k_scale)
    i.k_seed

(* The canonical string the persistent store digests.  Every [id] field
   appears, fully expanded; the scale is printed with %h so two scales
   that differ in any bit get distinct keys. *)
let store_key_of_id (i : id) =
  Printf.sprintf
    "machine=%s;cores=%d;kind=%s;spec=%s;restart=%s;large_pages=%b;ruby=%b;measure=%d;scale=%h;seed=%d"
    i.k_machine i.k_cores i.k_kind i.k_spec
    (match i.k_restart with None -> "none" | Some p -> string_of_int p)
    i.k_large_pages i.k_ruby i.k_measure i.k_scale i.k_seed

let store_key k = store_key_of_id k.key_id

(* DDmalloc as the paper ran it: large pages and the §3.3 metadata
   staggering on Niagara; stock configuration on Xeon (the paper disabled
   Xeon large pages for fairness against the default allocator). *)
let dd_kind_for (machine : Machine.t) =
  if machine.Machine.name = "niagara" then
    Factory.Dd
      (Some
         (Core.Ddmalloc.config ~pid_metadata_offset:true ~large_pages:true ()))
  else Factory.Dd None

let php_kinds = [ Factory.Php_default; Factory.Region; Factory.Dd None ]

let ruby_kinds =
  [ Factory.Glibc; Factory.Hoard; Factory.Tcmalloc; Factory.Dd None ]

let heap_large_pages (machine : Machine.t) =
  machine.Machine.name = "niagara"

(* Cache keys must distinguish allocator *configurations*, not just
   families — the ablations sweep DDmalloc's parameters. *)
let kind_key = function
  | Factory.Dd (Some c) ->
    Printf.sprintf "ddmalloc/%d/%d/%s.%d/%b/%b/%s"
      c.Core.Ddmalloc.segment_size c.Core.Ddmalloc.arena_size
      (Core.Size_class.name c.Core.Ddmalloc.scheme)
      (Core.Size_class.class_count c.Core.Ddmalloc.scheme)
      c.Core.Ddmalloc.pid_metadata_offset c.Core.Ddmalloc.large_pages
      (match c.Core.Ddmalloc.reuse with
      | Core.Ddmalloc.Lifo -> "lifo"
      | Core.Ddmalloc.Fifo -> "fifo"
      | Core.Ddmalloc.Addr_ordered -> "addr")
  | other -> Factory.kind_name other

let store_errors t =
  match t.store with
  | None -> 0
  | Some s ->
    let h = Store.health s in
    h.Store.read_failures + h.Store.write_failures

(* Disk layer: a validated read of one id's measurement, or None.  Any
   store or decode failure is a miss — the caller recomputes and the
   write-behind overwrites the bad entry. *)
let read_store t id =
  match t.store with
  | Some s when not t.refresh -> (
    match Store.find s ~key:(store_key_of_id id) with
    | None -> None
    | Some payload -> (
      match Engine.measurement_of_string payload with
      | Ok m -> Some m
      | Error _ -> None))
  | Some _ | None -> None

(* Write-behind is best-effort: a full disk or read-only store directory
   (or a persistently-injected write fault) must not fail the run that
   just produced a perfectly good result. *)
let write_store s ?kind ~key data =
  try Store.store s ?kind ~key ~data ()
  with Sys_error _ | Unix.Unix_error _ | Fault.Injected _ -> ()

(* Force a key: return the memoized measurement, computing it at most once
   per process.  Concurrent requests for the same id rendezvous on an
   in-flight cell; distinct ids simulate concurrently without holding
   [t.lock] (safe because each Engine.run builds its own Memory,
   Cache_system and RNGs — see lib/runtime/engine.mli).  Lookup order is
   memory hit → disk hit → simulate (+ write-behind); the in-flight
   rendezvous covers the disk read too, so racing requesters cost one
   file read, not several. *)
let rec force t key =
  let id = key.key_id in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.cache id with
  | Some m ->
    Mutex.unlock t.lock;
    m
  | None -> (
    match Hashtbl.find_opt t.inflight id with
    | Some cell ->
      Mutex.unlock t.lock;
      Mutex.lock cell.c_mutex;
      while cell.c_state = `Pending do
        Condition.wait cell.c_cond cell.c_mutex
      done;
      let state = cell.c_state in
      Mutex.unlock cell.c_mutex;
      (match state with
      | `Done m -> m
      | `Failed e -> raise e
      | `Pending -> assert false)
    | None ->
      let cell =
        {
          c_mutex = Mutex.create ();
          c_cond = Condition.create ();
          c_state = `Pending;
        }
      in
      Hashtbl.add t.inflight id cell;
      Mutex.unlock t.lock;
      let outcome, from_disk =
        match read_store t id with
        | Some m -> (`Done m, true)
        | None -> (
          match (try `Done (fill t key) with e -> `Failed e) with
          | `Done m as done_ ->
            (* Serialise only when there is a store to write to. *)
            Option.iter
              (fun s ->
                write_store s ~key:(store_key_of_id id)
                  (Engine.measurement_to_string m))
              t.store;
            (done_, false)
          | `Failed _ as failed -> (failed, false))
      in
      Mutex.lock t.lock;
      Hashtbl.remove t.inflight id;
      (match outcome with
      | `Done m -> (
        Hashtbl.add t.cache id m;
        match (from_disk, key.fill) with
        | true, _ -> t.n_disk_hits <- t.n_disk_hits + 1
        | false, Simulate _ -> t.n_simulated <- t.n_simulated + 1
        | false, Same_as _ -> ())
      | `Failed _ -> ());
      Mutex.unlock t.lock;
      Mutex.lock cell.c_mutex;
      cell.c_state <- outcome;
      Condition.broadcast cell.c_cond;
      Mutex.unlock cell.c_mutex;
      (match outcome with
      | `Done m -> m
      | `Failed e -> raise e
      | `Pending -> assert false))

and fill t key =
  match key.fill with
  | Simulate cfg -> Engine.run cfg
  | Same_as (base, cfg) -> { (force t base) with Engine.cfg }

let php_key t ~machine ~cores ~kind ~spec ?large_pages_override ?scale_override
    () =
  let kind =
    match kind with
    | Factory.Dd None -> dd_kind_for machine
    | other -> other
  in
  let large_pages =
    Option.value large_pages_override ~default:(heap_large_pages machine)
  in
  let scale = Option.value scale_override ~default:t.scale in
  let id =
    {
      k_machine = machine.Machine.name;
      k_cores = cores;
      k_kind = kind_key kind ^ (if large_pages then "+lp" else "");
      k_spec = spec.Spec.name;
      k_restart = None;
      k_large_pages = large_pages;
      k_ruby = false;
      k_measure = 0;
      k_scale = scale;
      k_seed = t.seed;
    }
  in
  let cfg =
    Engine.config ~machine ~active_cores:cores ~kind ~spec ~scale
      ~large_page_heap:large_pages ~seed:t.seed ()
  in
  { key_id = id; fill = Simulate cfg }

(* A restart period no worker reaches is computed from the no-restart
   key's memo entry (fig12's period 250): one simulation fewer, the same
   bytes under the same store key. *)
let rec ruby_key t ~kind ~restart_period ~measure_txns =
  let machine = Machine.xeon in
  let spec = Spec.rails in
  let id =
    {
      k_machine = machine.Machine.name;
      k_cores = 8;
      k_kind = Factory.kind_name kind;
      k_spec = spec.Spec.name;
      k_restart = restart_period;
      k_large_pages = false;
      k_ruby = true;
      k_measure = measure_txns;
      k_scale = t.scale;
      k_seed = t.seed;
    }
  in
  let cfg =
    Engine.config ~machine ~active_cores:8 ~kind ~spec ~scale:t.scale
      ~seed:t.seed ~restart_period ~measure_txns ~processes:4
      ~warmup_txns:(Stdlib.max 8 (measure_txns / 8))
      ~use_bulk_free:false ()
  in
  let fill =
    match Engine.effective_restart_period cfg with
    | None when restart_period <> None ->
      Same_as (ruby_key t ~kind ~restart_period:None ~measure_txns, cfg)
    | Some _ | None -> Simulate cfg
  in
  { key_id = id; fill }

let run_php t ~machine ~cores ~kind ~spec ?large_pages_override () =
  force t (php_key t ~machine ~cores ~kind ~spec ?large_pages_override ())

let run_ruby t ~kind ~restart_period ~measure_txns =
  force t (ruby_key t ~kind ~restart_period ~measure_txns)

let dedup_keys keys =
  let seen = Hashtbl.create (List.length keys) in
  List.filter
    (fun k ->
      if Hashtbl.mem seen k.key_id then false
      else begin
        Hashtbl.add seen k.key_id ();
        true
      end)
    keys

let prefetch t ~jobs keys =
  let keys = dedup_keys keys in
  (* Skip configurations already memoized so repeated prefetches are
     cheap; [force] re-checks under the lock, this is only an early cut.
     One lock acquisition over the whole filter — taking and releasing
     the lock per key serialized against concurrent forces for nothing. *)
  Mutex.lock t.lock;
  let fresh = List.filter (fun k -> not (Hashtbl.mem t.cache k.key_id)) keys in
  Mutex.unlock t.lock;
  ignore
    (Pool.run ~jobs (List.map (fun k () -> ignore (force t k)) fresh) : unit list)

(* --- derived-artifact blobs ------------------------------------------ *)

let blob_computed t =
  Mutex.lock t.lock;
  let n = t.n_blob_computed in
  Mutex.unlock t.lock;
  n

let blob_disk_hits t =
  Mutex.lock t.lock;
  let n = t.n_blob_disk_hits in
  Mutex.unlock t.lock;
  n

(* Same lookup discipline as [force] — memory hit → disk hit → compute,
   with best-effort write-behind — but for opaque derived payloads (serve
   sweeps).  [valid] guards the disk path: a stored payload the caller's
   codec rejects is a miss, so blobs self-heal exactly like
   measurements.  No in-flight rendezvous: blobs are computed by
   sequential render passes, and the only cost of a rare race is one
   duplicate computation of a cheap artifact. *)
let force_blob t ~kind ~key ~valid ~compute =
  let ck = (kind, key) in
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.blob_cache ck with
  | Some payload ->
    Mutex.unlock t.lock;
    payload
  | None ->
    Mutex.unlock t.lock;
    let from_store =
      match t.store with
      | Some s when not t.refresh -> (
        match Store.find s ~key with
        | Some payload when valid payload -> Some payload
        | Some _ | None -> None)
      | Some _ | None -> None
    in
    let payload, from_disk =
      match from_store with
      | Some p -> (p, true)
      | None ->
        let p = compute () in
        Option.iter (fun s -> write_store s ~kind ~key p) t.store;
        (p, false)
    in
    Mutex.lock t.lock;
    if not (Hashtbl.mem t.blob_cache ck) then begin
      Hashtbl.add t.blob_cache ck payload;
      if from_disk then t.n_blob_disk_hits <- t.n_blob_disk_hits + 1
      else t.n_blob_computed <- t.n_blob_computed + 1
    end;
    Mutex.unlock t.lock;
    payload

let mgmt_fraction (m : Engine.measurement) =
  let p = m.Engine.perf in
  p.Perf.breakdown.Perf.mgmt_cycles /. p.Perf.cycles_per_txn

let delta_pct v baseline = (v -. baseline) /. baseline *. 100.0
