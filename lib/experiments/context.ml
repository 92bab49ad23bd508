module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Perf = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec
module Pool = Mm_sched.Pool
module Store = Mm_store.Store
module Fault = Mm_fault.Fault

(* A planned configuration.  [name] is {!store_key_of_config} of [cfg],
   rendered once: it is the memo identity, the in-flight identity and the
   store key. *)
type key = {
  name : string;
  cfg : Engine.config;
  base : key option;
      (* [Some b]: a configuration that provably behaves like [b]; its
         measurement is [b]'s with [cfg] relabelled, not a simulation. *)
}

(* One computation in flight.  Late requesters for the same name wait on
   [cond] (under [t.lock]) instead of recomputing. *)
type 'a cell = {
  cond : Condition.t;
  mutable state : [ `Pending | `Done of 'a | `Failed of exn ];
}

(* One memo layer: finished values, in-flight cells and the counters of
   where finished values came from. *)
type 'a memo = {
  table : (string, 'a) Hashtbl.t;
  inflight : (string, 'a cell) Hashtbl.t;
  mutable computed : int;
  mutable disk_hits : int;
}

type t = {
  scale : float;
  seed : int;
  store : Store.t option;  (* read-through / write-behind disk layer *)
  refresh : bool;  (* skip store reads (still write) — force recompute *)
  lock : Mutex.t;  (* guards both memos *)
  measurements : Engine.measurement memo;
  blobs : string memo;  (* derived payloads (serve sweeps), by key *)
}

let memo () =
  { table = Hashtbl.create 64; inflight = Hashtbl.create 8; computed = 0;
    disk_hits = 0 }

let create ?(scale = 0.25) ?(seed = 42) ?store ?(refresh = false) () =
  assert (scale > 0.0 && scale <= 1.0);
  {
    scale;
    seed;
    store;
    refresh;
    lock = Mutex.create ();
    measurements = memo ();
    blobs = memo ();
  }

let scale t = t.scale

let seed t = t.seed

let store t = t.store

let counter t f =
  Mutex.lock t.lock;
  let n = f t in
  Mutex.unlock t.lock;
  n

let simulated t = counter t (fun t -> t.measurements.computed)

let disk_hits t = counter t (fun t -> t.measurements.disk_hits)

let blob_computed t = counter t (fun t -> t.blobs.computed)

let blob_disk_hits t = counter t (fun t -> t.blobs.disk_hits)

let store_errors t =
  match t.store with
  | None -> 0
  | Some s ->
    let h = Store.health s in
    h.Store.read_failures + h.Store.write_failures

(* Cache keys must distinguish allocator *configurations*, not just
   families — the ablations sweep DDmalloc's parameters. *)
let kind_key = function
  | Factory.Dd (Some c) ->
    Printf.sprintf "ddmalloc/%d/%d/%s.%d/%b/%b/%s"
      c.Core.Ddmalloc.segment_size c.Core.Ddmalloc.arena_size
      (Core.Size_class.name c.Core.Ddmalloc.scheme)
      (Core.Size_class.class_count c.Core.Ddmalloc.scheme)
      c.Core.Ddmalloc.pid_metadata_offset c.Core.Ddmalloc.large_pages
      (Core.Ddmalloc.reuse_name c.Core.Ddmalloc.reuse)
  | other -> Factory.kind_name other

(* The canonical string the persistent store digests, a pure function of
   the config.  The scale is printed with %h so two scales that differ in
   any bit get distinct keys.  The fields it leaves out are determined by
   the ones it has (DESIGN.md §9): a PHP key's transaction counts follow
   from machine and cores, so it prints [measure=0]; a Ruby key
   ([use_bulk_free] off) fixes its processes and derives its warm-up from
   [measure]. *)
let store_key_of_config (c : Engine.config) =
  let ruby = not c.Engine.use_bulk_free in
  Printf.sprintf
    "machine=%s;cores=%d;kind=%s%s;spec=%s;restart=%s;large_pages=%b;ruby=%b;measure=%d;scale=%h;seed=%d"
    c.Engine.machine.Machine.name c.Engine.active_cores (kind_key c.Engine.kind)
    (if c.Engine.large_page_heap then "+lp" else "")
    c.Engine.spec.Spec.name
    (match c.Engine.restart_period with
    | None -> "none"
    | Some p -> string_of_int p)
    c.Engine.large_page_heap ruby
    (if ruby then c.Engine.measure_txns else 0)
    c.Engine.scale c.Engine.seed

let make_key ?base cfg = { name = store_key_of_config cfg; cfg; base }

let key_name k = k.name

let store_key k = k.name

let config k = k.cfg

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

(* Write-behind is best-effort: a full disk or read-only store directory
   (or a persistently-injected write fault) must not fail the run that
   just produced a perfectly good result. *)
let write_store s ?kind ~key data =
  try Store.store s ?kind ~key ~data ()
  with Sys_error _ | Unix.Unix_error _ | Fault.Injected _ -> ()

let result = function
  | `Done v -> v
  | `Failed e -> raise e
  | `Pending -> assert false

(* The one memo path, for measurements and blobs alike: return the value
   under [key], computing it at most once per process.  Lookup order is
   memory hit → disk hit ([decode] of the stored payload; [None], like
   any store failure, is a miss) → [compute] with write-behind of
   [encode]d bytes.  Concurrent requests for one key rendezvous on an
   in-flight cell that covers the disk read too, so racing requesters
   cost one file read or one computation; distinct keys proceed
   concurrently without holding [t.lock] (safe because each Engine.run
   builds its own Memory, Cache_system and RNGs — see
   lib/runtime/engine.mli).  A fresh value counts as computed only when
   [counted]. *)
let memoize t memo ?kind ~key ~decode ~encode ~counted compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt memo.table key with
  | Some v ->
    Mutex.unlock t.lock;
    v
  | None -> (
    match Hashtbl.find_opt memo.inflight key with
    | Some cell ->
      while cell.state = `Pending do
        Condition.wait cell.cond t.lock
      done;
      Mutex.unlock t.lock;
      result cell.state
    | None ->
      let cell = { cond = Condition.create (); state = `Pending } in
      Hashtbl.add memo.inflight key cell;
      Mutex.unlock t.lock;
      let from_disk =
        match t.store with
        | Some s when not t.refresh -> Option.bind (Store.find s ~key) decode
        | Some _ | None -> None
      in
      let state =
        match from_disk with
        | Some v -> `Done v
        | None -> (
          match compute () with
          | v ->
            (* Serialise only when there is a store to write to. *)
            Option.iter (fun s -> write_store s ?kind ~key (encode v)) t.store;
            `Done v
          | exception e -> `Failed e)
      in
      Mutex.lock t.lock;
      Hashtbl.remove memo.inflight key;
      (match state with
      | `Done v ->
        Hashtbl.add memo.table key v;
        if Option.is_some from_disk then memo.disk_hits <- memo.disk_hits + 1
        else if counted then memo.computed <- memo.computed + 1
      | `Failed _ -> ());
      cell.state <- state;
      Condition.broadcast cell.cond;
      Mutex.unlock t.lock;
      result state)

let rec force t key =
  memoize t t.measurements ~key:key.name
    ~decode:(fun p -> Result.to_option (Engine.measurement_of_string p))
    ~encode:Engine.measurement_to_string ~counted:(Option.is_none key.base)
    (fun () ->
      match key.base with
      | None -> Engine.run key.cfg
      | Some base -> { (force t base) with Engine.cfg = key.cfg })

(* Blobs self-heal exactly like measurements: a stored payload the
   caller's codec rejects is a miss. *)
let force_blob t ~kind ~key ~valid ~compute =
  memoize t t.blobs ~kind ~key
    ~decode:(fun p -> if valid p then Some p else None)
    ~encode:Fun.id ~counted:true compute

let php_key t ~machine ~cores ~kind ~spec ?large_pages_override ?scale_override
    () =
  let kind =
    match kind with
    | Factory.Dd None -> dd_kind_for machine
    | other -> other
  in
  make_key
    (Engine.config ~machine ~active_cores:cores ~kind ~spec
       ~scale:(Option.value scale_override ~default:t.scale)
       ~large_page_heap:
         (Option.value large_pages_override
            ~default:(heap_large_pages machine))
       ~seed:t.seed ())

(* A restart period no worker reaches is computed from the no-restart
   key's memo entry (fig12's period 250): one simulation fewer, the same
   bytes under the same store key. *)
let rec ruby_key t ~kind ~restart_period ~measure_txns =
  let cfg =
    Engine.config ~machine:Machine.xeon ~active_cores:8 ~kind ~spec:Spec.rails
      ~scale:t.scale ~seed:t.seed ~restart_period ~measure_txns ~processes:4
      ~warmup_txns:(Stdlib.max 8 (measure_txns / 8))
      ~use_bulk_free:false ()
  in
  match Engine.effective_restart_period cfg with
  | None when restart_period <> None ->
    make_key ~base:(ruby_key t ~kind ~restart_period:None ~measure_txns) cfg
  | Some _ | None -> make_key cfg

let run_php t ~machine ~cores ~kind ~spec ?large_pages_override () =
  force t (php_key t ~machine ~cores ~kind ~spec ?large_pages_override ())

let run_ruby t ~kind ~restart_period ~measure_txns =
  force t (ruby_key t ~kind ~restart_period ~measure_txns)

let prefetch t ~jobs keys =
  (* Collapse duplicates and skip configurations already memoized, so
     repeated prefetches are cheap; [force] re-checks under the lock,
     this is only an early cut.  One lock acquisition over the whole
     filter — taking and releasing the lock per key serialized against
     concurrent forces for nothing. *)
  let seen = Hashtbl.create (List.length keys) in
  Mutex.lock t.lock;
  let fresh =
    List.filter
      (fun k ->
        if Hashtbl.mem seen k.name || Hashtbl.mem t.measurements.table k.name
        then false
        else begin
          Hashtbl.add seen k.name ();
          true
        end)
      keys
  in
  Mutex.unlock t.lock;
  ignore
    (Pool.run ~jobs (List.map (fun k () -> ignore (force t k)) fresh) : unit list)

let mgmt_fraction (m : Engine.measurement) =
  let p = m.Engine.perf in
  p.Perf.breakdown.Perf.mgmt_cycles /. p.Perf.cycles_per_txn

let delta_pct v baseline = (v -. baseline) /. baseline *. 100.0
