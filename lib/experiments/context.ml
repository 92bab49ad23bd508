module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Perf = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec
module Pool = Mm_sched.Pool
module Store = Mm_store.Store
module Fault = Mm_fault.Fault

(* A planned configuration.  [name] is {!make_key}'s rendering of [cfg],
   rendered once: it is the memo identity, the in-flight identity and the
   store key. *)
type key = {
  name : string;
  stream : string;
      (* The effective config's [name] without the core count, plus the
         process count: two planned keys have equal [stream]s exactly
         when their configs share a stream (Engine.shares_stream), since
         [name] determines the config. *)
  cfg : Engine.config;
}

(* One computation in flight.  Late requesters for the same name wait on
   [cond] (under [t.lock]) instead of recomputing. *)
type 'a cell = {
  cond : Condition.t;
  mutable state : [ `Pending | `Done of 'a | `Failed of exn | `Released ];
      (* [`Released]: claimed with another key that turned out to need
         no computation; a waiter starts its own request over. *)
}

(* One memo layer: finished values, in-flight cells and the counters of
   where finished values came from. *)
type 'a memo = {
  table : (string, 'a) Hashtbl.t;
  inflight : (string, 'a cell) Hashtbl.t;
  unwritten : (string, unit) Hashtbl.t;
      (* computed for another key's request and not yet written behind:
         the first request for the key itself writes it *)
  mutable computed : int;
  mutable disk_hits : int;
}

type t = {
  scale : float;
  seed : int;
  store : Store.t option;  (* read-through / write-behind disk layer *)
  refresh : bool;  (* skip store reads (still write) — force recompute *)
  lock : Mutex.t;  (* guards both memos and [planned] *)
  measurements : Engine.measurement memo;
  blobs : string memo;  (* derived payloads (serve sweeps), by key *)
  planned : (string, key list) Hashtbl.t;
      (* simulated keys built on this context, by [stream] *)
}

let memo () =
  { table = Hashtbl.create 64; inflight = Hashtbl.create 8;
    unwritten = Hashtbl.create 8; computed = 0; disk_hits = 0 }

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
    planned = Hashtbl.create 64;
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
   the config, split around the core count: [machine=...;cores=N;] and
   the rest.  The scale is printed with %h so two scales that differ in
   any bit get distinct keys.  The fields it leaves out are determined by
   the ones it has (DESIGN.md §9): a PHP key's transaction counts follow
   from machine and cores, so it prints [measure=0]; a Ruby key
   ([use_bulk_free] off) fixes its processes and derives its warm-up from
   [measure]. *)
let rest_of_config (c : Engine.config) =
  let ruby = not c.Engine.use_bulk_free in
  Printf.sprintf
    "kind=%s%s;spec=%s;restart=%s;large_pages=%b;ruby=%b;measure=%d;scale=%h;seed=%d"
    (kind_key c.Engine.kind)
    (if c.Engine.large_page_heap then "+lp" else "")
    c.Engine.spec.Spec.name
    (match c.Engine.restart_period with
    | None -> "none"
    | Some p -> string_of_int p)
    c.Engine.large_page_heap ruby
    (if ruby then c.Engine.measure_txns else 0)
    c.Engine.scale c.Engine.seed

let make_key (cfg : Engine.config) =
  let machine = "machine=" ^ cfg.Engine.machine.Machine.name ^ ";" in
  let rest = rest_of_config cfg in
  (* Rendering is most of a key's cost (a warm render builds ~700), so
     an already-effective config reuses [rest]. *)
  let effective = Engine.effective cfg in
  {
    name =
      String.concat ""
        [ machine; "cores="; string_of_int cfg.Engine.active_cores; ";"; rest ];
    stream =
      String.concat ""
        [ machine;
          (if effective == cfg then rest else rest_of_config effective);
          ";procs="; string_of_int (Engine.effective_processes cfg) ];
    cfg;
  }

(* Planning a key declares that the caller will force it, which lets the
   first force of any key of a stream group simulate the group's other
   planned members in the same pass. *)
let plan t k =
  Mutex.lock t.lock;
  let ks = Option.value (Hashtbl.find_opt t.planned k.stream) ~default:[] in
  if not (List.exists (fun k' -> String.equal k'.name k.name) ks) then
    Hashtbl.replace t.planned k.stream (ks @ [ k ]);
  Mutex.unlock t.lock;
  k

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


(* The one memo path, for measurements and blobs alike: return the value
   under [key], computing it at most once per process.  Lookup order is
   memory hit → disk hit ([decode] of the stored payload; [None], like
   any store failure, is a miss) → [compute] with write-behind of
   [encode]d bytes.

   On a miss, [key] and the items of [others ()] — further items the same
   computation produces (called under the lock) — that are neither
   memoised nor in flight are claimed together, so a concurrent request
   for any of them waits for this one.  If [key] is on disk, the others
   are released untouched.  Otherwise each other is looked up on disk
   and one [compute] call gets [key] and the items that missed, in claim
   order, and returns their values in that order.  A request writes
   behind only the entry it returns: another computed item is written by
   the first request for it, so each fsync'd write lands in its own
   item's request.  An exception fails every cell the computation owed.
   Distinct items proceed concurrently without holding [t.lock] (safe
   because each simulation builds its own Memory, Cache_system and RNGs —
   see lib/runtime/engine.mli).  [compute] also returns how many distinct
   computations it made, which is what [computed] counts. *)
let rec memoize t memo ?kind ?(others = fun () -> []) ~name ~decode ~encode
    ~compute key =
  let write n v =
    (* Serialise only when there is a store to write to. *)
    Option.iter (fun s -> write_store s ?kind ~key:n (encode v)) t.store
  in
  (* Under the lock: the value of a finished item, with its deferred
     write taken by this request. *)
  let finished n v =
    let deferred =
      Hashtbl.length memo.unwritten > 0 && Hashtbl.mem memo.unwritten n
    in
    if deferred then Hashtbl.remove memo.unwritten n;
    Mutex.unlock t.lock;
    if deferred then write n v;
    v
  in
  let read n =
    match t.store with
    | Some s when not t.refresh -> Option.bind (Store.find s ~key:n) decode
    | Some _ | None -> None
  in
  let n = name key in
  Mutex.lock t.lock;
  match Hashtbl.find_opt memo.table n with
  | Some v -> finished n v
  | None -> (
    match Hashtbl.find_opt memo.inflight n with
    | Some cell -> (
      while cell.state = `Pending do
        Condition.wait cell.cond t.lock
      done;
      match cell.state with
      | `Done v -> finished n v
      | `Failed e ->
        Mutex.unlock t.lock;
        raise e
      | `Released | `Pending ->
        Mutex.unlock t.lock;
        memoize t memo ?kind ~others ~name ~decode ~encode ~compute key)
    | None ->
      let claim k =
        let cell = { cond = Condition.create (); state = `Pending } in
        Hashtbl.add memo.inflight (name k) cell;
        (k, cell)
      in
      let unresolved k =
        let n = name k in
        not (Hashtbl.mem memo.table n || Hashtbl.mem memo.inflight n)
      in
      let mine = claim key in
      let siblings = List.map claim (List.filter unresolved (others ())) in
      Mutex.unlock t.lock;
      (* Publish each claimed item's outcome (its new state and whether
         its value came from disk) and the number of computations made. *)
      let settle_all (computations, outcomes) =
        Mutex.lock t.lock;
        memo.computed <- memo.computed + computations;
        List.iter
          (fun ((k, cell), state, from_disk) ->
            let n' = name k in
            Hashtbl.remove memo.inflight n';
            (match state with
            | `Done v ->
              Hashtbl.add memo.table n' v;
              if from_disk then memo.disk_hits <- memo.disk_hits + 1
              else if n' <> n && Option.is_some t.store then
                Hashtbl.replace memo.unwritten n' ()
            | `Failed _ | `Released | `Pending -> ());
            cell.state <- state;
            Condition.broadcast cell.cond)
          outcomes;
        Mutex.unlock t.lock
      in
      let outcomes =
        match read n with
        | Some v ->
          ( 0,
            (mine, `Done v, true)
            :: List.map (fun c -> (c, `Released, false)) siblings )
        | None -> (
          let on_disk, missing =
            List.partition_map
              (fun c ->
                match read (name (fst c)) with
                | Some v -> Either.Left (c, `Done v, true)
                | None -> Either.Right c)
              siblings
          in
          let missing = mine :: missing in
          match compute (List.map fst missing) with
          | computations, vs ->
            let v = List.hd vs in
            write n v;
            ( computations,
              on_disk @ List.map2 (fun c v -> (c, `Done v, false)) missing vs )
          | exception e ->
            (0, on_disk @ List.map (fun c -> (c, `Failed e, false)) missing))
      in
      settle_all outcomes;
      match (snd mine).state with
      | `Done v -> v
      | `Failed e -> raise e
      | `Released | `Pending -> assert false)

(* A key claims its planned stream siblings: one [Engine.run_group] then
   produces every member that missed disk, and counts as one simulation
   per distinct effective configuration among them. *)
let force t key =
  (* [key] itself is already claimed when [memoize] filters these. *)
  let others () =
    Option.value (Hashtbl.find_opt t.planned key.stream) ~default:[]
  in
  let compute ks =
    let cfgs = List.map (fun k -> k.cfg) ks in
    ( List.length (List.sort_uniq compare (List.map Engine.effective cfgs)),
      Engine.run_group cfgs )
  in
  memoize t t.measurements ~others ~name:(fun k -> k.name)
    ~decode:(fun p -> Result.to_option (Engine.measurement_of_string p))
    ~encode:Engine.measurement_to_string ~compute key

(* Blobs self-heal exactly like measurements: a stored payload the
   caller's codec rejects is a miss. *)
let force_blob t ~kind ~key ~valid ~compute =
  memoize t t.blobs ~kind ~name:Fun.id
    ~decode:(fun p -> if valid p then Some p else None)
    ~encode:Fun.id
    ~compute:(fun _ -> (1, [ compute () ]))
    key

let php_key t ~machine ~cores ~kind ~spec ?large_pages_override ?scale_override
    () =
  let kind =
    match kind with
    | Factory.Dd None -> dd_kind_for machine
    | other -> other
  in
  plan t
    (make_key
       (Engine.config ~machine ~active_cores:cores ~kind ~spec
          ~scale:(Option.value scale_override ~default:t.scale)
          ~large_page_heap:
            (Option.value large_pages_override
               ~default:(heap_large_pages machine))
          ~seed:t.seed ()))

let ruby_key t ~kind ~restart_period ~measure_txns =
  plan t
    (make_key
       (Engine.config ~machine:Machine.xeon ~active_cores:8 ~kind
          ~spec:Spec.rails ~scale:t.scale ~seed:t.seed ~restart_period
          ~measure_txns ~processes:4
          ~warmup_txns:(Stdlib.max 8 (measure_txns / 8))
          ~use_bulk_free:false ()))

let run_php t ~machine ~cores ~kind ~spec ?large_pages_override () =
  force t (php_key t ~machine ~cores ~kind ~spec ?large_pages_override ())

let run_ruby t ~kind ~restart_period ~measure_txns =
  force t (ruby_key t ~kind ~restart_period ~measure_txns)

(* One task per stream bucket, so no domain blocks on a cell another
   task's simulation owes; a duplicate or memoised key is a memory hit
   inside [force]. *)
let prefetch t ~jobs keys =
  let tasks = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun k ->
      match Hashtbl.find_opt tasks k.stream with
      | Some ks -> ks := k :: !ks
      | None ->
        let ks = ref [ k ] in
        Hashtbl.add tasks k.stream ks;
        order := ks :: !order)
    keys;
  ignore
    (Pool.map ~jobs
       (fun ks -> List.iter (fun k -> ignore (force t k)) (List.rev !ks))
       (List.rev !order)
      : unit list)

let mgmt_fraction (m : Engine.measurement) =
  let p = m.Engine.perf in
  p.Perf.breakdown.Perf.mgmt_cycles /. p.Perf.cycles_per_txn

let delta_pct v baseline = (v -. baseline) /. baseline *. 100.0
