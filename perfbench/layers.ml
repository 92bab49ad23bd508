(* Layer probes: each drives one layer through its public API from the
   outside and reports cost per unit of work.  Nothing here is on the
   timed path of an end-to-end pass; the traced run calls these after its
   passes. *)

open Util
module Memory = Mm_memsim.Memory
module Access = Mm_memsim.Access
module Machine = Mm_cachesim.Machine
module Cache_system = Mm_cachesim.Cache_system
module Perf_model = Mm_cachesim.Perf_model
module Engine = Mm_runtime.Engine
module Process = Mm_runtime.Process
module Factory = Mm_runtime.Alloc_factory
module Spec = Mm_workload.Spec
module Allocator = Core.Allocator
module Store = Mm_store.Store
module Sweep = Mm_serve.Sweep

(* --- simulation split: generator + allocator vs the cache hierarchy ---

   One worker process steps through [txns] transactions on its own
   memory, four times with identical inputs: with no observers (workload
   generator + allocator + simulated memory only), with the cache
   hierarchy attached but the instruction-fetch observer reset to a no-op
   (adds the data path), fully attached (adds the I-cache path), and with
   counting observers that give the exact number of data line
   references and code fetches.  Differences of the first three divided
   by those counts are the per-unit costs. *)

type variant = Bare | Data_only | Full | Counting

type counts = {
  mutable line_refs : int;
  mutable fetches : int;
}

type split_run = {
  seconds : float;
  minor_words : float;
  mallocs : int;
  counts : counts;
}

let line_shift = 6 (* Machine.line_size: 64 B on both machines *)

let split_once variant ~kind ~spec ~use_bulk_free ~seed ~txns =
  let mem = Memory.create () in
  let os = Mm_memsim.Os_layer.create mem in
  let counts = { line_refs = 0; fetches = 0 } in
  (match variant with
  | Bare -> ()
  | Data_only | Full ->
    let cs =
      Cache_system.create ~machine:Machine.xeon ~active_cores:8
        ~large_page_heap:false
    in
    Cache_system.attach cs mem;
    if variant = Data_only then Memory.set_code_observer mem (fun _ _ -> ())
  | Counting ->
    Memory.set_access_observer mem (fun _ _ addr bytes ->
        counts.line_refs <-
          counts.line_refs
          + ((addr + bytes - 1) lsr line_shift)
          - (addr lsr line_shift)
          + 1);
    Memory.set_code_observer mem (fun _ _ ->
        counts.fetches <- counts.fetches + 1));
  Memory.set_context mem Access.Mgmt;
  let p = Process.create ~kind ~os ~mem ~spec ~pid:0 ~seed ~use_bulk_free in
  Memory.set_context mem Access.App;
  let minor0 = Gc.minor_words () in
  let t0 = now () in
  let finished = ref 0 in
  while !finished < txns do
    if Process.step p ~ops:spec.Spec.mallocs then incr finished
  done;
  let seconds = now () -. t0 in
  {
    seconds;
    minor_words = Gc.minor_words () -. minor0;
    mallocs = (Process.handle p).Allocator.h_stats.Allocator.mallocs;
    counts;
  }

(* The allocators of the two runtimes, named as in the metric suffixes. *)
let php_allocs =
  [ ("php-default", Factory.Php_default); ("region", Factory.Region);
    ("ddmalloc", Factory.Dd None) ]

let ruby_allocs =
  [ ("ruby-glibc", Factory.Glibc); ("ruby-hoard", Factory.Hoard);
    ("ruby-tcmalloc", Factory.Tcmalloc); ("ruby-ddmalloc", Factory.Dd None) ]

let split_layer =
  [ ("workload_alloc.ns_per_malloc", "ns");
    ("workload_alloc.minor_words_per_malloc", "words");
    ("cachesim.data.ns_per_line_ref", "ns"); ("cachesim.code.ns_per_fetch", "ns");
    ("cachesim.share", "ratio") ]

(* Metrics for one allocator; [None] emits zeros for an allocator the
   workload does not run. *)
let split_metrics label result =
  let layer = List.map (fun (n, u) -> (n ^ "." ^ label, u)) split_layer in
  match result with
  | None -> zeros layer
  | Some (bare, data, full, cnt) ->
    let ns s n = ratio (s *. 1e9) (float_of_int n) in
    named layer
      [
        ns bare.seconds bare.mallocs;
        ratio bare.minor_words (float_of_int bare.mallocs);
        ns (data.seconds -. bare.seconds) cnt.counts.line_refs;
        ns (full.seconds -. data.seconds) cnt.counts.fetches;
        ratio (full.seconds -. bare.seconds) full.seconds;
      ]

(* Each timed variant runs [rounds] times, interleaved so a drift in host
   speed hits all three alike, and keeps its fastest run. *)
let split ~allocs ~spec ~scale ~use_bulk_free ~seed ~txns ~rounds =
  let spec = Spec.scaled spec ~scale in
  List.map
    (fun (label, kind) ->
      let run v = split_once v ~kind ~spec ~use_bulk_free ~seed ~txns in
      (* Untimed: the first pass of a process pays lazy set-up and heap
         growth that later identical passes do not. *)
      ignore (run Full : split_run);
      let runs =
        List.init rounds (fun _ -> List.map run [ Bare; Data_only; Full ])
      in
      let fastest i =
        List.fold_left
          (fun best r ->
            let r = List.nth r i in
            if r.seconds < best.seconds then r else best)
          (List.nth (List.hd runs) i)
          runs
      in
      let bare = fastest 0 and data = fastest 1 and full = fastest 2 in
      let cnt = run Counting in
      (* Identical inputs, and observers cannot change allocator
         behaviour: every run must simulate the same mallocs. *)
      let same =
        List.for_all
          (fun r -> r.mallocs = bare.mallocs)
          (cnt :: List.concat runs)
      in
      (label, (bare, data, full, cnt), same))
    allocs

(* --- per-configuration set-up of Engine.run -------------------------

   Everything [Engine.run] builds before its first [Process.step]: the
   simulated memory, the cache hierarchy and one process per simulated
   worker.  Its share of [Context.force] time shows whether a cold pass
   measures stepping or set-up at the scale it runs. *)

let setup_seconds (cfg : Engine.config) =
  let spec = Spec.scaled cfg.Engine.spec ~scale:cfg.Engine.scale in
  let (), dt =
    time (fun () ->
        let mem = Memory.create () in
        let os = Mm_memsim.Os_layer.create mem in
        let cs =
          Cache_system.create ~machine:cfg.Engine.machine
            ~active_cores:cfg.Engine.active_cores
            ~large_page_heap:cfg.Engine.large_page_heap
        in
        Cache_system.attach cs mem;
        (* As many workers as Engine.run simulates: at most 8. *)
        let procs =
          match cfg.Engine.processes with
          | Some p -> p
          | None ->
            Stdlib.min 8
              (Machine.processes_per_core cfg.Engine.machine
                 ~active_cores:cfg.Engine.active_cores)
        in
        Memory.set_context mem Access.Mgmt;
        for pid = 0 to procs - 1 do
          ignore
            (Process.create ~kind:cfg.Engine.kind ~os ~mem ~spec ~pid
               ~seed:cfg.Engine.seed ~use_bulk_free:cfg.Engine.use_bulk_free
              : Process.t)
        done)
  in
  dt

(* --- codecs, store reads, the performance model ---------------------- *)

(* Median host microseconds per call of [f] over [items], each timed as a
   batch of [reps] calls so the clock's resolution does not dominate. *)
let us_per_call ~reps f items =
  median
    (List.map
       (fun x ->
         let (), dt =
           time (fun () ->
               for _ = 1 to reps do
                 ignore (Sys.opaque_identity (f x))
               done)
         in
         dt *. 1e6 /. float_of_int reps)
       items)

let measurement_codec ms =
  let payloads = List.map Engine.measurement_to_string ms in
  (* Byte equality of the re-encoding: robust to NaN fields, and it is
     what makes store-served renders byte-identical. *)
  let roundtrip =
    List.for_all
      (fun p ->
        match Engine.measurement_of_string p with
        | Ok m -> Engine.measurement_to_string m = p
        | Error _ -> false)
      payloads
  in
  ( us_per_call ~reps:20 Engine.measurement_to_string ms,
    us_per_call ~reps:20 Engine.measurement_of_string payloads,
    roundtrip )

let sweep_codec sweeps =
  let payloads = List.map Sweep.points_to_string sweeps in
  let roundtrip =
    List.for_all
      (fun p ->
        match Sweep.points_of_string p with
        | Ok s -> Sweep.points_to_string s = p
        | Error _ -> false)
      payloads
  in
  ( us_per_call ~reps:50 Sweep.points_to_string sweeps,
    us_per_call ~reps:50 Sweep.points_of_string payloads,
    roundtrip )

type reads = {
  read_us : float list;
  hits : int;
  entry_bytes : int list;
}

(* Time one [Store.find] per key; count validated hits and the size of
   each entry file as it sits on disk. *)
let store_reads store keys =
  let read_us, hits, entry_bytes =
    List.fold_left
      (fun (us, hits, bytes) key ->
        let found, dt = time (fun () -> Store.find store ~key) in
        let size =
          match Unix.stat (Store.entry_path store ~key) with
          | st -> [ st.Unix.st_size ]
          | exception Unix.Unix_error _ -> []
        in
        ( (dt *. 1e6) :: us,
          (if Option.is_some found then hits + 1 else hits),
          size @ bytes ))
      ([], 0, []) keys
  in
  { read_us; hits; entry_bytes }

(* [Perf_model.solve] at every active-core count of each measurement's
   machine, the way [Mm_serve.Contention] tabulates it. *)
let perf_model_solve_us ms =
  let calls =
    List.concat_map
      (fun (m : Engine.measurement) ->
        let machine = m.Engine.cfg.Engine.machine in
        List.init machine.Machine.cores (fun i -> (m, i + 1)))
      ms
  in
  us_per_call ~reps:20
    (fun ((m : Engine.measurement), cores) ->
      Perf_model.solve ~machine:m.Engine.cfg.Engine.machine ~active_cores:cores
        ~events:m.Engine.events ~txns:m.Engine.txns)
    calls
