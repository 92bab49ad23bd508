module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer
module Machine = Mm_cachesim.Machine
module Cache_system = Mm_cachesim.Cache_system
module Events = Mm_cachesim.Events
module Perf_model = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec

type config = {
  machine : Machine.t;
  active_cores : int;
  kind : Alloc_factory.kind;
  spec : Spec.t;
  scale : float;
  warmup_txns : int;
  measure_txns : int;
  large_page_heap : bool;
  seed : int;
  restart_period : int option;
  use_bulk_free : bool;
  processes : int option;
}

(* Beyond this many multiplexed processes the marginal cache interference
   is negligible (working sets already far exceed the caches), so we cap
   what we simulate; throughput scaling is unaffected. *)
let max_simulated_processes = 8

let effective_processes cfg =
  match cfg.processes with
  | Some p -> p
  | None ->
    Stdlib.min max_simulated_processes
      (Machine.processes_per_core cfg.machine ~active_cores:cfg.active_cores)

let config ~machine ~active_cores ~kind ~spec ?(scale = 1.0) ?warmup_txns
    ?measure_txns ?(large_page_heap = false) ?(seed = 42)
    ?(restart_period = None) ?(use_bulk_free = true) ?processes () =
  let tmp =
    {
      machine;
      active_cores;
      kind;
      spec;
      scale;
      warmup_txns = 0;
      measure_txns = 0;
      large_page_heap;
      seed;
      restart_period;
      use_bulk_free;
      processes;
    }
  in
  let procs = effective_processes tmp in
  let warmup = Option.value warmup_txns ~default:(Stdlib.max procs 4) in
  let measure =
    Option.value measure_txns
      ~default:(Stdlib.min 24 (Stdlib.max (2 * procs) 12))
  in
  { tmp with warmup_txns = warmup; measure_txns = measure }

let max_txns_per_process cfg =
  let p = effective_processes cfg in
  (cfg.warmup_txns + cfg.measure_txns + p - 1) / p

let effective_restart_period cfg =
  match cfg.restart_period with
  | Some k when k > max_txns_per_process cfg -> None
  | period -> period

let effective cfg =
  if effective_restart_period cfg = cfg.restart_period then cfg
  else { cfg with restart_period = None }

type measurement = {
  cfg : config;
  events : Events.t;
  txns : int;
  perf : Perf_model.result;
  throughput : float;
  consumption : Mm_stats.Summary.t;
  mallocs_per_txn : float;
  frees_per_txn : float;
  reallocs_per_txn : float;
  mean_alloc_size : float;
}

let context_switch_kernel_instr = 3_000

let reset_handle_stats (h : Core.Allocator.handle) =
  let s = h.Core.Allocator.h_stats in
  s.Core.Allocator.mallocs <- 0;
  s.Core.Allocator.frees <- 0;
  s.Core.Allocator.reallocs <- 0;
  s.Core.Allocator.free_alls <- 0;
  s.Core.Allocator.bytes_requested <- 0;
  h.Core.Allocator.h_reset_peak ()

(* Effective configurations equal in every field but [active_cores], and
   the same process count: the core count then changes only the L2 share,
   so the stream of references the generator and the allocators produce
   is the same. *)
let shares_stream a b =
  effective_processes a = effective_processes b
  && { (effective a) with active_cores = b.active_cores } = effective b

let run_group cfgs =
  let cfg =
    match cfgs with
    | [] -> invalid_arg "Engine.run_group: no configuration"
    | cfg :: _ -> cfg
  in
  if not (List.for_all (shares_stream cfg) cfgs) then
    invalid_arg "Engine.run_group: configurations do not share a stream";
  assert (cfg.scale > 0.0 && cfg.scale <= 1.0);
  let spec = Spec.scaled cfg.spec ~scale:cfg.scale in
  let mem = Memory.create () in
  let os = Os.create mem in
  let cs =
    Cache_system.create_group ~machine:cfg.machine
      ~active_cores:(List.map (fun c -> c.active_cores) cfgs)
      ~large_page_heap:cfg.large_page_heap
  in
  Cache_system.attach cs mem;
  let nprocs = effective_processes cfg in
  let fine_grained = cfg.machine.Machine.threads_per_core > 1 in
  let slice = if fine_grained then 6 else spec.Spec.mallocs in
  Memory.set_context mem Mm_memsim.Access.Mgmt;
  let procs =
    Array.init nprocs (fun pid ->
        Process.create ~kind:cfg.kind ~os ~mem ~spec ~pid ~seed:cfg.seed
          ~use_bulk_free:cfg.use_bulk_free)
  in
  Memory.set_context mem Mm_memsim.Access.App;
  let total_done = ref 0 in
  let current = ref 0 in
  (* Hoisted so the scheduler loop doesn't allocate a thunk per switch. *)
  let charge_switch () = Memory.instr mem context_switch_kernel_instr in
  let switch_to p =
    if nprocs > 1 && not fine_grained then begin
      (* OS context switch: kernel path plus, on x86, a TLB flush. *)
      Memory.with_context mem Mm_memsim.Access.Kernel charge_switch;
      Cache_system.on_context_switch cs
    end;
    current := p
  in
  let run_until target =
    while !total_done < target do
      let p = procs.(!current) in
      let finished_txn = Process.step p ~ops:slice in
      if finished_txn then begin
        incr total_done;
        (match cfg.restart_period with
        | Some k when Process.txns_done p mod k = 0 -> Process.restart p
        | Some _ | None -> ())
      end;
      (* Round-robin; on Niagara the hardware threads interleave finely
         with no kernel involvement. *)
      if fine_grained || finished_txn then
        switch_to ((!current + 1) mod nprocs)
    done
  in
  (* Warmup: fill caches, TLBs, and allocator structures. *)
  run_until cfg.warmup_txns;
  Cache_system.reset_events cs;
  Array.iter
    (fun p ->
      reset_handle_stats (Process.handle p);
      Process.reset_measurement p)
    procs;
  let warmup_txns_done = !total_done in
  run_until (warmup_txns_done + cfg.measure_txns);
  let txns = !total_done - warmup_txns_done in
  let sum_stat f =
    Array.fold_left
      (fun acc p -> acc + f (Process.handle p).Core.Allocator.h_stats)
      0 procs
  in
  let consumption () =
    let s = Mm_stats.Summary.create () in
    Array.iter
      (fun p ->
        let peaks = Process.consumption_peaks p in
        if Mm_stats.Summary.count peaks > 0 then
          Mm_stats.Summary.add s (Mm_stats.Summary.mean peaks))
      procs;
    s
  in
  let ftxns = float_of_int txns in
  let mallocs = sum_stat (fun s -> s.Core.Allocator.mallocs) in
  let bytes = sum_stat (fun s -> s.Core.Allocator.bytes_requested) in
  (* Only the events and what the performance model makes of them differ
     between members. *)
  List.mapi
    (fun i cfg ->
      let events = Cache_system.events cs i in
      let perf =
        Perf_model.solve ~machine:cfg.machine ~active_cores:cfg.active_cores
          ~events ~txns
      in
      {
        cfg;
        events;
        txns;
        perf;
        (* The simulated transaction is [scale] of a real one. *)
        throughput = perf.Perf_model.throughput *. cfg.scale;
        consumption = consumption ();
        mallocs_per_txn = float_of_int mallocs /. ftxns;
        frees_per_txn =
          float_of_int (sum_stat (fun s -> s.Core.Allocator.frees)) /. ftxns;
        reallocs_per_txn =
          float_of_int (sum_stat (fun s -> s.Core.Allocator.reallocs)) /. ftxns;
        mean_alloc_size =
          (if mallocs = 0 then 0.0
           else float_of_int bytes /. float_of_int mallocs);
      })
    cfgs

let run cfg =
  match run_group [ cfg ] with
  | [ m ] -> m
  | _ -> assert false

let event_per_txn m counter =
  float_of_int (Events.total m.events counter) /. float_of_int m.txns

(* --- measurement serialization ---------------------------------------

   The payload format of the persistent measurement store
   ([Mm_store] via [Mm_experiments.Context]): one "key value" line per
   field, versioned by the first line.  Floats are printed with %h (hex
   mantissa) so every finite value round-trips bit-exactly — warm store
   hits must render byte-identically to the simulation that produced
   them.  Machine and workload are stored by name (they are closed
   registries); allocator configurations are stored in full, including
   the size-class scheme, because the ablations sweep them. *)

let measurement_schema_version = 1

let event_contexts =
  [
    ("mgmt", Mm_memsim.Access.Mgmt);
    ("app", Mm_memsim.Access.App);
    ("kernel", Mm_memsim.Access.Kernel);
  ]

let measurement_to_string m =
  let b = Buffer.create 2048 in
  let line k v =
    Buffer.add_string b k;
    Buffer.add_char b ' ';
    Buffer.add_string b v;
    Buffer.add_char b '\n'
  in
  let fl k v = line k (Printf.sprintf "%h" v) in
  let il k v = line k (string_of_int v) in
  let bl k v = line k (string_of_bool v) in
  line "mmstudy.measurement" (string_of_int measurement_schema_version);
  let cfg = m.cfg in
  line "machine" cfg.machine.Machine.name;
  il "cores" cfg.active_cores;
  (match cfg.kind with
  | Alloc_factory.Dd None ->
    line "kind" "ddmalloc";
    line "kind.dd" "default"
  | Alloc_factory.Dd (Some c) ->
    line "kind" "ddmalloc";
    line "kind.dd" "custom";
    il "kind.dd.segment_size" c.Core.Ddmalloc.segment_size;
    il "kind.dd.arena_size" c.Core.Ddmalloc.arena_size;
    line "kind.dd.scheme.name" (Core.Size_class.name c.Core.Ddmalloc.scheme);
    line "kind.dd.scheme.sizes"
      (String.concat " "
         (Array.to_list
            (Array.map string_of_int
               (Core.Size_class.class_sizes c.Core.Ddmalloc.scheme))));
    bl "kind.dd.pid_metadata_offset" c.Core.Ddmalloc.pid_metadata_offset;
    bl "kind.dd.large_pages" c.Core.Ddmalloc.large_pages;
    line "kind.dd.reuse" (Core.Ddmalloc.reuse_name c.Core.Ddmalloc.reuse)
  | other -> line "kind" (Alloc_factory.kind_name other));
  line "spec" cfg.spec.Spec.name;
  fl "scale" cfg.scale;
  il "warmup_txns" cfg.warmup_txns;
  il "measure_txns" cfg.measure_txns;
  bl "large_page_heap" cfg.large_page_heap;
  il "seed" cfg.seed;
  line "restart_period"
    (match cfg.restart_period with None -> "none" | Some p -> string_of_int p);
  bl "use_bulk_free" cfg.use_bulk_free;
  line "processes"
    (match cfg.processes with None -> "none" | Some p -> string_of_int p);
  il "txns" m.txns;
  List.iter
    (fun (name, ctx) ->
      line ("events." ^ name)
        (String.concat " "
           (List.map
              (fun c -> string_of_int (Events.get m.events ctx c))
              Events.all_counters)))
    event_contexts;
  let p = m.perf in
  fl "perf.cycles_per_txn" p.Perf_model.cycles_per_txn;
  fl "perf.throughput" p.Perf_model.throughput;
  fl "perf.mgmt_cycles" p.Perf_model.breakdown.Perf_model.mgmt_cycles;
  fl "perf.app_cycles" p.Perf_model.breakdown.Perf_model.app_cycles;
  fl "perf.kernel_cycles" p.Perf_model.breakdown.Perf_model.kernel_cycles;
  fl "perf.bus_utilization" p.Perf_model.bus_utilization;
  fl "perf.mem_latency_eff" p.Perf_model.mem_latency_eff;
  fl "throughput" m.throughput;
  let n, mean, m2, mn, mx = Mm_stats.Summary.dump m.consumption in
  il "consumption.n" n;
  fl "consumption.mean" mean;
  fl "consumption.m2" m2;
  fl "consumption.min" mn;
  fl "consumption.max" mx;
  fl "mallocs_per_txn" m.mallocs_per_txn;
  fl "frees_per_txn" m.frees_per_txn;
  fl "reallocs_per_txn" m.reallocs_per_txn;
  fl "mean_alloc_size" m.mean_alloc_size;
  Buffer.contents b

exception Parse of string

let measurement_of_string s =
  try
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun ln ->
        if String.trim ln <> "" then
          match String.index_opt ln ' ' with
          | None -> raise (Parse ("malformed line: " ^ ln))
          | Some i ->
            let k = String.sub ln 0 i in
            let v = String.sub ln (i + 1) (String.length ln - i - 1) in
            if Hashtbl.mem tbl k then raise (Parse ("duplicate key " ^ k));
            Hashtbl.add tbl k v)
      (String.split_on_char '\n' s);
    let get k =
      match Hashtbl.find_opt tbl k with
      | Some v -> v
      | None -> raise (Parse ("missing key " ^ k))
    in
    let geti k =
      match int_of_string_opt (get k) with
      | Some v -> v
      | None -> raise (Parse ("bad int for " ^ k))
    in
    let getf k =
      match float_of_string_opt (get k) with
      | Some v -> v
      | None -> raise (Parse ("bad float for " ^ k))
    in
    let getb k =
      match bool_of_string_opt (get k) with
      | Some v -> v
      | None -> raise (Parse ("bad bool for " ^ k))
    in
    let opt_int k =
      match get k with
      | "none" -> None
      | v -> (
        match int_of_string_opt v with
        | Some v -> Some v
        | None -> raise (Parse ("bad optional int for " ^ k)))
    in
    if geti "mmstudy.measurement" <> measurement_schema_version then
      raise (Parse "schema version mismatch");
    let machine =
      match get "machine" with
      | "xeon" -> Machine.xeon
      | "niagara" -> Machine.niagara
      | m -> raise (Parse ("unknown machine " ^ m))
    in
    let kind =
      match get "kind" with
      | "ddmalloc" -> (
        match get "kind.dd" with
        | "default" -> Alloc_factory.Dd None
        | "custom" ->
          let sizes =
            List.map
              (fun x ->
                match int_of_string_opt x with
                | Some v -> v
                | None -> raise (Parse "bad scheme size"))
              (String.split_on_char ' ' (get "kind.dd.scheme.sizes"))
          in
          let scheme =
            Core.Size_class.of_sizes
              ~name:(get "kind.dd.scheme.name")
              (Array.of_list sizes)
          in
          let reuse =
            let r = get "kind.dd.reuse" in
            match Core.Ddmalloc.reuse_of_name r with
            | Some reuse -> reuse
            | None -> raise (Parse ("unknown reuse policy " ^ r))
          in
          Alloc_factory.Dd
            (Some
               {
                 Core.Ddmalloc.segment_size = geti "kind.dd.segment_size";
                 arena_size = geti "kind.dd.arena_size";
                 scheme;
                 pid_metadata_offset = getb "kind.dd.pid_metadata_offset";
                 large_pages = getb "kind.dd.large_pages";
                 reuse;
               })
        | v -> raise (Parse ("bad kind.dd " ^ v)))
      | name -> (
        match Alloc_factory.of_name name with
        | Some (Alloc_factory.Dd _) | None ->
          raise (Parse ("unknown kind " ^ name))
        | Some k -> k)
    in
    let spec =
      match Spec.by_name (get "spec") with
      | Some s -> s
      | None -> raise (Parse ("unknown spec " ^ get "spec"))
    in
    let events = Events.create () in
    List.iter
      (fun (name, ctx) ->
        let vals =
          List.map
            (fun x ->
              match int_of_string_opt x with
              | Some v -> v
              | None -> raise (Parse ("bad counter in events." ^ name)))
            (String.split_on_char ' ' (get ("events." ^ name)))
        in
        if List.length vals <> Events.ncounters then
          raise (Parse ("wrong counter count in events." ^ name));
        List.iter2 (fun c v -> Events.add events ctx c v) Events.all_counters
          vals)
      event_contexts;
    let perf =
      {
        Perf_model.cycles_per_txn = getf "perf.cycles_per_txn";
        throughput = getf "perf.throughput";
        breakdown =
          {
            Perf_model.mgmt_cycles = getf "perf.mgmt_cycles";
            app_cycles = getf "perf.app_cycles";
            kernel_cycles = getf "perf.kernel_cycles";
          };
        bus_utilization = getf "perf.bus_utilization";
        mem_latency_eff = getf "perf.mem_latency_eff";
      }
    in
    let consumption =
      Mm_stats.Summary.undump
        ( geti "consumption.n",
          getf "consumption.mean",
          getf "consumption.m2",
          getf "consumption.min",
          getf "consumption.max" )
    in
    let cfg =
      {
        machine;
        active_cores = geti "cores";
        kind;
        spec;
        scale = getf "scale";
        warmup_txns = geti "warmup_txns";
        measure_txns = geti "measure_txns";
        large_page_heap = getb "large_page_heap";
        seed = geti "seed";
        restart_period = opt_int "restart_period";
        use_bulk_free = getb "use_bulk_free";
        processes = opt_int "processes";
      }
    in
    Ok
      {
        cfg;
        events;
        txns = geti "txns";
        perf;
        throughput = getf "throughput";
        consumption;
        mallocs_per_txn = getf "mallocs_per_txn";
        frees_per_txn = getf "frees_per_txn";
        reallocs_per_txn = getf "reallocs_per_txn";
        mean_alloc_size = getf "mean_alloc_size";
      }
  with
  | Parse msg -> Error msg
  | e -> Error (Printexc.to_string e)
