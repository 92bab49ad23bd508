(* mmstudy — command-line driver for the reproduction study.

   Subcommands: list what can be run, run one experiment or all of them,
   and run a single simulation configuration with a detailed profile. *)

module Store = Mm_store.Store
module Fault = Mm_fault.Fault
module Machine = Mm_cachesim.Machine
module Spec = Mm_workload.Spec
module Factory = Mm_runtime.Alloc_factory

let ctx_of ~scale ~seed (store, refresh) =
  Mm_experiments.Context.create ~scale ~seed ?store ~refresh ()

(* Execution accounting goes to stderr so that a warm (store-served) run
   stays byte-identical to a cold run on stdout — check.sh diffs them
   (and greps the "simulations: N," and "serve sims: N," fields). *)
let print_exec_summary ctx =
  match Mm_experiments.Context.store ctx with
  | None -> ()
  | Some s ->
    Printf.eprintf
      "[mmstudy] simulations: %d, disk hits: %d, serve sims: %d, serve \
       hits: %d, store errors: %d, store: %s\n%!"
      (Mm_experiments.Context.simulated ctx)
      (Mm_experiments.Context.disk_hits ctx)
      (Mm_experiments.Context.blob_computed ctx)
      (Mm_experiments.Context.blob_disk_hits ctx)
      (Mm_experiments.Context.store_errors ctx)
      (Store.dir s)

(* --- converters ------------------------------------------------------

   Every flag value is validated by its Cmdliner converter, so a bad value
   is a usage error naming the flag and the valid values (exit 124), never
   an assertion deep in the simulator.  Only checks that relate two flags
   run at term level. *)

let pp_name name ppf v = Format.pp_print_string ppf (name v)

(* One of a module's values, by its stable name. *)
let choice ~what all name =
  let parse s =
    match List.find_opt (fun v -> name v = s) all with
    | Some v -> Ok v
    | None ->
      Error
        (Printf.sprintf "unknown %s %S; valid: %s" what s
           (String.concat ", " (List.map name all)))
  in
  Cmdliner.Arg.conv' (parse, pp_name name)

let machine_conv =
  choice ~what:"machine" [ Machine.xeon; Machine.niagara ] (fun m ->
      m.Machine.name)

let workloads = Spec.php_apps @ [ Spec.rails ]

let workload_conv = choice ~what:"workload" workloads (fun s -> s.Spec.name)

let alloc_conv = choice ~what:"allocator" Factory.all_kinds Factory.kind_name

(* A number of [base]'s type that must satisfy [ok]; [what] completes
   "FLAG must be ...". *)
let checked base ~flag ~what ok =
  let parse s =
    match Cmdliner.Arg.conv_parser base s with
    | Error (`Msg msg) -> Error msg
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (Printf.sprintf "%s must be %s (got %s)" flag what s)
  in
  Cmdliner.Arg.conv' (parse, Cmdliner.Arg.conv_printer base)

(* A float flag is also finite: "inf", "nan" and "1e400" parse as floats,
   but no flag means them. *)
let finite_float ~flag ~what ok =
  checked Cmdliner.Arg.float ~flag ~what (fun v -> Float.is_finite v && ok v)

let scale_conv =
  finite_float ~flag:"--scale" ~what:"in (0, 1]" (fun s -> s > 0.0 && s <= 1.0)

let scale_arg ~default ~doc =
  Cmdliner.Arg.(value & opt scale_conv default & info [ "scale" ] ~docv:"S" ~doc)

let transaction_scale_arg =
  scale_arg ~default:0.25
    ~doc:
      "Transaction scale: fraction of Table 3's per-transaction call counts \
       to simulate, in (0, 1] (results are reported at full-transaction \
       equivalents)."

let seed_arg =
  let doc = "Random seed (every run is deterministic given the seed)." in
  Cmdliner.Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the execute stage: independent simulation \
     configurations are planned up front and run J at a time.  Output is \
     byte-identical at any J (measurements are memoized per configuration \
     and each simulation is hermetic)."
  in
  Cmdliner.Arg.(
    value
    & opt
        (checked int ~flag:"--jobs" ~what:">= 1" (fun j -> j >= 1))
        (Mm_sched.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"J" ~doc)

let cache_arg =
  let on =
    Cmdliner.Arg.info [ "cache" ]
      ~doc:
        "Serve measurements from the persistent store when possible and \
         record fresh ones into it (the default)."
  in
  let off =
    Cmdliner.Arg.info [ "no-cache" ]
      ~doc:
        "Disable the persistent measurement store entirely: neither read \
         nor write it (process-local memoization only)."
  in
  Cmdliner.Arg.(value & vflag true [ (true, on); (false, off) ])

let refresh_arg =
  let doc =
    "Ignore existing store entries and recompute every configuration, \
     writing the fresh results back into the store."
  in
  Cmdliner.Arg.(value & flag & info [ "refresh" ] ~doc)

let cache_dir_arg =
  let doc =
    "Measurement store directory (default: \\$MMSTUDY_CACHE_DIR if set, \
     else _mmstudy_cache)."
  in
  Cmdliner.Arg.(
    value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* The store flags, checked together: --no-cache asks for no store at
   all, so flags that only make sense with a store are conflicts, not
   silent no-ops.  Yields the store to attach and the refresh flag. *)
let store_term =
  let open_store cache refresh cache_dir =
    if (not cache) && refresh then
      Error "--no-cache conflicts with --refresh (nothing to refresh)"
    else if (not cache) && cache_dir <> None then
      Error "--no-cache conflicts with --cache-dir (no store will be opened)"
    else if not cache then Ok (None, false)
    else
      Ok
        ( Some
            (Store.open_ ?dir:cache_dir
               ~fingerprint:Mm_runtime.Version.sim_fingerprint ()),
          refresh )
  in
  Cmdliner.Term.(
    term_result' (const open_store $ cache_arg $ refresh_arg $ cache_dir_arg))

(* The machine and a core count that fits it. *)
let machine_cores_term ~cores_doc =
  let machine =
    Cmdliner.Arg.(
      value & opt machine_conv Machine.xeon
      & info [ "machine" ] ~docv:"M" ~doc:"Machine model: xeon or niagara.")
  in
  let cores =
    Cmdliner.Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc:cores_doc)
  in
  let check machine cores =
    if cores < 1 || cores > machine.Machine.cores then
      Error
        (Printf.sprintf "--cores must be in 1..%d for %s (got %d)"
           machine.Machine.cores machine.Machine.name cores)
    else Ok (machine, cores)
  in
  Cmdliner.Term.(term_result' (const check $ machine $ cores))

let workload_arg =
  let doc = "Workload (see `mmstudy list`)." in
  Cmdliner.Arg.(
    value & opt workload_conv Spec.mediawiki_ro
    & info [ "workload" ] ~docv:"W" ~doc)

let list_cmd =
  let run () =
    print_endline "Experiments (ids for `mmstudy run`):";
    List.iter
      (fun e ->
        Printf.printf "  %-9s %s\n" e.Mm_experiments.Registry.id
          e.Mm_experiments.Registry.title;
        Printf.printf "  %-9s %s [scale %g]\n" ""
          e.Mm_experiments.Registry.desc
          e.Mm_experiments.Registry.default_scale)
      Mm_experiments.Registry.all;
    print_endline "\nWorkloads:";
    List.iter
      (fun s ->
        Printf.printf "  %-14s %s (%d mallocs/txn, mean %.1f B)\n" s.Spec.name
          s.Spec.paper_name s.Spec.mallocs s.Spec.mean_size)
      workloads;
    print_endline "\nAllocators:";
    List.iter
      (fun k -> Printf.printf "  %s\n" (Factory.kind_name k))
      Factory.all_kinds;
    print_endline "\nMachines: xeon (2x quad-core Clovertown), niagara (UltraSPARC T1)"
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "list" ~doc:"List experiments, workloads, allocators.")
    Cmdliner.Term.(const run $ const ())

let run_cmd =
  let experiment_conv =
    let parse = function
      | "all" -> Ok None
      | id -> (
        match Mm_experiments.Registry.find id with
        | Some e -> Ok (Some e)
        | None ->
          (* Fixed words first: Cmdliner wraps long messages at spaces. *)
          Error
            (Printf.sprintf "unknown experiment; valid ids: %s (got %S)"
               (String.concat ", " (Mm_experiments.Registry.ids @ [ "all" ]))
               id))
    in
    let name = function
      | None -> "all"
      | Some e -> e.Mm_experiments.Registry.id
    in
    Cmdliner.Arg.conv' (parse, pp_name name)
  in
  let experiment_arg =
    let doc = "Experiment id (see `mmstudy list`), or `all`." in
    Cmdliner.Arg.(
      required
      & pos 0 (some experiment_conv) None
      & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let run experiment scale seed jobs store =
    let ctx = ctx_of ~scale ~seed store in
    (match experiment with
    | Some e -> Mm_experiments.Registry.run ~jobs ctx e
    | None -> Mm_experiments.Registry.run_all ~jobs ctx);
    print_exec_summary ctx
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run"
       ~doc:"Run one experiment (a table or figure of the paper) or all.")
    Cmdliner.Term.(
      const run $ experiment_arg $ transaction_scale_arg $ seed_arg $ jobs_arg
      $ store_term)

let sim_cmd =
  let alloc_arg =
    let doc = "Allocator (see `mmstudy list`)." in
    Cmdliner.Arg.(
      value & opt alloc_conv (Factory.Dd None) & info [ "alloc" ] ~docv:"A" ~doc)
  in
  let run (machine, cores) kind spec scale seed jobs store =
    let ctx = ctx_of ~scale ~seed store in
    let key = Mm_experiments.Context.php_key ctx ~machine ~cores ~kind ~spec () in
    Mm_experiments.Context.prefetch ctx ~jobs [ key ];
    let m = Mm_experiments.Context.force ctx key in
    let p = m.Mm_runtime.Engine.perf in
    let module P = Mm_cachesim.Perf_model in
    let module E = Mm_cachesim.Events in
    Printf.printf "%s, %d core(s), %s, %s (scale %.2f):\n" machine.Machine.name
      cores (Factory.kind_name kind) spec.Spec.name scale;
    Printf.printf "  throughput            %10.1f txn/s\n"
      m.Mm_runtime.Engine.throughput;
    Printf.printf "  cycles/txn            %10.0f (full-transaction equivalent)\n"
      (p.P.cycles_per_txn /. scale);
    Printf.printf "  memory mgmt share     %10.1f %%\n"
      (100.0 *. p.P.breakdown.P.mgmt_cycles /. p.P.cycles_per_txn);
    Printf.printf "  bus utilization       %10.2f\n" p.P.bus_utilization;
    Printf.printf "  eff. memory latency   %10.0f cycles\n" p.P.mem_latency_eff;
    let per c = Mm_runtime.Engine.event_per_txn m c /. scale in
    List.iter
      (fun c -> Printf.printf "  %-20s  %10.0f /txn\n" (E.counter_name c) (per c))
      E.all_counters;
    Printf.printf "  consumption (mean)    %10s\n"
      (Mm_stats.Table.fmt_bytes
         (int_of_float
            (Mm_stats.Summary.mean m.Mm_runtime.Engine.consumption /. scale)));
    print_exec_summary ctx
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sim"
       ~doc:"Run one simulation configuration and print its full profile.")
    Cmdliner.Term.(
      const run
      $ machine_cores_term
          ~cores_doc:"Active cores (1 to the machine's core count)."
      $ alloc_arg $ workload_arg $ transaction_scale_arg $ seed_arg $ jobs_arg
      $ store_term)

(* --- the `mmstudy serve` subcommand ---------------------------------- *)

(* Offered-load sweeps on the discrete-event serving simulator
   (lib/serve), driven through the same memoized pipeline as the
   experiments: measurements prefetch on the domain pool, the sweeps
   themselves are cheap, sequential, and memoized as "serve" store
   payloads — so output is byte-identical at any -j and a warm re-run
   performs zero simulations of either kind. *)
let serve_cmd =
  let allocs_arg =
    let doc = "Comma-separated allocators to sweep (see `mmstudy list`)." in
    Cmdliner.Arg.(
      value
      & opt (list alloc_conv) Factory.[ Php_default; Region; Dd None ]
      & info [ "alloc" ] ~docv:"A,B,..." ~doc)
  in
  let arrival_arg =
    let doc = "Arrival process: poisson, or bursty (MMPP-2, 4x bursts)." in
    Cmdliner.Arg.(
      value
      & opt
          (choice ~what:"arrival" Mm_serve.Arrival.all Mm_serve.Arrival.name)
          Mm_serve.Arrival.Poisson
      & info [ "arrival" ] ~docv:"P" ~doc)
  in
  let dispatch_arg =
    let doc = "Dispatch policy: round-robin, least-loaded, or affinity." in
    Cmdliner.Arg.(
      value
      & opt
          (choice ~what:"dispatch" Mm_serve.Dispatch.all Mm_serve.Dispatch.name)
          Mm_serve.Dispatch.Least_loaded
      & info [ "dispatch" ] ~docv:"D" ~doc)
  in
  let rps_arg =
    let doc =
      "Offered load sweep: comma-separated requests/second, or `auto' \
       (fractions 0.3..1.1 of the default allocator's capacity at the \
       chosen core count)."
    in
    (* [None] is the auto grid. *)
    let parse s =
      if s = "auto" then Ok None
      else
        let parts = String.split_on_char ',' s in
        let rates = List.filter_map float_of_string_opt parts in
        if List.length rates <> List.length parts then
          Error "--rps must be `auto' or a comma-separated list of numbers"
        else if List.exists (fun r -> not (r > 0.0 && Float.is_finite r)) rates
        then Error "--rps rates must be positive and finite"
        else Ok (Some rates)
    in
    let print ppf = function
      | None -> Format.pp_print_string ppf "auto"
      | Some rates ->
        Format.pp_print_string ppf
          (String.concat "," (List.map (Printf.sprintf "%g") rates))
    in
    Cmdliner.Arg.(
      value
      & opt (conv' (parse, print)) None
      & info [ "rps" ] ~docv:"R,..." ~doc)
  in
  let duration_arg =
    let doc =
      "Seconds of offered load per sweep point.  The request count is \
       duration times the highest swept rate, identical across points and \
       allocators so curves are comparable."
    in
    Cmdliner.Arg.(
      value
      & opt
          (finite_float ~flag:"--duration" ~what:"positive and finite" (fun d ->
               d > 0.0))
          5.0
      & info [ "duration" ] ~docv:"S" ~doc)
  in
  let timeout_arg =
    let doc =
      "Client deadline in seconds (0 = no deadline).  A request still \
       queued or in service past its deadline counts as a timeout and the \
       client retries (see --retries)."
    in
    Cmdliner.Arg.(
      value
      & opt
          (finite_float ~flag:"--timeout" ~what:"finite and >= 0 seconds"
             (fun t -> t >= 0.0))
          0.0
      & info [ "timeout" ] ~docv:"S" ~doc)
  in
  let retries_arg =
    let doc =
      "Client retries after a timeout or shed, with capped exponential \
       backoff and jitter (0 = give up immediately)."
    in
    Cmdliner.Arg.(
      value
      & opt (checked int ~flag:"--retries" ~what:">= 0" (fun r -> r >= 0)) 0
      & info [ "retries" ] ~docv:"N" ~doc)
  in
  let admission_arg =
    let doc =
      "Admission control: `always' (admit everything), `queue:N' (shed \
       when the picked core already holds N requests), or `deadline-aware' \
       (shed when the queue's expected wait already exceeds the deadline)."
    in
    Cmdliner.Arg.(
      value
      & opt
          (conv'
             ( Mm_serve.Policy.admission_of_name,
               pp_name Mm_serve.Policy.admission_name ))
          Mm_serve.Policy.Always
      & info [ "admission" ] ~docv:"POLICY" ~doc)
  in
  let auto_fractions = [ 0.3; 0.5; 0.7; 0.8; 0.9; 0.95; 1.0; 1.1 ] in
  (* All-default policy flags mean the plain simulator: Policy.none, not
     an equivalent [make] product, so the blob key (and thus warm-store
     behavior) of a policy-free `mmstudy serve` is unchanged. *)
  let policy_of ~timeout ~retries ~admission =
    if timeout = 0.0 && retries = 0 && admission = Mm_serve.Policy.Always then
      Mm_serve.Policy.none
    else
      Mm_serve.Policy.make
        ?deadline:(if timeout = 0.0 then None else Some timeout)
        ~max_retries:retries ~admission ()
  in
  let run (machine, cores) spec kinds arrival dispatch rps duration timeout
      retries admission scale seed jobs store =
    let policy = policy_of ~timeout ~retries ~admission in
    let module Ctx = Mm_experiments.Context in
    let module Lat = Mm_experiments.Exp_latency in
    let module Sweep = Mm_serve.Sweep in
    let ctx = ctx_of ~scale ~seed store in
    let default_kind = Mm_runtime.Alloc_factory.Php_default in
    (* The auto grid needs the default allocator's measurement even when
       it is not swept; plan the union and prefetch on the pool. *)
    let planned =
      (if rps = None then [ default_kind ] else [])
      @ kinds
      |> List.map (fun kind ->
             Ctx.php_key ctx ~machine ~cores ~kind ~spec ())
    in
    Ctx.prefetch ctx ~jobs planned;
    let rates =
      match rps with
      | Some rates -> rates
      | None ->
        let cap =
          Lat.capacity_of ctx ~machine ~spec ~kind:default_kind ~cores
        in
        List.map (fun f -> f *. cap) auto_fractions
    in
    let max_rate = List.fold_left Float.max 0.0 rates in
    (* Clamped as a float: int_of_float of a product past the int range
       wraps negative, which would silently clamp to the floor. *)
    let requests =
      int_of_float (Float.min 50_000.0 (Float.max 200.0 (duration *. max_rate)))
    in
    let policy_active = not (Mm_serve.Policy.is_none policy) in
    Printf.printf
      "Serving %s on %d %s core(s): %s arrivals, %s dispatch, %d requests \
       per point (seed %d, scale %.2f)\n"
      spec.Spec.name cores machine.Machine.name
      (Mm_serve.Arrival.name arrival)
      (Mm_serve.Dispatch.name dispatch)
      requests seed scale;
    if policy_active then
      Printf.printf "Client policy: %s\n" (Mm_serve.Policy.describe policy);
    print_newline ();
    let summary =
      Mm_stats.Table.create ~title:"Saturation summary"
        ~columns:
          ([
             ("allocator", Mm_stats.Table.Left);
             ("capacity RPS", Mm_stats.Table.Right);
             ("max sustained RPS", Mm_stats.Table.Right);
           ]
          @
          if policy_active then
            [ ("collapse RPS", Mm_stats.Table.Right) ]
          else [])
    in
    List.iter
      (fun kind ->
        let name = Mm_runtime.Alloc_factory.kind_name kind in
        let points =
          Lat.sweep_points ~policy ctx ~machine ~spec ~kind ~cores ~arrival
            ~dispatch ~requests ~warmup_frac:0.1 ~rates
        in
        let t =
          Mm_stats.Table.create
            ~title:(Printf.sprintf "%s: latency vs offered load" name)
            ~columns:
              ([
                 ("offered RPS", Mm_stats.Table.Right);
                 ("p50", Mm_stats.Table.Right);
                 ("p90", Mm_stats.Table.Right);
                 ("p99", Mm_stats.Table.Right);
                 ("p99.9", Mm_stats.Table.Right);
                 ("util", Mm_stats.Table.Right);
               ]
              @ (if policy_active then
                   [
                     ("goodput RPS", Mm_stats.Table.Right);
                     ("shed", Mm_stats.Table.Right);
                     ("timeout", Mm_stats.Table.Right);
                     ("amp", Mm_stats.Table.Right);
                   ]
                 else [])
              @ [ ("", Mm_stats.Table.Left) ])
        in
        let ms v = Printf.sprintf "%.2f ms" (1000.0 *. v) in
        let pct v = Printf.sprintf "%.0f%%" (100.0 *. v) in
        List.iter
          (fun (p : Sweep.point) ->
            Mm_stats.Table.add_row t
              ([
                 Printf.sprintf "%.0f" p.Sweep.rate;
                 ms p.Sweep.p50;
                 ms p.Sweep.p90;
                 ms p.Sweep.p99;
                 ms p.Sweep.p999;
                 Printf.sprintf "%.2f" p.Sweep.utilization;
               ]
              @ (if policy_active then
                   [
                     Printf.sprintf "%.0f" p.Sweep.goodput_rps;
                     pct p.Sweep.shed_rate;
                     pct p.Sweep.timeout_rate;
                     Printf.sprintf "%.2f" p.Sweep.amplification;
                   ]
                 else [])
              @ [
                  (if policy_active && Sweep.collapsed p then "COLLAPSED"
                   else if p.Sweep.saturated then "SATURATED"
                   else "");
                ]))
          points;
        Mm_stats.Table.print t;
        let cap = Lat.capacity_of ctx ~machine ~spec ~kind ~cores in
        Mm_stats.Table.add_row summary
          ([
             name;
             Printf.sprintf "%.0f" cap;
             (match Sweep.max_sustainable points with
             | Some r -> Printf.sprintf "%.0f" r
             | None -> "none (all points saturated)");
           ]
          @
          if policy_active then
            [
              (match Sweep.collapse_rate points with
              | Some r -> Printf.sprintf "%.0f" r
              | None -> "none in sweep");
            ]
          else []))
      kinds;
    Mm_stats.Table.print summary;
    print_exec_summary ctx
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "serve"
       ~doc:
         "Sweep offered load on the discrete-event serving simulator: tail \
          latency and saturation per allocator.")
    Cmdliner.Term.(
      const run
      $ machine_cores_term
          ~cores_doc:"Serving cores (1 to the machine's core count)."
      $ workload_arg $ allocs_arg $ arrival_arg $ dispatch_arg $ rps_arg
      $ duration_arg $ timeout_arg $ retries_arg $ admission_arg
      $ transaction_scale_arg $ seed_arg $ jobs_arg $ store_term)

(* --- the `mmstudy chaos` subcommand ---------------------------------- *)

(* Fault-injection drills: run the pipeline fault-free for a reference,
   then under a seeded fault plan at two job counts, and verify that
   faults move counters (retries, misses), never result bytes — and that
   the fault pattern itself does not depend on the job count.  Then
   hammer the store directly.  Any violation exits non-zero, so check.sh
   can gate on this. *)
let chaos_cmd =
  let chaos_fault_seed_arg =
    let doc = "Seed of the deterministic fault plan to drill with." in
    Cmdliner.Arg.(value & opt int 42 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let chaos_scale_arg =
    scale_arg ~default:0.002
      ~doc:"Transaction scale for the experiment pass, in (0, 1]."
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        try Unix.rmdir path with Unix.Unix_error _ -> ()
      end
      else try Sys.remove path with Sys_error _ -> ()
  in
  (* Sorted (entry file, contents) pairs of a store directory. *)
  let store_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".meas")
    |> List.sort compare
    |> List.map (fun f ->
           (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  in
  let format_counts counts =
    String.concat ", "
      (List.map
         (fun (site, n) -> Printf.sprintf "%s %d" (Fault.site_name site) n)
         counts)
  in
  let run scale seed jobs fault_seed =
    let module Ctx = Mm_experiments.Context in
    let module Engine = Mm_runtime.Engine in
    let violations = ref [] in
    let violate fmt =
      Printf.ksprintf (fun s -> violations := s :: !violations) fmt
    in
    let tmp =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "mmstudy-chaos-%d" (Unix.getpid ()))
    in
    Fun.protect
      ~finally:(fun () ->
        Fault.disable ();
        rm_rf tmp)
      (fun () ->
        Printf.printf
          "Chaos drill: fault seed %d, sim seed %d, scale %g, %d job(s)\n\n"
          fault_seed seed scale jobs;
        (* Drill 1: determinism under faults.  The whole evaluation plan,
           fault-free and in-memory, is the reference.  The same plan
           under the fault plan at its default rates, through a fresh
           store that is catching injected I/O errors and torn writes,
           must produce identical bytes at -j 1 and at -j 2 or more —
           and leave identical stores and fault counts, because every
           decision is a function of its key.  Every site must fire. *)
        Fault.disable ();
        let clean_ctx = Ctx.create ~scale ~seed () in
        let keys = Mm_experiments.Registry.plan_all clean_ctx in
        Ctx.prefetch clean_ctx ~jobs keys;
        let reference =
          List.map
            (fun k -> Engine.measurement_to_string (Ctx.force clean_ctx k))
            keys
        in
        let mismatches = ref 0 in
        let compare_to_reference ctx what =
          List.iter2
            (fun k expected ->
              if Engine.measurement_to_string (Ctx.force ctx k) <> expected
              then begin
                incr mismatches;
                violate "%s of %S differs under fault injection" what
                  (Ctx.key_name k)
              end)
            keys reference
        in
        let faulted_pass jobs =
          let dir = Filename.concat tmp (Printf.sprintf "j%d" jobs) in
          let open_store () =
            Store.open_ ~dir ~fingerprint:Mm_runtime.Version.sim_fingerprint ()
          in
          Fault.configure ~seed:fault_seed ();
          let ctx = Ctx.create ~scale ~seed ~store:(open_store ()) () in
          Ctx.prefetch ctx ~jobs keys;
          compare_to_reference ctx
            (Printf.sprintf "measurement at -j %d" jobs);
          (* A fresh context reads back what the first one persisted,
             torn entries included. *)
          let reread = Ctx.create ~scale ~seed ~store:(open_store ()) () in
          compare_to_reference reread
            (Printf.sprintf "store round-trip at -j %d" jobs);
          ( Ctx.store_errors ctx + Ctx.store_errors reread,
            Fault.counts (),
            store_files dir )
        in
        let wide = Stdlib.max 2 jobs in
        let errors1, counts1, files1 = faulted_pass 1 in
        let errors_w, counts_w, files_w = faulted_pass wide in
        if counts1 <> counts_w then
          violate "fault counts differ between -j 1 (%s) and -j %d (%s)"
            (format_counts counts1) wide (format_counts counts_w);
        if files1 <> files_w then
          violate "store contents differ between -j 1 and -j %d" wide;
        List.iter
          (fun (site, n) ->
            if n = 0 then
              violate "fault site %s never fired in the experiment pass"
                (Fault.site_name site))
          counts1;
        Printf.printf
          "experiment pass:  %d configuration(s) at -j 1 and -j %d, %d byte \
           mismatch(es)\n"
          (List.length (List.sort_uniq compare (List.map Ctx.store_key keys)))
          wide !mismatches;
        Printf.printf "                  faults at -j 1: %s\n"
          (format_counts counts1);
        Printf.printf "                  faults at -j %d: %s\n" wide
          (format_counts counts_w);
        Printf.printf
          "                  store entries %d / %d (%s), store errors \
           absorbed %d / %d\n"
          (List.length files1) (List.length files_w)
          (if files1 = files_w then "identical" else "DIFFERENT")
          errors1 errors_w;
        (* Drill 2: the store under sustained injected I/O errors and
           torn writes.  Every read must return the stored bytes or
           miss — wrong bytes are the one unforgivable outcome — and a
           miss must heal by rewriting. *)
        Fault.configure ~seed:fault_seed ();
        let drill =
          Store.open_ ~dir:(Filename.concat tmp "drill")
            ~fingerprint:"chaos-drill" ()
        in
        let entries = 200 in
        let payload i =
          Printf.sprintf "payload-%d-%s" i (String.make (i mod 97) 'x')
        in
        let corrupt = ref 0 and misses = ref 0 and healed = ref 0 in
        for i = 0 to entries - 1 do
          let key = Printf.sprintf "chaos-%d" i in
          let data = payload i in
          (try Store.store drill ~key ~data () with _ -> ());
          let rec check attempt =
            match Store.find drill ~key with
            | Some d when d = data -> if attempt > 0 then incr healed
            | Some _ -> incr corrupt
            | None ->
              incr misses;
              if attempt < 5 then begin
                (try Store.store drill ~key ~data () with _ -> ());
                check (attempt + 1)
              end
              else violate "store entry %s never healed" key
          in
          check 0
        done;
        if !corrupt > 0 then violate "store served wrong bytes %d time(s)" !corrupt;
        let h = Store.health drill in
        let drill_counts = Fault.counts () in
        Printf.printf
          "store drill:      %d entry(ies), %d miss(es), %d healed, %d served \
           corrupt\n"
          entries !misses !healed !corrupt;
        Printf.printf
          "                  read retries %d, read failures %d, write retries \
           %d, write failures %d\n"
          h.Store.read_retries h.Store.read_failures h.Store.write_retries
          h.Store.write_failures;
        Printf.printf "                  faults: %s\n" (format_counts drill_counts);
        let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
        if total counts1 + total drill_counts = 0 then
          violate "fault plan injected nothing — the drills exercised no faults";
        match !violations with
        | [] ->
          Printf.printf
            "\nresilience invariant held: faults moved counters, never bytes\n";
          `Ok ()
        | vs ->
          `Error
            ( false,
              Printf.sprintf "chaos drill failed:\n  %s"
                (String.concat "\n  " (List.rev vs)) ))
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "chaos"
       ~doc:
         "Drill the fault-injection paths: prove results are byte-identical \
          under injected I/O errors and torn writes, and that the fault \
          pattern does not depend on the job count.")
    Cmdliner.Term.(
      ret
        (const run $ chaos_scale_arg $ seed_arg $ jobs_arg
       $ chaos_fault_seed_arg))

(* --- the `mmstudy cache` maintenance group --------------------------- *)

let cache_cmd =
  let dir_arg =
    let doc =
      "Store directory (default: \\$MMSTUDY_CACHE_DIR if set, else \
       _mmstudy_cache)."
    in
    Cmdliner.Arg.(
      value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let resolve_dir dir = Option.value dir ~default:(Store.default_dir ()) in
  let print_by_kind by_kind =
    List.iter
      (fun (kind, n, bytes) ->
        Printf.printf "  %-12s %d entry(ies), %.2f MB\n" kind n
          (float_of_int bytes /. 1048576.0))
      by_kind
  in
  let stats_cmd =
    let run dir =
      let dir = resolve_dir dir in
      let s = Store.stats ~dir in
      Printf.printf "store:       %s\n" dir;
      Printf.printf "fingerprint: %s\n" Mm_runtime.Version.sim_fingerprint;
      Printf.printf "entries:     %d\n" s.Store.entries;
      print_by_kind s.Store.by_kind;
      Printf.printf "bytes:       %d (%.2f MB)\n" s.Store.bytes
        (float_of_int s.Store.bytes /. 1048576.0)
    in
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "stats"
         ~doc:"Show entry count and size of the measurement store.")
      Cmdliner.Term.(const run $ dir_arg)
  in
  let clear_cmd =
    let run dir =
      let dir = resolve_dir dir in
      let n = Store.clear ~dir in
      Printf.printf "removed %d entry(ies) from %s\n" n dir
    in
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "clear"
         ~doc:"Delete every entry of the measurement store.")
      Cmdliner.Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let max_mb_arg =
      let doc = "Target size: evict least-recently-used entries until the \
                 store fits in $(docv) megabytes." in
      let mb =
        finite_float ~flag:"--max-mb" ~what:"finite and >= 0" (fun m ->
            m >= 0.0)
      in
      Cmdliner.Arg.(
        required & opt (some mb) None & info [ "max-mb" ] ~docv:"MB" ~doc)
    in
    let run dir max_mb =
      let dir = resolve_dir dir in
      (* A budget past the int range keeps everything; int_of_float of it
         would wrap negative and evict everything. *)
      let bytes = max_mb *. 1048576.0 in
      let max_bytes = if bytes >= 0x1p62 then max_int else int_of_float bytes in
      let n = Store.gc ~dir ~max_bytes in
      let s = Store.stats ~dir in
      Printf.printf "evicted %d entry(ies); %d left (%.2f MB) in %s\n" n
        s.Store.entries
        (float_of_int s.Store.bytes /. 1048576.0)
        dir;
      print_by_kind s.Store.by_kind
    in
    Cmdliner.Cmd.v
      (Cmdliner.Cmd.info "gc"
         ~doc:"Evict least-recently-used entries down to a size budget.")
      Cmdliner.Term.(const run $ dir_arg $ max_mb_arg)
  in
  Cmdliner.Cmd.group
    (Cmdliner.Cmd.info "cache"
       ~doc:"Inspect and maintain the persistent measurement store.")
    [ stats_cmd; clear_cmd; gc_cmd ]

let () =
  let doc =
    "Reproduction of `A Study of Memory Management for Web-based \
     Applications on Multicore Processors' (PLDI 2009)."
  in
  let info = Cmdliner.Cmd.info "mmstudy" ~version:"1.0.0" ~doc in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [ list_cmd; run_cmd; sim_cmd; serve_cmd; chaos_cmd; cache_cmd ]))
