(* The outside-in benchmark of mmstudy.

   One process runs one named workload as a closed loop on one domain:
   the next configuration, key or sweep starts when the previous one
   finishes.  It measures whole passes for at least [--seconds] seconds
   and prints every metric by name and unit, then one JSON record as the
   last line (see perfbench/run.py, which builds this program, adds the
   golden-output check and prints the result line).

   Workloads (why each exists is recorded in perfbench/ledger.json):
   - cold-php    fig5 + fig7 + tab4 planned, simulated and rendered into
                 a fresh store;
   - cold-ruby   fig10 + fig11 + fig12 the same way (per-object free and
                 worker restarts);
   - warm-rerun  the full `run all` plan and render over a store
                 populated during set-up: zero simulations;
   - serve-sweep Sweep.run over contention tables computed in set-up.

   With [--trace 0] the end-to-end metrics come from untraced passes.
   With [--trace 1] passes alternate between traced and untraced, the
   traced ones time each layer boundary from here, and the layer probes
   of [Layers] run afterwards. *)

open Util
module Ctx = Mm_experiments.Context
module Reg = Mm_experiments.Registry
module Paper = Mm_experiments.Paper_data
module Engine = Mm_runtime.Engine
module Version = Mm_runtime.Version
module Factory = Mm_runtime.Alloc_factory
module Events = Mm_cachesim.Events
module Machine = Mm_cachesim.Machine
module Spec = Mm_workload.Spec
module Store = Mm_store.Store
module Pool = Mm_sched.Pool
module Sweep = Mm_serve.Sweep
module Sim = Mm_serve.Sim
module Policy = Mm_serve.Policy
module Arrival = Mm_serve.Arrival
module Dispatch = Mm_serve.Dispatch
module Contention = Mm_serve.Contention

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test size: every workload in a few seconds *)
}

(* Scratch space of this run, removed at exit; perfbench/run.py removes
   the parent once it is empty. *)
let work_dir = Filename.concat ".bench_run" (string_of_int (Unix.getpid ()))

(* --- run bookkeeping --------------------------------------------------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable checks_run : int;
  mutable check_failures : (string * string) list;
}

let check r name ok detail =
  r.checks_run <- r.checks_run + 1;
  if not ok then begin
    Printf.printf "CHECK FAILED %s: %s\n%!" name detail;
    r.check_failures <- (name, detail) :: r.check_failures
  end

(* One operation: counted as attempted, and as failed if it raises. *)
let attempt r name f =
  r.attempted <- r.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    r.failed <- r.failed + 1;
    check r name false (Printexc.to_string e);
    None

let fail_ops r n = r.failed <- r.failed + n

(* Set up [reps] times; the last set-up's state is used, the median of
   their durations is [setup_s]. *)
let repeated_setup ?(reps = 5) opts f =
  let rec go n times =
    let v, dt = time f in
    if n <= 1 then (v, median (dt :: times), List.length times + 1)
    else go (n - 1) (dt :: times)
  in
  go (if opts.tiny then 1 else reps) []

(* One pass of a workload: its wall time, per-operation times, units of
   work done, the digest of what it output and exact work counts.  Two
   passes of one run must agree on [digest] and [counts]. *)
type pass = {
  wall : float;
  op_times : float list;
  work : float;
  digest : string;
  counts : (string * int) list;
}

(* Closed loop over passes until [seconds] have elapsed and at least
   [min_passes] untraced passes ran.  With [traced], traced and untraced
   passes alternate, traced first, at least one of each (the traced run
   reports no end-to-end metrics, so it needs no floor), and both lists
   come back. *)
let loop ~seconds ~min_passes ~untraced ~traced =
  let min_passes = if Option.is_some traced then 1 else min_passes in
  let t0 = now () in
  let rec go us ts i =
    let done_ =
      now () -. t0 >= seconds
      && List.length us >= min_passes
      && match traced with None -> true | Some _ -> ts <> []
    in
    if done_ then (List.rev us, List.rev ts)
    else
      match traced with
      | Some t when i mod 2 = 0 -> go us (t () :: ts) (i + 1)
      | Some _ | None -> go (untraced () :: us) ts (i + 1)
  in
  go [] [] 0

let check_passes r passes =
  match passes with
  | [] -> check r "passes" false "no pass completed"
  | p0 :: rest ->
    List.iteri
      (fun i p ->
        check r
          (Printf.sprintf "pass %d output" (i + 2))
          (p.digest = p0.digest)
          (Printf.sprintf "digest %s, first pass %s" p.digest p0.digest);
        check r
          (Printf.sprintf "pass %d work counts" (i + 2))
          (p.counts = p0.counts) "exact counts differ from the first pass")
      rest

(* --- end-to-end summary ------------------------------------------------ *)

type e2e = {
  setup_s : float;
  setup_n : int;
  peak_rss : float;  (** VmHWM right after the timed passes *)
  model_err : float;
  model_err_n : int;
  alias : string;  (** the workload's own name for [work_per_s] *)
  ops_guaranteed : int;  (** operations per pass x minimum passes *)
}

let end_to_end r e passes =
  let ops = List.concat_map (fun p -> p.op_times) passes in
  let nops = List.length ops in
  let tail = tail_percentile e.ops_guaranteed in
  let work_per_s = median (List.map (fun p -> ratio p.work p.wall) passes) in
  let npasses = List.length passes in
  Printf.printf "pass walls (s):%s\n"
    (String.concat "" (List.map (fun p -> Printf.sprintf " %.3f" p.wall) passes));
  let ms =
    [
      metric "setup_s" "s" e.setup_s ~samples:e.setup_n;
      metric "wall_s" "s" (median (List.map (fun p -> p.wall) passes))
        ~samples:npasses ~note:"median pass";
      metric "work_per_s" "1/s" work_per_s ~samples:npasses
        ~note:("median pass; " ^ e.alias);
      metric "op_p50_ms" "ms" (1000.0 *. median ops) ~samples:nops;
      metric "op_tail_ms" "ms" (1000.0 *. percentile tail ops) ~samples:nops
        ~note:(Printf.sprintf "p%g" tail);
      metric "peak_rss_mb" "MB" e.peak_rss ~note:"VmHWM after the passes";
      metric "model_err_pct" "pp" e.model_err ~samples:e.model_err_n
        ~note:"vs the paper, exact";
    ]
  in
  let alias_metric =
    metric (List.hd (String.split_on_char ' ' e.alias)) "1/s" work_per_s
      ~samples:npasses
  in
  let fail_frac =
    metric "fail_frac" "ratio"
      (ratio (float_of_int r.failed) (float_of_int r.attempted))
      ~samples:r.attempted
  in
  (ms, [ alias_metric; fail_frac ])

(* --- model error against the paper (held-out data) --------------------- *)

(* Mean absolute error, in percentage points, of the simulated 8-core
   region/default and DDmalloc/default throughput ratios against Table 4,
   over [specs] on both machines.  Forces (memo hits on a context that
   already ran them). *)
let php_model_err ctx specs =
  let errs =
    List.concat_map
      (fun (machine : Machine.t) ->
        List.concat_map
          (fun (spec : Spec.t) ->
            match
              Paper.find_row ~machine:machine.Machine.name
                ~workload:spec.Spec.name
            with
            | None -> []
            | Some row ->
              let thr kind =
                (Ctx.run_php ctx ~machine ~cores:8 ~kind ~spec ())
                  .Engine.throughput
              in
              let base = thr Factory.Php_default in
              let paper a = a.Paper.eight_cores /. row.Paper.default_.Paper.eight_cores in
              [
                Float.abs ((thr Factory.Region /. base) -. paper row.Paper.region);
                Float.abs ((thr (Factory.Dd None) /. base) -. paper row.Paper.ddmalloc);
              ])
          specs)
      [ Machine.xeon; Machine.niagara ]
  in
  (100.0 *. sum errs /. float_of_int (List.length errs), List.length errs)

(* §4.4: DDmalloc over glibc and TCmalloc at the standard restart
   period, and the gain of that period over never restarting for glibc
   and DDmalloc. *)
let ruby_model_err ms =
  let find kind restart =
    List.find
      (fun (m : Engine.measurement) ->
        m.Engine.cfg.Engine.kind = kind
        && m.Engine.cfg.Engine.restart_period = restart)
      ms
  in
  (* Hoard runs only at fig10's standard restart period. *)
  let standard =
    (List.find
       (fun (m : Engine.measurement) -> m.Engine.cfg.Engine.kind = Factory.Hoard)
       ms)
      .Engine.cfg.Engine.restart_period
  in
  let thr kind restart = (find kind restart).Engine.throughput in
  let dd = Factory.Dd None in
  let errs =
    [
      (thr dd standard /. thr Factory.Glibc standard) -. 1.0
      -. Paper.ruby_dd_over_glibc;
      (thr dd standard /. thr Factory.Tcmalloc standard) -. 1.0
      -. Paper.ruby_dd_over_tcmalloc;
      (thr dd standard /. thr dd None) -. 1.0 -. Paper.ruby_restart500_gain_dd;
      (thr Factory.Glibc standard /. thr Factory.Glibc None) -. 1.0
      -. Paper.ruby_restart500_gain_glibc;
    ]
  in
  (100.0 *. sum (List.map Float.abs errs) /. 4.0, 4)

let default_seed = 42

(* The paper comparison always simulates the default seed, so it is one
   exact number per simulator version whatever seed the workload ran:
   it moves only when simulated behaviour does. *)
let reference_model_err ~scale runtime =
  let ctx = Ctx.create ~scale ~seed:default_seed () in
  match runtime with
  | `Php specs -> php_model_err ctx specs
  | `Ruby ->
    ruby_model_err
      (List.map (Ctx.force ctx)
         (Mm_experiments.Exp_ruby.plan_fig10 ctx
         @ Mm_experiments.Exp_ruby.plan_fig12 ctx))

(* --- shared pieces of the experiment workloads ------------------------- *)

let dedup keys =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun k ->
      let s = Ctx.store_key k in
      if Hashtbl.mem seen s then false
      else begin
        Hashtbl.add seen s ();
        true
      end)
    keys

(* Exactly what `mmstudy run all` prints per experiment. *)
let render_one (e : Reg.experiment) ctx =
  Printf.printf "### %s — %s\n\n%!" e.Reg.id e.Reg.title;
  e.Reg.render ctx

let experiments ids =
  List.map
    (fun id ->
      match Reg.find id with
      | Some e -> e
      | None -> invalid_arg ("unknown experiment " ^ id))
    ids

let open_store dir =
  Store.open_ ~dir ~fingerprint:Version.sim_fingerprint ()

let store_failures store =
  let h = Store.health store in
  h.Store.read_failures + h.Store.write_failures

let store_retries store =
  let h = Store.health store in
  h.Store.read_retries + h.Store.write_retries

let event_counts ms =
  List.map
    (fun c ->
      ( Events.counter_name c,
        List.fold_left
          (fun acc (m : Engine.measurement) -> acc + Events.total m.Engine.events c)
          0 ms ))
    Events.all_counters

let sim_txns (m : Engine.measurement) = m.Engine.cfg.Engine.warmup_txns + m.Engine.txns

(* Per-layer values of several traced passes: the median of each. *)
let median_metrics = function
  | [] -> []
  | first :: _ as all ->
    List.mapi
      (fun i m ->
        let vs = List.map (fun ms -> (List.nth ms i).value) all in
        { m with value = median vs; samples = List.length vs })
      first

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.major_collections - s0.Gc.major_collections )

let gc_metrics samples =
  let minor = List.map (fun (w, _) -> w) samples in
  let major = List.map (fun (_, c) -> float_of_int c) samples in
  [
    metric "gc.minor_words" "words" (median minor) ~samples:(List.length minor)
      ~note:"per traced pass";
    metric "gc.major_collections" "count" (median major)
      ~samples:(List.length major) ~note:"per traced pass";
    metric "gc.top_heap_mb" "MB"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. (1024.0 *. 1024.0));
  ]

let engine_layer =
  [ ("engine.configs", "count"); ("engine.busy_s", "s"); ("engine.ms_p50", "ms");
    ("engine.ms_p90", "ms"); ("engine.txns", "count"); ("engine.ns_per_txn", "ns");
    ("engine.data_refs", "count"); ("engine.l1d_miss", "count");
    ("engine.l2_miss", "count"); ("engine.dtlb_miss", "count");
    ("engine.bus_txn", "count"); ("engine.minor_words_per_txn", "words");
    ("engine.setup_share", "ratio") ]

(* [forces]: (measurement, seconds, minor words) per simulated config. *)
let engine_metrics forces =
  let ms = List.map (fun (m, _, _) -> m) forces in
  let secs = List.map (fun (_, s, _) -> s) forces in
  let busy = sum secs in
  let txns = float_of_int (List.fold_left (fun a m -> a + sim_txns m) 0 ms) in
  let total c =
    float_of_int
      (List.fold_left
         (fun a (m : Engine.measurement) -> a + Events.total m.Engine.events c)
         0 ms)
  in
  let bus =
    float_of_int
      (List.fold_left
         (fun a (m : Engine.measurement) -> a + Events.bus_transactions m.Engine.events)
         0 ms)
  in
  named engine_layer
    [
      float_of_int (List.length ms); busy; 1000.0 *. median secs;
      1000.0 *. percentile 90.0 secs; txns; ratio (busy *. 1e9) txns;
      total Events.Loads +. total Events.Stores; total Events.L1d_miss;
      total Events.L2_miss; total Events.Dtlb_miss; bus;
      ratio (sum (List.map (fun (_, _, w) -> w) forces)) txns;
      ratio (sum (List.map (fun m -> Layers.setup_seconds m.Engine.cfg) ms)) busy;
    ]

let store_layer =
  [ ("store.write_us_p50", "us"); ("store.write_us_p99", "us");
    ("store.read_us_p50", "us"); ("store.read_us_p99", "us");
    ("store.bytes_per_entry", "B"); ("store.read_hit_ratio", "ratio");
    ("store.retries", "count"); ("store.failures", "count") ]

let store_metrics ~write_us ~(reads : Layers.reads) ~nkeys store =
  named store_layer
    [
      percentile 50.0 write_us; percentile 99.0 write_us;
      percentile 50.0 reads.Layers.read_us; percentile 99.0 reads.Layers.read_us;
      ratio (sum (List.map float_of_int reads.Layers.entry_bytes))
        (float_of_int (List.length reads.Layers.entry_bytes));
      ratio (float_of_int reads.Layers.hits) (float_of_int nkeys);
      float_of_int (store_retries store); float_of_int (store_failures store);
    ]

let context_layer =
  [ ("context.force_us_p50", "us"); ("context.force_us_p99", "us");
    ("context.simulated", "count"); ("context.disk_hits", "count");
    ("context.blob_computed", "count"); ("context.blob_disk_hits", "count") ]

let context_metrics force_secs ctx =
  let us = List.map (fun s -> s *. 1e6) force_secs in
  named context_layer
    [
      percentile 50.0 us; percentile 99.0 us; float_of_int (Ctx.simulated ctx);
      float_of_int (Ctx.disk_hits ctx); float_of_int (Ctx.blob_computed ctx);
      float_of_int (Ctx.blob_disk_hits ctx);
    ]

let registry_layer = [ ("registry.execute_s", "s"); ("registry.render_s", "s") ]

let registry_metrics ~execute_s ~render_s = named registry_layer [ execute_s; render_s ]

let pool_layer =
  [ ("pool.tasks", "count"); ("pool.queue_wait_ms_p50", "ms");
    ("pool.queue_wait_ms_p90", "ms"); ("pool.utilisation", "ratio");
    ("pool.tail_s", "s") ]

let serve_layer =
  [ ("serve.sweeps", "count"); ("serve.attempts", "count");
    ("serve.ns_per_attempt", "ns"); ("serve.sweep_ms_p50", "ms");
    ("serve.sweep_ms_p90", "ms"); ("serve.retry_amplification", "ratio");
    ("serve.goodput_ratio", "ratio") ]

let codec_layer =
  [ ("codec.measurement.encode_us", "us"); ("codec.measurement.decode_us", "us");
    ("codec.sweep.encode_us", "us"); ("codec.sweep.decode_us", "us") ]

(* Measurement and sweep codec costs; the round trip must be exact. *)
let codec_metrics r ms sweeps =
  let m_enc, m_dec, m_ok = Layers.measurement_codec ms in
  let s_enc, s_dec, s_ok = Layers.sweep_codec sweeps in
  check r "measurement codec round trip" m_ok "re-encoding differs";
  check r "sweep codec round trip" s_ok "re-encoding differs";
  named codec_layer [ m_enc; m_dec; s_enc; s_dec ]

(* The split probe for the allocators a workload runs, at the workload's
   own scale, zeros for the others, so every traced run emits the same
   names.  [runs] is the workload's runtime and scale, if it simulates.
   Each variant steps as much work as two transactions at scale 0.05. *)
let split_layer r opts runs =
  let probe allocs spec use_bulk_free scale =
    let txns, rounds =
      if opts.tiny then (1, 1)
      else (Stdlib.max 1 (Float.to_int (Float.round (0.1 /. scale))), 3)
    in
    Layers.split ~allocs ~spec ~scale ~use_bulk_free ~seed:opts.seed ~txns ~rounds
  in
  let emit allocs results =
    List.concat_map
      (fun (label, _) ->
        match List.find_opt (fun (l, _, _) -> l = label) results with
        | None -> Layers.split_metrics label None
        | Some (_, runs, same) ->
          check r ("split variants agree: " ^ label) same
            "observers changed the malloc count";
          Layers.split_metrics label (Some runs))
      allocs
  in
  let php, ruby =
    match runs with
    | Some (`Php, scale) -> (probe Layers.php_allocs Spec.mediawiki_ro true scale, [])
    | Some (`Ruby, scale) -> ([], probe Layers.ruby_allocs Spec.rails false scale)
    | None -> ([], [])
  in
  emit Layers.php_allocs php @ emit Layers.ruby_allocs ruby

let trace_overhead untraced traced =
  let med l = median (List.map (fun p -> p.wall) l) in
  metric "trace_overhead_pct" "%"
    (100.0 *. (ratio (med traced) (med untraced) -. 1.0))
    ~samples:(List.length traced)

(* A fixed small sweep, for the sweep codec on workloads that do not run
   the serving simulator themselves. *)
let reference_sweep (m : Engine.measurement) seed =
  let machine = m.Engine.cfg.Engine.machine in
  let service = Contention.service_seconds ~machine ~measurement:m in
  let cap = Contention.capacity ~cores:machine.Machine.cores service in
  Sweep.run
    {
      Sim.cores = machine.Machine.cores;
      arrival = Arrival.Poisson;
      dispatch = Dispatch.Least_loaded;
      rate = 1.0;
      requests = 500;
      warmup_frac = 0.1;
      seed;
    }
    ~service
    ~rates:(List.map (fun f -> f *. cap) [ 0.5; 0.9; 1.1 ])

(* The pool probe: one more pass of the same plan on [Pool.map] at the
   host's core count, each task wrapped to record which domain ran it and
   when.  Its output must match the one-domain passes byte for byte. *)
let pool_probe r opts ~plan ~render ~out ~scale ~digest =
  let jobs = Pool.default_jobs () in
  let ctx = Ctx.create ~scale ~seed:opts.seed () in
  let keys = plan ctx in
  let t0 = now () in
  let spans =
    Pool.map ~jobs
      (fun k ->
        let s = now () in
        ignore (Ctx.force ctx k : Engine.measurement);
        ((Domain.self () :> int), s, now ()))
      keys
  in
  let makespan = List.fold_left (fun a (_, _, e) -> Float.max a (e -. t0)) 0.0 spans in
  render ctx;
  check r
    (Printf.sprintf "output at -j %d equals -j 1" jobs)
    (md5_file out = digest) "pool pass rendered different bytes";
  let busy = sum (List.map (fun (_, s, e) -> e -. s) spans) in
  let waits = List.map (fun (_, s, _) -> 1000.0 *. (s -. t0)) spans in
  let domains = List.sort_uniq compare (List.map (fun (d, _, _) -> d) spans) in
  let first_idle =
    List.fold_left
      (fun acc d ->
        let last =
          List.fold_left
            (fun a (d', _, e) -> if d' = d then Float.max a (e -. t0) else a)
            0.0 spans
        in
        Float.min acc last)
      makespan domains
  in
  named pool_layer
    [
      float_of_int (List.length spans); percentile 50.0 waits; percentile 90.0 waits;
      ratio busy (float_of_int jobs *. makespan); makespan -. first_idle;
    ]

(* --- cold-php and cold-ruby ------------------------------------------- *)

type cold = {
  exps : string list;
  scale : float;
  min_passes : int;
  runtime : [ `Php | `Ruby ];
}

let cold_php opts =
  {
    exps = (if opts.tiny then [ "fig5" ] else [ "fig5"; "fig7"; "tab4" ]);
    scale = (if opts.tiny then 0.0005 else 0.002);
    min_passes = 3;
    runtime = `Php;
  }

let cold_ruby opts =
  {
    exps = [ "fig10"; "fig11"; "fig12" ];
    scale = (if opts.tiny then 0.0003 else 0.001);
    min_passes = 4;
    runtime = `Ruby;
  }

let run_cold opts r w =
  let exps = experiments w.exps in
  let min_passes = if opts.tiny then 1 else w.min_passes in
  let out = Filename.concat work_dir "render.txt" in
  let store_dir = Filename.concat work_dir "store" in
  let fresh_store () =
    rm_rf store_dir;
    open_store store_dir
  in
  let plan ctx = dedup (List.concat_map (fun (e : Reg.experiment) -> e.Reg.plan ctx) exps) in
  let render ctx = capture_stdout out (fun () -> List.iter (fun e -> render_one e ctx) exps) in
  (* Set-up: a fresh store directory, a context, the plan, and one
     untimed configuration so lazy set-up and heap growth are paid
     before the first timed pass. *)
  let (), setup_s, setup_n =
    repeated_setup opts (fun () ->
        let store = fresh_store () in
        let ctx = Ctx.create ~scale:w.scale ~seed:opts.seed ~store () in
        ignore (Ctx.force ctx (List.hd (plan ctx)) : Engine.measurement))
  in
  rm_rf store_dir;
  let nkeys = ref 0 in
  let finish_pass ~wall ~op_times ms store =
    let failures = store_failures store in
    fail_ops r failures;
    check r "store failures" (failures = 0) (string_of_int failures ^ " abandoned store operations");
    let txns = List.fold_left (fun a m -> a + sim_txns m) 0 ms in
    {
      wall;
      op_times;
      work = float_of_int txns;
      digest = md5_file out;
      counts = ("configs", List.length ms) :: ("txns", txns) :: event_counts ms;
    }
  in
  let untraced () =
    let store = fresh_store () in
    let t0 = now () in
    let ctx = Ctx.create ~scale:w.scale ~seed:opts.seed ~store () in
    let keys = plan ctx in
    let timed =
      List.filter_map
        (fun k ->
          let t = now () in
          Option.map
            (fun m -> (m, now () -. t))
            (attempt r ("simulate " ^ Ctx.key_name k) (fun () -> Ctx.force ctx k)))
        keys
    in
    ignore (attempt r "render" (fun () -> render ctx) : unit option);
    let wall = now () -. t0 in
    nkeys := List.length keys;
    finish_pass ~wall ~op_times:(List.map snd timed) (List.map fst timed) store
  in
  let traces = ref [] in
  (* The same work with each layer boundary timed: the engine through a
     store-less context, then the codec and the store write that the
     context's write-behind would have done.  The pass's entries are read
     back afterwards, outside its wall time. *)
  let traced () =
    let store = fresh_store () in
    let (pass, per_key, ctx, execute_s, render_s), minor, major =
      gc_delta (fun () ->
          let t0 = now () in
          let ctx = Ctx.create ~scale:w.scale ~seed:opts.seed () in
          let per_key =
            List.filter_map
              (fun k ->
                attempt r ("simulate " ^ Ctx.key_name k) (fun () ->
                    let t = now () in
                    let minor0 = Gc.minor_words () in
                    let m = Ctx.force ctx k in
                    let force_s = now () -. t in
                    let minor = Gc.minor_words () -. minor0 in
                    let key = Ctx.store_key k in
                    let data = Engine.measurement_to_string m in
                    let (), write_s = time (fun () -> Store.store store ~key ~data ()) in
                    ((m, force_s, minor), now () -. t, write_s *. 1e6, key)))
              (plan ctx)
          in
          let execute_s = now () -. t0 in
          let (), render_s =
            time (fun () -> ignore (attempt r "render" (fun () -> render ctx) : unit option))
          in
          let ms = List.map (fun ((m, _, _), _, _, _) -> m) per_key in
          let pass =
            finish_pass ~wall:(now () -. t0)
              ~op_times:(List.map (fun (_, s, _, _) -> s) per_key)
              ms store
          in
          (pass, per_key, ctx, execute_s, render_s))
    in
    let keys = List.map (fun (_, _, _, k) -> k) per_key in
    let reads = Layers.store_reads store keys in
    check r "store read-back" (reads.Layers.hits = List.length keys)
      "a freshly written entry did not read back";
    let forces = List.map (fun (f, _, _, _) -> f) per_key in
    let layer =
      engine_metrics forces
      @ store_metrics
          ~write_us:(List.map (fun (_, _, w, _) -> w) per_key)
          ~reads ~nkeys:(List.length keys) store
      @ context_metrics (List.map (fun (_, s, _) -> s) forces) ctx
      @ registry_metrics ~execute_s ~render_s
    in
    traces := (layer, (minor, major)) :: !traces;
    pass
  in
  (* Cold -> warm: a fresh context over the first pass's store must render
     the same bytes without simulating. *)
  let first = untraced () in
  let warm_ctx = Ctx.create ~scale:w.scale ~seed:opts.seed ~store:(open_store store_dir) () in
  List.iter (fun k -> ignore (Ctx.force warm_ctx k : Engine.measurement)) (plan warm_ctx);
  render warm_ctx;
  check r "cold -> warm render" (md5_file out = first.digest) "store-served output differs";
  check r "cold -> warm simulations" (Ctx.simulated warm_ctx = 0)
    (string_of_int (Ctx.simulated warm_ctx) ^ " re-simulated");
  fail_ops r (Ctx.simulated warm_ctx);
  let us, ts =
    loop ~seconds:(Float.max 0.0 (opts.seconds -. first.wall))
      ~min_passes:(Stdlib.max 0 (min_passes - 1)) ~untraced
      ~traced:(if opts.trace then Some traced else None)
  in
  let passes = first :: us in
  check_passes r (passes @ ts);
  let peak_rss = peak_rss_mb () in
  (* Memo hits: the check above forced every planned key. *)
  let ms = List.map (Ctx.force warm_ctx) (plan warm_ctx) in
  let model_err, model_err_n =
    reference_model_err ~scale:w.scale
      (match w.runtime with `Php -> `Php Spec.php_apps | `Ruby -> `Ruby)
  in
  let e2e =
    end_to_end r
      {
        setup_s;
        setup_n;
        peak_rss;
        model_err;
        model_err_n;
        alias = "sim_txn_per_s (simulated transactions, warm-up included)";
        ops_guaranteed = !nkeys * min_passes;
      }
      passes
  in
  let outputs =
    Obj
      [
        ("render_md5", Str first.digest);
        ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) first.counts));
      ]
  in
  let layers =
    if not opts.trace then []
    else begin
      let pool = pool_probe r opts ~plan ~render ~out ~scale:w.scale ~digest:first.digest in
      let split =
        split_layer r opts (Some (w.runtime, w.scale))
      in
      median_metrics (List.map fst !traces) @ pool @ split
      @ [ metric "perf_model.solve_us" "us" (Layers.perf_model_solve_us ms);
          metric "serve.contention_us" "us" 0.0 ]
      @ codec_metrics r ms [ reference_sweep (List.hd ms) opts.seed ]
      @ zeros serve_layer
      @ gc_metrics (List.map snd !traces)
      @ [ trace_overhead passes ts ]
    end
  in
  rm_rf store_dir;
  (e2e, layers, outputs, [ ("scale", Num w.scale); ("experiments", Str (String.concat "," w.exps)) ])

(* --- warm-rerun -------------------------------------------------------- *)

(* Entries are read at the same cost whatever scale they were simulated
   at, so the store is populated at a small one. *)
let warm_scale = 0.0003

let run_warm opts r =
  let out = Filename.concat work_dir "render.txt" in
  let store_dir = Filename.concat work_dir "store" in
  let min_passes = if opts.tiny then 2 else 10 in
  (* Set-up: populate a fresh store with `run all`, remembering what the
     cold run printed.  It runs in a child process, as a user's earlier
     cold run would have, so its simulations do not count toward this
     process's peak memory. *)
  let (), setup_s, setup_n =
    repeated_setup ~reps:3 opts (fun () ->
        rm_rf store_dir;
        flush_all ();
        match Unix.fork () with
        | 0 ->
          let ctx =
            Ctx.create ~scale:warm_scale ~seed:opts.seed ~store:(open_store store_dir) ()
          in
          let code =
            match capture_stdout out (fun () -> Reg.run_all ~jobs:1 ctx) with
            | () -> 0
            | exception _ -> 1
          in
          Unix._exit code
        | child -> (
          match Unix.waitpid [] child with
          | _, Unix.WEXITED 0 -> ()
          | _ -> failwith "warm-rerun set-up: populating the store failed"))
  in
  let store = open_store store_dir in
  let cold_digest = md5_file out in
  let nkeys = ref 0 in
  let pass ~traced () =
    let t0 = now () in
    let ctx = Ctx.create ~scale:warm_scale ~seed:opts.seed ~store () in
    let keys = dedup (Reg.plan_all ctx) in
    let forces =
      List.filter_map
        (fun k ->
          let t = now () in
          Option.map
            (fun (_ : Engine.measurement) -> now () -. t)
            (attempt r ("read " ^ Ctx.key_name k) (fun () -> Ctx.force ctx k)))
        keys
    in
    let execute_s = now () -. t0 in
    let renders =
      capture_stdout out (fun () ->
          List.map
            (fun (e : Reg.experiment) ->
              if traced then snd (time (fun () -> render_one e ctx))
              else (render_one e ctx; 0.0))
            Reg.all)
    in
    let wall = now () -. t0 in
    (* A warm pass that simulates or recomputes a blob has missed the
       store: that is a failed operation, not a slow one. *)
    let resim = Ctx.simulated ctx + Ctx.blob_computed ctx in
    fail_ops r resim;
    check r "warm pass simulated nothing" (resim = 0)
      (Printf.sprintf "%d simulations, %d blobs computed" (Ctx.simulated ctx)
         (Ctx.blob_computed ctx));
    let digest = md5_file out in
    check r "warm output = cold output" (digest = cold_digest) "render differs";
    nkeys := List.length keys;
    let blobs = Ctx.blob_disk_hits ctx in
    ( {
        wall;
        op_times = forces;
        work = float_of_int (List.length keys + blobs);
        digest;
        counts = [ ("keys", List.length keys); ("blob_hits", blobs); ("disk_hits", Ctx.disk_hits ctx) ];
      },
      if traced then
        context_metrics forces ctx @ registry_metrics ~execute_s ~render_s:(sum renders)
      else [] )
  in
  (* Untimed warm-up pass. *)
  ignore (pass ~traced:false ());
  let traces = ref [] in
  let traced () =
    let (p, layer), minor, major = gc_delta (pass ~traced:true) in
    traces := (layer, (minor, major)) :: !traces;
    p
  in
  let us, ts =
    loop ~seconds:opts.seconds ~min_passes
      ~untraced:(fun () -> fst (pass ~traced:false ()))
      ~traced:(if opts.trace then Some traced else None)
  in
  check_passes r (us @ ts);
  (* Before the model error below simulates: this is the peak of the
     reads, codec, memo and render, not of the engine. *)
  let peak_rss = peak_rss_mb () in
  let ctx = Ctx.create ~scale:warm_scale ~seed:opts.seed ~store () in
  let keys = dedup (Reg.plan_all ctx) in
  let ms = List.map (Ctx.force ctx) keys in
  let model_err, model_err_n =
    reference_model_err ~scale:warm_scale (`Php Spec.php_apps)
  in
  let e2e =
    end_to_end r
      {
        setup_s;
        setup_n;
        peak_rss;
        model_err;
        model_err_n;
        alias = "keys_per_s (planned measurements + serve blobs resolved)";
        ops_guaranteed = !nkeys * min_passes;
      }
      us
  in
  let layers =
    if not opts.trace then []
    else begin
      let store_keys = List.map Ctx.store_key keys in
      let reads = Layers.store_reads store store_keys in
      check r "warm read hit ratio" (reads.Layers.hits = List.length keys)
        "store missed a populated key";
      zeros engine_layer
      @ store_metrics ~write_us:[] ~reads ~nkeys:(List.length keys) store
      @ median_metrics (List.map fst !traces)
      @ zeros pool_layer
      @ split_layer r opts None
      @ [ metric "perf_model.solve_us" "us" (Layers.perf_model_solve_us ms);
          metric "serve.contention_us" "us" 0.0 ]
      @ codec_metrics r ms [ reference_sweep (List.hd ms) opts.seed ]
      @ zeros serve_layer
      @ gc_metrics (List.map snd !traces)
      @ [ trace_overhead us ts ]
    end
  in
  rm_rf store_dir;
  ( e2e,
    layers,
    Obj [ ("render_md5", Str cold_digest); ("keys", Int !nkeys) ],
    [ ("scale", Num warm_scale); ("experiments", Str "all") ] )

(* --- serve-sweep ------------------------------------------------------- *)

(* Offered load as fractions of the default allocator's capacity on each
   machine; the grid crosses capacity so every sweep saturates at its
   end, and the resilient policy times out, retries and sheds there. *)
let fractions = [ 0.5; 0.7; 0.8; 0.9; 1.0; 1.1; 1.3 ]

let serve_scale = 0.002

type sweep_spec = {
  label : string;
  policy : Policy.t;
  cfg : Sim.config;
  service : float array;
  rates : float list;
}

let run_serve opts r =
  let requests = if opts.tiny then 400 else 12_000 in
  let min_passes = if opts.tiny then 1 else 5 in
  (* Set-up: the 8-core MediaWiki measurements of the three PHP
     allocators on both machines, and their contention tables. *)
  let (ms, sweeps, contention_us), setup_s, setup_n =
    repeated_setup opts (fun () ->
        let ctx = Ctx.create ~scale:serve_scale ~seed:opts.seed () in
        let per_machine =
          List.map
            (fun (machine : Machine.t) ->
              let tables =
                List.map
                  (fun (label, kind) ->
                    let m =
                      Ctx.run_php ctx ~machine ~cores:8 ~kind ~spec:Spec.mediawiki_ro ()
                    in
                    let service, dt =
                      time (fun () -> Contention.service_seconds ~machine ~measurement:m)
                    in
                    (label, m, service, dt *. 1e6))
                  Layers.php_allocs
              in
              let _, _, default_service, _ = List.hd tables in
              let cap = Contention.capacity ~cores:8 default_service in
              let resilient =
                Policy.make ~deadline:(25.0 *. default_service.(7)) ~max_retries:3
                  ~jitter:0.5 ~admission:(Policy.Queue_limit 16) ()
              in
              let sweeps =
                List.concat_map
                  (fun (label, _, service, _) ->
                    List.concat_map
                      (fun arrival ->
                        List.map
                          (fun (pname, policy) ->
                            {
                              label =
                                String.concat "/"
                                  [ machine.Machine.name; label; Arrival.name arrival; pname ];
                              policy;
                              cfg =
                                {
                                  Sim.cores = 8;
                                  arrival;
                                  dispatch = Dispatch.Least_loaded;
                                  rate = 1.0;
                                  requests;
                                  warmup_frac = 0.1;
                                  seed = opts.seed;
                                };
                              service;
                              rates = List.map (fun f -> f *. cap) fractions;
                            })
                          [ ("none", Policy.none); ("resilient", resilient) ])
                      [ Arrival.Poisson; Arrival.Bursty ])
                  tables
              in
              (tables, sweeps))
            [ Machine.xeon; Machine.niagara ]
        in
        let tables = List.concat_map fst per_machine in
        ( List.map (fun (_, m, _, _) -> m) tables,
          List.concat_map snd per_machine,
          median (List.map (fun (_, _, _, us) -> us) tables) ))
  in
  let attempts_of points s =
    List.fold_left
      (fun a (p : Sweep.point) ->
        a + int_of_float (Float.round (p.Sweep.amplification *. float_of_int s.cfg.Sim.requests)))
      0 points
  in
  let digest_of payloads = md5_string (String.concat "\n" payloads) in
  let last_points = ref [] in
  let pass () =
    let t0 = now () in
    let results =
      List.filter_map
        (fun s ->
          let t = now () in
          Option.map
            (fun points -> (points, now () -. t, s))
            (attempt r ("sweep " ^ s.label) (fun () ->
                 Sweep.run ~policy:s.policy s.cfg ~service:s.service ~rates:s.rates)))
        sweeps
    in
    let wall = now () -. t0 in
    (* Without a policy nothing times out, sheds or retries. *)
    List.iter
      (fun (points, _, s) ->
        if Policy.is_none s.policy then
          check r ("plain sweep " ^ s.label)
            (List.for_all
               (fun (p : Sweep.point) ->
                 p.Sweep.amplification = 1.0 && p.Sweep.shed_rate = 0.0
                 && p.Sweep.timeout_rate = 0.0 && p.Sweep.failed = 0)
               points)
            "a sweep without a policy retried, shed or timed out")
      results;
    last_points := List.map (fun (p, _, _) -> p) results;
    let attempts = List.fold_left (fun a (p, _, s) -> a + attempts_of p s) 0 results in
    {
      wall;
      op_times = List.map (fun (_, t, _) -> t) results;
      work = float_of_int attempts;
      digest = digest_of (List.map (fun (p, _, _) -> Sweep.points_to_string p) results);
      counts = [ ("sweeps", List.length results); ("attempts", attempts) ];
    }
  in
  (* The traced pass drives the same simulations one offered rate at a
     time through [Sim.run], which exposes the exact attempt, goodput and
     request counts that [Sweep.point] condenses away. *)
  let traces = ref [] in
  let traced () =
    let (p, layer), minor, major =
      gc_delta (fun () ->
          let t0 = now () in
          let results =
            List.filter_map
              (fun s ->
                attempt r ("sweep " ^ s.label) (fun () ->
                    let t = now () in
                    let outcomes =
                      List.map
                        (fun rate -> Sim.run ~policy:s.policy { s.cfg with Sim.rate } ~service:s.service)
                        s.rates
                    in
                    (outcomes, now () -. t)))
              sweeps
          in
          let wall = now () -. t0 in
          let outcomes = List.concat_map fst results in
          let total f = List.fold_left (fun a o -> a + f o) 0 outcomes in
          let attempts = total (fun o -> o.Sim.attempts) in
          let requests = total (fun o -> o.Sim.o_config.Sim.requests) in
          let secs = List.map snd results in
          let points =
            List.map (fun (os, _) -> Sweep.points_to_string (List.map Sweep.point_of_outcome os)) results
          in
          ( {
              wall;
              op_times = secs;
              work = float_of_int attempts;
              digest = digest_of points;
              counts = [ ("sweeps", List.length results); ("attempts", attempts) ];
            },
            named serve_layer
              [
                float_of_int (List.length results); float_of_int attempts;
                ratio (sum secs *. 1e9) (float_of_int attempts);
                1000.0 *. median secs; 1000.0 *. percentile 90.0 secs;
                ratio (float_of_int attempts) (float_of_int requests);
                ratio (float_of_int (total (fun o -> o.Sim.ok))) (float_of_int attempts);
              ] ))
    in
    traces := (layer, (minor, major)) :: !traces;
    p
  in
  (* Untimed warm-up: one sweep. *)
  ignore (Sweep.run ~policy:(List.hd sweeps).policy (List.hd sweeps).cfg
            ~service:(List.hd sweeps).service ~rates:[ List.hd (List.hd sweeps).rates ]);
  let us, ts =
    loop ~seconds:opts.seconds ~min_passes ~untraced:pass
      ~traced:(if opts.trace then Some traced else None)
  in
  check_passes r (us @ ts);
  let peak_rss = peak_rss_mb () in
  let model_err, model_err_n =
    reference_model_err ~scale:serve_scale (`Php [ Spec.mediawiki_ro ])
  in
  let e2e =
    end_to_end r
      {
        setup_s;
        setup_n;
        peak_rss;
        model_err;
        model_err_n;
        alias = "serve_attempts_per_s (simulated request attempts)";
        ops_guaranteed = List.length sweeps * min_passes;
      }
      us
  in
  let first = List.hd us in
  let layers =
    if not opts.trace then []
    else begin
      zeros engine_layer
      @ zeros store_layer
      @ zeros context_layer
      @ zeros registry_layer
      @ zeros pool_layer
      @ split_layer r opts None
      @ [ metric "perf_model.solve_us" "us" (Layers.perf_model_solve_us ms);
          metric "serve.contention_us" "us" contention_us ~samples:(List.length ms) ]
      @ codec_metrics r ms !last_points
      @ median_metrics (List.map fst !traces)
      @ gc_metrics (List.map snd !traces)
      @ [ trace_overhead us ts ]
    end
  in
  ( e2e,
    layers,
    Obj [ ("sweeps_md5", Str first.digest);
          ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) first.counts)) ],
    [ ("scale", Num serve_scale); ("requests", Int requests) ] )

(* --- command line and output ------------------------------------------ *)

let workloads = [ "cold-php"; "cold-ruby"; "warm-rerun"; "serve-sweep" ]

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]"

let parse_args () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " workload seed (default 42)");
      ("--seconds", Arg.Set_float seconds, " measure for at least this long");
      ("--trace", Arg.Set_int trace, " 1: traced run, per-layer metrics");
      ("--tiny", Arg.Set tiny, " self-test size");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown or missing --workload; " ^ usage);
    exit 2
  end;
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    tiny = !tiny;
  }

let () =
  let opts = parse_args () in
  mkdir_p work_dir;
  let r = { attempted = 0; failed = 0; checks_run = 0; check_failures = [] } in
  let (e2e, extra), layers, outputs, params =
    Fun.protect
      ~finally:(fun () -> rm_rf work_dir)
      (fun () ->
        match opts.workload with
        | "cold-php" -> run_cold opts r (cold_php opts)
        | "cold-ruby" -> run_cold opts r (cold_ruby opts)
        | "warm-rerun" -> run_warm opts r
        | _ -> run_serve opts r)
  in
  Printf.printf "== %s seed %d (%s run) ==\n" opts.workload opts.seed
    (if opts.trace then "traced" else "untraced");
  List.iter (print_metric "e2e ") (e2e @ extra);
  List.iter (print_metric "layer") layers;
  let provenance =
    Obj
      ([
         ("fingerprint", Str Version.sim_fingerprint);
         ("ocaml", Str Sys.ocaml_version);
         ("nproc", Int (Domain.recommended_domain_count ()));
         ("jobs", Int 1);
         ("pool_jobs", Int (Pool.default_jobs ()));
         ("seed", Int opts.seed);
         ("workload", Str opts.workload);
         ("tiny", Bool opts.tiny);
       ]
      @ params)
  in
  print_endline
    (json_string
       (Obj
          [
            ("provenance", provenance);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("checks_run", Int r.checks_run);
            ( "check_failures",
              Arr (List.rev_map (fun (n, d) -> Obj [ ("name", Str n); ("detail", Str d) ]) r.check_failures) );
            ("outputs", outputs);
            ("end_to_end", metrics_json (e2e @ extra));
            ("per_layer", metrics_json layers);
          ]))
