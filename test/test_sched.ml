(* The scheduler layer: the domain pool's ordering/exception contract,
   and the Context execute stage built on it — parallel prefetch must be
   observationally identical to sequential Engine.run, and each
   configuration must be simulated at most once per process. *)

module Pool = Mm_sched.Pool
module Ctx = Mm_experiments.Context
module Registry = Mm_experiments.Registry
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Engine = Mm_runtime.Engine
module Spec = Mm_workload.Spec

(* --- Pool --- *)

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "squares in submission order at jobs=%d" jobs)
        (List.map (fun x -> x * x) xs)
        (Pool.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 13 ]

let test_map_runs_on_worker_domains () =
  (* With 4 workers and 64 tasks, results must come back in order even
     though several distinct domains execute them. *)
  let self () = (Domain.self () :> int) in
  let caller = self () in
  let domains = Pool.map ~jobs:4 (fun _ -> self ()) (List.init 64 Fun.id) in
  let distinct = List.sort_uniq compare domains in
  Alcotest.(check bool)
    "tasks ran off the calling domain" false
    (List.mem caller domains);
  Alcotest.(check bool)
    (Printf.sprintf "at least one worker domain (got %d)"
       (List.length distinct))
    true
    (List.length distinct >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "at most 4 worker domains (got %d)"
       (List.length distinct))
    true
    (List.length distinct <= 4)

let test_two_tasks_run_concurrently () =
  (* Each task waits until both have started; this only terminates if the
     pool really runs them on two domains at once. *)
  let m = Mutex.create () in
  let c = Condition.create () in
  let started = ref 0 in
  let rendezvous () =
    Mutex.lock m;
    incr started;
    Condition.broadcast c;
    while !started < 2 do
      Condition.wait c m
    done;
    Mutex.unlock m;
    !started
  in
  Alcotest.(check (list int))
    "both tasks met" [ 2; 2 ]
    (Pool.run ~jobs:2 [ rendezvous; rendezvous ])

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "first failure re-raised at jobs=%d" jobs)
        (Failure "boom") (fun () ->
          ignore
            (Pool.map ~jobs
               (fun x -> if x = 5 then failwith "boom" else x)
               (List.init 20 Fun.id))))
    [ 1; 4 ]

let test_exception_barrier_finishes_others () =
  (* Every non-failing task still runs: the counter reaches 19 even
     though task 5 fails. *)
  let done_count = ref 0 in
  let m = Mutex.create () in
  (try
     ignore
       (Pool.map ~jobs:4
          (fun x ->
            if x = 5 then failwith "boom"
            else begin
              Mutex.lock m;
              incr done_count;
              Mutex.unlock m
            end)
          (List.init 20 Fun.id))
   with Failure _ -> ());
  Alcotest.(check int) "19 tasks completed" 19 !done_count

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 Fun.id []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~jobs:4 Fun.id [ 7 ])

let test_default_jobs_sane () =
  let j = Pool.default_jobs () in
  Alcotest.(check bool)
    (Printf.sprintf "1 <= %d <= 16" j)
    true (j >= 1 && j <= 16)

(* --- Context execute stage --- *)

let spec = Spec.mediawiki_ro

let test_prefetch_matches_sequential_engine () =
  (* Measurements produced through a 4-domain prefetch must equal a
     direct sequential Engine.run of the same configuration. *)
  let scale = 0.03 and seed = 42 in
  let ctx = Ctx.create ~scale ~seed () in
  let keys =
    List.concat_map
      (fun cores ->
        List.map
          (fun kind -> Ctx.php_key ctx ~machine:Machine.xeon ~cores ~kind ~spec ())
          [ Factory.Php_default; Factory.Region; Factory.Dd None ])
      [ 1; 8 ]
  in
  Ctx.prefetch ctx ~jobs:4 keys;
  List.iter
    (fun cores ->
      List.iter
        (fun kind ->
          let via_pool =
            Ctx.run_php ctx ~machine:Machine.xeon ~cores ~kind ~spec ()
          in
          let direct =
            Engine.run
              (Engine.config ~machine:Machine.xeon ~active_cores:cores ~kind
                 ~spec ~scale ~large_page_heap:false ~seed ())
          in
          let label what =
            Printf.sprintf "%s (%s, %d cores)" what
              (Factory.kind_name kind) cores
          in
          Alcotest.(check (float 0.0))
            (label "throughput") direct.Engine.throughput
            via_pool.Engine.throughput;
          Alcotest.(check (float 0.0))
            (label "cycles/txn")
            direct.Engine.perf.Mm_cachesim.Perf_model.cycles_per_txn
            via_pool.Engine.perf.Mm_cachesim.Perf_model.cycles_per_txn;
          Alcotest.(check int) (label "txns") direct.Engine.txns
            via_pool.Engine.txns)
        [ Factory.Php_default; Factory.Region; Factory.Dd None ])
    [ 1; 8 ]

let test_prefetch_simulates_each_key_once () =
  let ctx = Ctx.create ~scale:0.02 () in
  let key () =
    Ctx.php_key ctx ~machine:Machine.xeon ~cores:1 ~kind:Factory.Php_default
      ~spec ()
  in
  (* Eight concurrent requests for the same configuration... *)
  Ctx.prefetch ctx ~jobs:4 (List.init 8 (fun _ -> key ()));
  Alcotest.(check int) "one simulation" 1 (Ctx.simulated ctx);
  (* ...and later sequential reads still hit the cache. *)
  ignore
    (Ctx.run_php ctx ~machine:Machine.xeon ~cores:1 ~kind:Factory.Php_default
       ~spec ());
  Ctx.prefetch ctx ~jobs:4 [ key () ];
  Alcotest.(check int) "still one simulation" 1 (Ctx.simulated ctx)

let test_concurrent_force_dedups () =
  (* Two domains racing to force the same key must share one run. *)
  let ctx = Ctx.create ~scale:0.02 () in
  let key = Ctx.php_key ctx ~machine:Machine.xeon ~cores:1
      ~kind:Factory.Php_default ~spec () in
  let results = Pool.run ~jobs:2 [ (fun () -> Ctx.force ctx key); (fun () -> Ctx.force ctx key) ] in
  (match results with
  | [ a; b ] ->
    Alcotest.(check bool) "same measurement object" true (a == b)
  | _ -> Alcotest.fail "expected two results");
  Alcotest.(check int) "one simulation" 1 (Ctx.simulated ctx)

let test_plan_covers_render () =
  (* Prefetching an experiment's plan must leave nothing for its render
     to simulate: the render is then a pure read of the memo table.  A
     plan that drifts from its render fails here instead of silently
     simulating during the render. *)
  let ctx = Ctx.create ~scale:0.002 () in
  List.iter
    (fun e ->
      Ctx.prefetch ctx ~jobs:2 (e.Registry.plan ctx);
      let before = Ctx.simulated ctx in
      e.Registry.render ctx;
      Alcotest.(check int)
        (e.Registry.id ^ ": render simulated nothing new")
        before (Ctx.simulated ctx))
    Registry.all

let test_plan_all_nonempty () =
  let ctx = Ctx.create ~scale:0.02 () in
  List.iter
    (fun e ->
      if e.Registry.id <> "tab1" then
        Alcotest.(check bool)
          (e.Registry.id ^ " has a non-empty plan")
          true
          (e.Registry.plan ctx <> []))
    Registry.all

let () =
  Alcotest.run "mm_sched"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "runs on worker domains" `Quick
            test_map_runs_on_worker_domains;
          Alcotest.test_case "two tasks run concurrently" `Quick
            test_two_tasks_run_concurrently;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "exception barrier" `Quick
            test_exception_barrier_finishes_others;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "default jobs sane" `Quick test_default_jobs_sane;
        ] );
      ( "context-execute",
        [
          Alcotest.test_case "parallel prefetch = sequential engine" `Slow
            test_prefetch_matches_sequential_engine;
          Alcotest.test_case "prefetch simulates each key once" `Quick
            test_prefetch_simulates_each_key_once;
          Alcotest.test_case "concurrent force dedups" `Quick
            test_concurrent_force_dedups;
          Alcotest.test_case "plans cover renders" `Slow
            test_plan_covers_render;
          Alcotest.test_case "all plans non-empty" `Quick
            test_plan_all_nonempty;
        ] );
    ]
