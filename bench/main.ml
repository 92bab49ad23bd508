(* Bechamel microbenchmarks of the allocator implementations themselves:
   host wall-clock time of malloc/free in the simulated heap, observers
   detached, and of one access through the memory-hierarchy simulator.
   Prints three tables (`dune exec bench/main.exe`); perfbench/run.py
   reads their rows into its per-layer ledger.  The paper's evaluation is
   `mmstudy run all`. *)

let make_heap kind =
  let mem = Mm_memsim.Memory.create () in
  let os = Mm_memsim.Os_layer.create mem in
  Mm_runtime.Alloc_factory.create kind ~os ~mem ~pid:0

(* A malloc/free churn loop: allocate into a ring of 256 slots, freeing
   the previous occupant — the steady-state hot path of a transaction. *)
let churn kind =
  let h = make_heap kind in
  let module A = Core.Allocator in
  let slots = Array.make 256 0 in
  let cursor = ref 0 in
  let sizes = [| 16; 24; 32; 48; 64; 96; 128; 200; 320; 512 |] in
  let tick = ref 0 in
  let free_supported = h.A.h_caps.A.per_object_free in
  fun () ->
    let i = !cursor in
    if slots.(i) <> 0 then
      if free_supported then h.A.h_free ~addr:slots.(i)
      else if h.A.h_caps.A.bulk_free && i = 0 then begin
        Array.fill slots 0 256 0;
        h.A.h_free_all ()
      end;
    incr tick;
    slots.(i) <- h.A.h_malloc ~size:sizes.(!tick land 7);
    cursor := (i + 1) land 255

let malloc_free_tests =
  List.map
    (fun kind ->
      Bechamel.Test.make
        ~name:(Mm_runtime.Alloc_factory.kind_name kind)
        (Bechamel.Staged.stage (churn kind)))
    Mm_runtime.Alloc_factory.all_kinds

let free_all_tests =
  List.filter_map
    (fun kind ->
      let h = make_heap kind in
      let module A = Core.Allocator in
      if not h.A.h_caps.A.bulk_free then None
      else
        Some
          (Bechamel.Test.make
             ~name:(Mm_runtime.Alloc_factory.kind_name kind)
             (Bechamel.Staged.stage (fun () ->
                  for _ = 1 to 64 do
                    ignore (h.A.h_malloc ~size:64)
                  done;
                  h.A.h_free_all ()))))
    Mm_runtime.Alloc_factory.all_kinds

let cache_access_test =
  let mem = Mm_memsim.Memory.create () in
  let cs =
    Mm_cachesim.Cache_system.create ~machine:Mm_cachesim.Machine.xeon
      ~active_cores:8 ~large_page_heap:false
  in
  Mm_cachesim.Cache_system.attach cs mem;
  let i = ref 0 in
  Bechamel.Test.make ~name:"cache-system access"
    (Bechamel.Staged.stage (fun () ->
         incr i;
         Mm_memsim.Memory.touch mem ~kind:Mm_memsim.Access.Load
           ~addr:((1 lsl 32) + (!i * 64 land 0xFFFFF))
           ~bytes:8))

let () =
  print_endline "=== Microbenchmarks (host ns per operation) ===\n";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let run_group title tests =
    let grouped = Test.make_grouped ~name:title tests in
    let raw = Benchmark.all cfg instances grouped in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let table =
      Mm_stats.Table.create ~title
        ~columns:[ ("benchmark", Mm_stats.Table.Left); ("ns/op", Mm_stats.Table.Right) ]
    in
    let rows = ref [] in
    Hashtbl.iter
      (fun name ols_result ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> Printf.sprintf "%.1f" v
          | Some [] | None -> "-"
        in
        rows := (name, ns) :: !rows)
      results;
    List.iter
      (fun (name, ns) -> Mm_stats.Table.add_row table [ name; ns ])
      (List.sort compare !rows);
    Mm_stats.Table.print table
  in
  run_group "malloc/free churn (ring of 256 live objects)" malloc_free_tests;
  run_group "64 mallocs + freeAll (transaction epilogue)" free_all_tests;
  run_group "memory-hierarchy simulator" [ cache_access_test ]
