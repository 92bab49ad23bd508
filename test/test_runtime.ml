(* Tests for the measurement engine and the allocator factory. *)

module Engine = Mm_runtime.Engine
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Events = Mm_cachesim.Events
module Perf = Mm_cachesim.Perf_model
module Spec = Mm_workload.Spec

let quick_cfg ?(kind = Factory.Dd None) ?(cores = 2) ?(machine = Machine.xeon)
    ?restart_period ?(use_bulk_free = true) () =
  Engine.config ~machine ~active_cores:cores ~kind ~spec:Spec.phpbb ~scale:0.02
    ~warmup_txns:2 ~measure_txns:6 ~processes:2 ?restart_period ~use_bulk_free
    ()

(* --- factory --- *)

let test_factory_names_roundtrip () =
  List.iter
    (fun kind ->
      match Factory.of_name (Factory.kind_name kind) with
      | None -> Alcotest.failf "of_name failed for %s" (Factory.kind_name kind)
      | Some k ->
        Alcotest.(check string) "roundtrip" (Factory.kind_name kind)
          (Factory.kind_name k))
    Factory.all_kinds

let test_factory_code_bases_distinct () =
  let bases = List.map Factory.code_base Factory.all_kinds in
  let sorted = List.sort_uniq compare bases in
  Alcotest.(check int) "all distinct" (List.length bases) (List.length sorted);
  List.iter
    (fun b ->
      Alcotest.(check bool) "above app code" true (b >= Factory.app_code_base))
    bases

(* Literal names and code bases: a mis-derived slot moves every simulated
   code address, and the store-key golden plans neither obstack nor reaps,
   so only this test would see it there. *)
let pinned : (Factory.kind * string * int * (module Core.Allocator.S)) list =
  let module B = Mm_baselines in
  [
    (Factory.Dd None, "ddmalloc", 0x20000400000, (module Core.Ddmalloc));
    (Factory.Region, "region", 0x20000440000, (module B.Region_alloc));
    (Factory.Obstack, "obstack", 0x20000480000, (module B.Obstack_alloc));
    (Factory.Php_default, "php-default", 0x200004c0000, (module B.Php_malloc));
    (Factory.Glibc, "glibc", 0x20000500000, (module B.Dl_malloc));
    (Factory.Hoard, "hoard", 0x20000540000, (module B.Hoard_malloc));
    (Factory.Tcmalloc, "tcmalloc", 0x20000580000, (module B.Tc_malloc));
    (Factory.Reaps, "reaps", 0x200005c0000, (module B.Reap_malloc));
  ]

let test_allocator_table_pinned () =
  Alcotest.(check (list string)) "all_kinds in slot order"
    (List.map (fun (_, name, _, _) -> name) pinned)
    (List.map Factory.kind_name Factory.all_kinds);
  List.iter
    (fun (kind, name, base, (module M : Core.Allocator.S)) ->
      Alcotest.(check string) "kind_name" name (Factory.kind_name kind);
      Alcotest.(check string) "module name" name M.name;
      Alcotest.(check int) (name ^ " code_base") base (Factory.code_base kind);
      Alcotest.(check bool) (name ^ " of_name") true
        (Factory.of_name name = Some kind);
      Alcotest.(check bool) (name ^ " capabilities") true
        (Factory.capabilities kind = M.capabilities);
      Alcotest.(check int) (name ^ " code_size") M.code_size
        (Factory.code_size kind))
    pinned;
  (* A configured DDmalloc shares the family's slot. *)
  Alcotest.(check int) "configured ddmalloc slot" 0x20000400000
    (Factory.code_base
       (Factory.Dd (Some (Core.Ddmalloc.config ~large_pages:true ()))))

(* --- engine --- *)

let test_engine_runs_and_measures () =
  let m = Engine.run (quick_cfg ()) in
  Alcotest.(check int) "measured txns" 6 m.Engine.txns;
  Alcotest.(check bool) "throughput positive" true (m.Engine.throughput > 0.0);
  Alcotest.(check bool) "instructions recorded" true
    (Events.total m.Engine.events Events.Instructions > 0);
  Alcotest.(check bool) "mallocs per txn close to spec" true
    (let expected =
       float_of_int (Spec.scaled Spec.phpbb ~scale:0.02).Spec.mallocs
     in
     Float.abs (m.Engine.mallocs_per_txn -. expected) < 2.0)

let test_engine_determinism () =
  let run () =
    let m = Engine.run (quick_cfg ()) in
    ( m.Engine.throughput,
      Events.total m.Engine.events Events.L1d_miss,
      Events.total m.Engine.events Events.L2_miss )
  in
  Alcotest.(check bool) "same seed, same result" true (run () = run ())

let test_engine_seed_sensitivity () =
  let with_seed seed =
    let cfg = quick_cfg () in
    Engine.run { cfg with Engine.seed }
  in
  let a = with_seed 1 and b = with_seed 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Events.total a.Engine.events Events.L1d_miss
    <> Events.total b.Engine.events Events.L1d_miss)

let test_engine_all_allocators_run () =
  List.iter
    (fun kind ->
      let use_bulk_free =
        (* glibc/hoard/tcmalloc have no freeAll: run them in Ruby mode. *)
        match kind with
        | Factory.Glibc | Factory.Hoard | Factory.Tcmalloc -> false
        | _ -> true
      in
      let m = Engine.run (quick_cfg ~kind ~use_bulk_free ()) in
      Alcotest.(check bool)
        (Factory.kind_name kind ^ " runs")
        true
        (m.Engine.throughput > 0.0))
    Factory.all_kinds

let test_engine_niagara_runs () =
  let m = Engine.run (quick_cfg ~machine:Machine.niagara ()) in
  Alcotest.(check bool) "niagara runs" true (m.Engine.throughput > 0.0)

let test_engine_more_cores_more_throughput () =
  let t1 = (Engine.run (quick_cfg ~cores:1 ())).Engine.throughput in
  let t8 = (Engine.run (quick_cfg ~cores:8 ())).Engine.throughput in
  Alcotest.(check bool) "8 cores beat 1" true (t8 > t1 *. 3.0);
  Alcotest.(check bool) "at most 8x" true (t8 <= t1 *. 8.2)

let test_engine_scale_correction () =
  (* Halving the scale must leave full-transaction throughput roughly
     unchanged (same work per real transaction). *)
  let at scale =
    let cfg =
      Engine.config ~machine:Machine.xeon ~active_cores:2
        ~kind:(Factory.Dd None) ~spec:Spec.phpbb ~scale ~warmup_txns:2
        ~measure_txns:6 ~processes:2 ()
    in
    (Engine.run cfg).Engine.throughput
  in
  let a = at 0.04 and b = at 0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "scale-invariant-ish (%.1f vs %.1f)" a b)
    true
    (Float.abs (a -. b) /. a < 0.35)

let test_engine_restart_mode () =
  let kernel_instr cfg =
    Events.get (Engine.run cfg).Engine.events Mm_memsim.Access.Kernel
      Events.Instructions
  in
  let with_restarts =
    kernel_instr
      (quick_cfg ~kind:Factory.Glibc ~restart_period:(Some 2)
         ~use_bulk_free:false ())
  in
  let without =
    kernel_instr (quick_cfg ~kind:Factory.Glibc ~use_bulk_free:false ())
  in
  (* Worker reboots are kernel work: restarting every 2 transactions must
     at least double the kernel instruction count. *)
  Alcotest.(check bool)
    (Printf.sprintf "restart kernel cost (%d vs %d)" with_restarts without)
    true
    (with_restarts > 2 * without)

let ruby_kinds = [ Factory.Glibc; Factory.Hoard; Factory.Tcmalloc; Factory.Dd None ]

(* A restart retires the dead heap's host memory, not its accounting. *)
let test_restart_retires_backing () =
  List.iter
    (fun kind ->
      let name = Factory.kind_name kind in
      let mem = Mm_memsim.Memory.create () in
      let os = Mm_memsim.Os_layer.create mem in
      let spec = Spec.scaled Spec.rails ~scale:0.01 in
      let p =
        Mm_runtime.Process.create ~kind ~os ~mem ~spec ~pid:0 ~seed:42
          ~use_bulk_free:false
      in
      while Mm_runtime.Process.txns_done p < 3 do
        ignore (Mm_runtime.Process.step p ~ops:spec.Spec.mallocs : bool)
      done;
      (* A Ruby transaction frees what it allocates, so the heap is a few
         blocks; one written 512 KB object makes the dead heap outweigh
         whatever the fresh allocator maps. *)
      let bytes = 8 * Mm_memsim.Memory.block_size in
      let big = (Mm_runtime.Process.handle p).Core.Allocator.h_malloc ~size:bytes in
      Mm_memsim.Memory.memset mem ~addr:big ~bytes ~value:0xff;
      let backed = Mm_memsim.Memory.backed_bytes mem in
      let owner = name ^ "[0]" in
      let claimed = Mm_memsim.Os_layer.claimed_bytes os ~owner in
      let total = Mm_memsim.Os_layer.total_claimed os in
      Mm_runtime.Process.restart p;
      let after = Mm_memsim.Memory.backed_bytes mem in
      Alcotest.(check bool)
        (Printf.sprintf "%s: backed bytes fall (%d -> %d)" name backed after)
        true (after < backed);
      Alcotest.(check int) (name ^ ": dead object reads zero") 0
        (Mm_memsim.Memory.load_word mem
           ~addr:(big + (4 * Mm_memsim.Memory.block_size)));
      (* The fresh allocator adds its own start-up mappings, nothing more
         and nothing less. *)
      let fresh =
        let mem = Mm_memsim.Memory.create () in
        let os = Mm_memsim.Os_layer.create mem in
        ignore (Factory.create kind ~os ~mem ~pid:0 : Core.Allocator.handle);
        Mm_memsim.Os_layer.total_claimed os
      in
      Alcotest.(check int) (name ^ ": claimed bytes kept") (claimed + fresh)
        (Mm_memsim.Os_layer.claimed_bytes os ~owner);
      Alcotest.(check int) (name ^ ": total claimed kept") (total + fresh)
        (Mm_memsim.Os_layer.total_claimed os))
    ruby_kinds

(* Nine transactions over four workers: no worker completes more than
   three, so a period of 4 never fires and must reproduce the no-restart
   run in every field but [cfg]; a period of 3 fires (worker 0 reaches
   it) and must not.  Both machines, since Niagara's hardware threads
   interleave at a finer grain than whole transactions. *)
let test_unreachable_restart_is_no_restart () =
  let cfg ~machine kind restart_period =
    Engine.config ~machine ~active_cores:8 ~kind ~spec:Spec.rails ~scale:0.002
      ~warmup_txns:3 ~measure_txns:6 ~processes:4 ~restart_period
      ~use_bulk_free:false ()
  in
  let cases =
    List.map (fun k -> (Machine.xeon, k)) ruby_kinds
    @ [ (Machine.niagara, Factory.Glibc) ]
  in
  List.iter
    (fun (machine, kind) ->
      let label = machine.Machine.name ^ "/" ^ Factory.kind_name kind in
      let none_cfg = cfg ~machine kind None in
      let bound = Engine.max_txns_per_process none_cfg in
      Alcotest.(check int) (label ^ ": bound") 3 bound;
      let payload period =
        let c = cfg ~machine kind (Some period) in
        Alcotest.(check (option int)) (label ^ ": effective period")
          (if period > bound then None else Some period)
          (Engine.effective_restart_period c);
        Engine.measurement_to_string { (Engine.run c) with Engine.cfg = none_cfg }
      in
      let none = Engine.measurement_to_string (Engine.run none_cfg) in
      Alcotest.(check string) (label ^ ": period bound+1 = no restart") none
        (payload (bound + 1));
      Alcotest.(check bool) (label ^ ": period bound differs") true
        (payload bound <> none))
    cases

(* Every stream group of the whole evaluation plan: one pass through
   [run_group] must give each member the bytes [run] gives it.  The plan
   includes fig12's Ruby keys whose restart period never fires, which
   share a pass with their no-restart key. *)
let test_run_group_matches_run () =
  let module Ctx = Mm_experiments.Context in
  let ctx = Ctx.create ~scale:0.0005 ~seed:42 () in
  let seen = Hashtbl.create 256 in
  let cfgs =
    List.filter_map
      (fun k ->
        let name = Ctx.store_key k in
        if Hashtbl.mem seen name then None
        else begin
          Hashtbl.add seen name ();
          Some (Ctx.config k)
        end)
      (Mm_experiments.Registry.plan_all ctx)
  in
  let groups =
    List.fold_left
      (fun groups c ->
        (* [shares_stream] is an equivalence: at most one group matches. *)
        match List.partition (fun g -> Engine.shares_stream (List.hd g) c) groups with
        | [ g ], rest -> (g @ [ c ]) :: rest
        | _ -> [ c ] :: groups)
      [] cfgs
    |> List.filter (fun g -> List.length g > 1)
  in
  Alcotest.(check bool) "the plan has stream groups" true (List.length groups >= 10);
  let restart_pair g =
    List.exists (fun c -> not c.Engine.use_bulk_free && c.Engine.restart_period = None) g
    && List.exists (fun c -> c.Engine.restart_period <> None) g
  in
  Alcotest.(check bool) "a Ruby group pairs no restart with a period that never fires"
    true (List.exists restart_pair groups);
  List.iter
    (fun g ->
      List.iter2
        (fun c m ->
          Alcotest.(check string)
            (Printf.sprintf "%s %d cores, %s"
               c.Engine.machine.Machine.name c.Engine.active_cores
               (Factory.kind_name c.Engine.kind))
            (Engine.measurement_to_string (Engine.run c))
            (Engine.measurement_to_string m))
        g (Engine.run_group g))
    groups

let test_run_group_rejects () =
  let cfg cores = Engine.config ~machine:Machine.xeon ~active_cores:cores
      ~kind:Factory.Region ~spec:Spec.phpbb ~scale:0.02 () in
  let rejected = Invalid_argument "Engine.run_group: configurations do not share a stream" in
  (* 8 processes on one core, 2 on eight: not one stream. *)
  Alcotest.check_raises "process counts differ" rejected (fun () ->
      ignore (Engine.run_group [ cfg 1; cfg 8 ]));
  Alcotest.check_raises "allocators differ" rejected (fun () ->
      ignore (Engine.run_group [ cfg 6; { (cfg 7) with Engine.kind = Factory.Php_default } ]));
  Alcotest.check_raises "page sizes differ" rejected (fun () ->
      ignore (Engine.run_group [ cfg 6; { (cfg 7) with Engine.large_page_heap = true } ]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Engine.run_group: no configuration") (fun () ->
      ignore (Engine.run_group []));
  (* A restart period shares the no-restart stream exactly when it can
     never fire: above the most transactions one worker completes. *)
  let ruby restart_period =
    Engine.config ~machine:Machine.xeon ~active_cores:8 ~kind:Factory.Glibc
      ~spec:Spec.rails ~scale:0.002 ~warmup_txns:3 ~measure_txns:6 ~processes:4
      ~restart_period ~use_bulk_free:false ()
  in
  let none = ruby None in
  let bound = Engine.max_txns_per_process none in
  Alcotest.check_raises "a period that fires" rejected (fun () ->
      ignore (Engine.run_group [ none; ruby (Some bound) ]));
  (* Both orders: the pass restarts at its first member's own period, so
     each order simulates one of the two periods for real. *)
  let above = ruby (Some (bound + 1)) in
  List.iter
    (fun members ->
      List.iter2
        (fun c m ->
          Alcotest.(check string)
            (Printf.sprintf "period above the bound: member %s"
               (Option.fold ~none:"none" ~some:string_of_int c.Engine.restart_period))
            (Engine.measurement_to_string (Engine.run c))
            (Engine.measurement_to_string m))
        members (Engine.run_group members))
    [ [ none; above ]; [ above; none ] ]

let test_engine_event_per_txn () =
  let m = Engine.run (quick_cfg ()) in
  let direct =
    float_of_int (Events.total m.Engine.events Events.Instructions)
    /. float_of_int m.Engine.txns
  in
  Alcotest.(check (float 0.001)) "event_per_txn"
    direct
    (Engine.event_per_txn m Events.Instructions)

let test_mgmt_share_ordering () =
  (* The paper's cost ordering must hold: region < ddmalloc < default. *)
  let mgmt kind =
    let m = Engine.run (quick_cfg ~kind ()) in
    let p = m.Engine.perf in
    p.Perf.breakdown.Perf.mgmt_cycles /. p.Perf.cycles_per_txn
  in
  let region = mgmt Factory.Region in
  let dd = mgmt (Factory.Dd None) in
  let default = mgmt Factory.Php_default in
  Alcotest.(check bool)
    (Printf.sprintf "region (%.3f) < dd (%.3f)" region dd)
    true (region < dd);
  Alcotest.(check bool)
    (Printf.sprintf "dd (%.3f) < default (%.3f)" dd default)
    true (dd < default)

let () =
  Alcotest.run "mm_runtime"
    [
      ( "factory",
        [
          Alcotest.test_case "names roundtrip" `Quick test_factory_names_roundtrip;
          Alcotest.test_case "code bases distinct" `Quick test_factory_code_bases_distinct;
          Alcotest.test_case "table pinned" `Quick test_allocator_table_pinned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs and measures" `Quick test_engine_runs_and_measures;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_engine_seed_sensitivity;
          Alcotest.test_case "all allocators" `Slow test_engine_all_allocators_run;
          Alcotest.test_case "niagara" `Quick test_engine_niagara_runs;
          Alcotest.test_case "cores scale" `Quick test_engine_more_cores_more_throughput;
          Alcotest.test_case "scale correction" `Quick test_engine_scale_correction;
          Alcotest.test_case "restart mode" `Quick test_engine_restart_mode;
          Alcotest.test_case "restart retires backing" `Quick
            test_restart_retires_backing;
          Alcotest.test_case "unreachable restart = no restart" `Quick
            test_unreachable_restart_is_no_restart;
          Alcotest.test_case "run_group = run per member" `Quick
            test_run_group_matches_run;
          Alcotest.test_case "run_group rejects other streams" `Quick
            test_run_group_rejects;
          Alcotest.test_case "event_per_txn" `Quick test_engine_event_per_txn;
          Alcotest.test_case "mgmt share ordering" `Quick test_mgmt_share_ordering;
        ] );
    ]
