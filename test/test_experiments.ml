(* Integration tests: the paper's directional claims must hold in the full
   stack, and the experiment registry must be sound.  These run at a small
   transaction scale to stay quick; the bench regenerates the figures at
   the reporting scale. *)

module Ctx = Mm_experiments.Context
module Registry = Mm_experiments.Registry
module Paper = Mm_experiments.Paper_data
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Engine = Mm_runtime.Engine
module Events = Mm_cachesim.Events
module Spec = Mm_workload.Spec

let ctx = Ctx.create ~scale:0.08 ()

let spec = Spec.mediawiki_ro

let run ~machine ~cores kind = Ctx.run_php ctx ~machine ~cores ~kind ~spec ()

let thr m = m.Engine.throughput

let bus m =
  Engine.event_per_txn m Events.Bus_fill
  +. Engine.event_per_txn m Events.Bus_writeback
  +. Engine.event_per_txn m Events.Bus_prefetch

(* --- the paper's headline claims, directional --- *)

let test_one_core_region_and_dd_beat_default () =
  let d = thr (run ~machine:Machine.xeon ~cores:1 Factory.Php_default) in
  let r = thr (run ~machine:Machine.xeon ~cores:1 Factory.Region) in
  let m = thr (run ~machine:Machine.xeon ~cores:1 (Factory.Dd None)) in
  Alcotest.(check bool)
    (Printf.sprintf "region (%.1f) > default (%.1f) at 1 core" r d)
    true (r > d);
  Alcotest.(check bool)
    (Printf.sprintf "ddmalloc (%.1f) > default (%.1f) at 1 core" m d)
    true (m > d)

let test_eight_cores_region_loses_dd_wins () =
  let d = thr (run ~machine:Machine.xeon ~cores:8 Factory.Php_default) in
  let r = thr (run ~machine:Machine.xeon ~cores:8 Factory.Region) in
  let m = thr (run ~machine:Machine.xeon ~cores:8 (Factory.Dd None)) in
  Alcotest.(check bool)
    (Printf.sprintf "region (%.1f) < default (%.1f) at 8 Xeon cores" r d)
    true (r < d);
  Alcotest.(check bool)
    (Printf.sprintf "ddmalloc (%.1f) > default (%.1f) at 8 Xeon cores" m d)
    true (m > d);
  Alcotest.(check bool) "ddmalloc beats region clearly" true (m > r *. 1.1)

let test_region_bus_traffic_explodes () =
  let d = bus (run ~machine:Machine.xeon ~cores:8 Factory.Php_default) in
  let r = bus (run ~machine:Machine.xeon ~cores:8 Factory.Region) in
  let m = bus (run ~machine:Machine.xeon ~cores:8 (Factory.Dd None)) in
  Alcotest.(check bool)
    (Printf.sprintf "region bus (%.0f) > default (%.0f) by >25%%" r d)
    true
    (r > d *. 1.25);
  Alcotest.(check bool)
    (Printf.sprintf "ddmalloc bus (%.0f) <= default (%.0f) x1.05" m d)
    true
    (m <= d *. 1.05)

let test_region_scalability_worst () =
  let speedup kind =
    thr (run ~machine:Machine.xeon ~cores:8 kind)
    /. thr (run ~machine:Machine.xeon ~cores:1 kind)
  in
  let s_d = speedup Factory.Php_default in
  let s_r = speedup Factory.Region in
  let s_m = speedup (Factory.Dd None) in
  Alcotest.(check bool)
    (Printf.sprintf "region speedup (%.1f) worst (default %.1f, dd %.1f)" s_r
       s_d s_m)
    true
    (s_r < s_d && s_r < s_m)

let test_niagara_region_penalty_smaller () =
  (* The paper: Niagara's bandwidth headroom softens the region penalty. *)
  let rel machine =
    let d = thr (run ~machine ~cores:8 Factory.Php_default) in
    let r = thr (run ~machine ~cores:8 Factory.Region) in
    r /. d
  in
  let xeon = rel Machine.xeon and niagara = rel Machine.niagara in
  Alcotest.(check bool)
    (Printf.sprintf "region/default: niagara %.2f > xeon %.2f" niagara xeon)
    true (niagara > xeon)

let test_dd_best_on_niagara_too () =
  let d = thr (run ~machine:Machine.niagara ~cores:8 Factory.Php_default) in
  let r = thr (run ~machine:Machine.niagara ~cores:8 Factory.Region) in
  let m = thr (run ~machine:Machine.niagara ~cores:8 (Factory.Dd None)) in
  Alcotest.(check bool) "dd > default" true (m > d);
  Alcotest.(check bool) "dd >= region" true (m >= r *. 0.98)

let test_consumption_ordering () =
  (* DDmalloc's consumption has a fixed floor (metadata plus one segment
     per active size class), so Figure 9's ordering only shows at a
     realistic transaction volume; use a larger scale here. *)
  let ctx = Ctx.create ~scale:0.3 () in
  let consumption kind =
    Mm_stats.Summary.mean
      (Ctx.run_php ctx ~machine:Machine.xeon ~cores:8 ~kind ~spec ())
        .Engine.consumption
  in
  let d = consumption Factory.Php_default in
  let r = consumption Factory.Region in
  let m = consumption (Factory.Dd None) in
  Alcotest.(check bool)
    (Printf.sprintf "region (%.0f) biggest consumer (default %.0f)" r d)
    true (r > d *. 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "dd (%.0f) between default (%.0f) and region (%.0f)" m d r)
    true
    (m > d *. 0.9 && m < r)

let test_mgmt_cut_magnitudes () =
  let mgmt kind =
    Ctx.mgmt_fraction (run ~machine:Machine.xeon ~cores:8 kind)
  in
  let d = mgmt Factory.Php_default in
  let r = mgmt Factory.Region in
  let m = mgmt (Factory.Dd None) in
  (* Paper: region cuts ~85%, DDmalloc ~56% (up to 65%). *)
  Alcotest.(check bool)
    (Printf.sprintf "region cut %.0f%% >= 60%%" (100. *. (1. -. (r /. d))))
    true
    (1.0 -. (r /. d) > 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "dd cut %.0f%% in [30%%, 90%%]" (100. *. (1. -. (m /. d))))
    true
    (1.0 -. (m /. d) > 0.3 && 1.0 -. (m /. d) < 0.9)

let test_specweb_insensitive () =
  let spec = Spec.specweb in
  let t kind =
    thr (Ctx.run_php ctx ~machine:Machine.xeon ~cores:8 ~kind ~spec ())
  in
  let d = t Factory.Php_default in
  let r = t Factory.Region in
  let m = t (Factory.Dd None) in
  (* "the performance of SPECweb2005 was not sensitive to the memory
     allocator" — within a few percent either way. *)
  Alcotest.(check bool)
    (Printf.sprintf "region within 8%% (%.1f vs %.1f)" r d)
    true
    (Float.abs (r -. d) /. d < 0.08);
  Alcotest.(check bool)
    (Printf.sprintf "dd within 8%% (%.1f vs %.1f)" m d)
    true
    (Float.abs (m -. d) /. d < 0.08)

(* --- Ruby --- *)

let test_ruby_dd_beats_glibc () =
  let t kind =
    (Ctx.run_ruby ctx ~kind ~restart_period:(Some 10) ~measure_txns:40)
      .Engine.throughput
  in
  let glibc = t Factory.Glibc in
  let dd = t (Factory.Dd None) in
  Alcotest.(check bool)
    (Printf.sprintf "dd (%.1f) > glibc (%.1f)" dd glibc)
    true (dd > glibc)

(* --- registry and paper data --- *)

let test_registry_ids_unique () =
  let ids = Registry.ids in
  Alcotest.(check int) "unique" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_registry_find () =
  Alcotest.(check bool) "fig5 exists" true (Registry.find "fig5" <> None);
  Alcotest.(check bool) "unknown" true (Registry.find "fig99" = None)

let test_registry_covers_paper () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " present") true (Registry.find id <> None))
    [ "tab1"; "tab3"; "fig1"; "fig5"; "fig6"; "fig7"; "tab4"; "fig8"; "fig9";
      "fig10"; "fig11"; "fig12" ]

let test_paper_data_rows () =
  Alcotest.(check int) "7 xeon rows" 7 (List.length Paper.table4_xeon);
  Alcotest.(check int) "7 niagara rows" 7 (List.length Paper.table4_niagara);
  match Paper.find_row ~machine:"xeon" ~workload:"sugarcrm" with
  | None -> Alcotest.fail "sugarcrm row missing"
  | Some row ->
    Alcotest.(check (float 0.001)) "default 1c" 19.4
      row.Paper.default_.Paper.one_core;
    Alcotest.(check (float 0.01)) "speedup" 6.94
      (Paper.speedup row.Paper.default_)

let test_paper_rows_match_specs () =
  List.iter
    (fun (row : Paper.table4_row) ->
      Alcotest.(check bool)
        (row.Paper.workload ^ " has a spec")
        true
        (Spec.by_name row.Paper.workload <> None))
    Paper.table4_xeon

let test_context_memoizes () =
  let a = run ~machine:Machine.xeon ~cores:1 Factory.Php_default in
  let b = run ~machine:Machine.xeon ~cores:1 Factory.Php_default in
  Alcotest.(check bool) "same measurement object" true (a == b)

let test_context_distinguishes_dd_configs () =
  (* Regression: the ablation sweeps pass different DDmalloc configs and
     must not collide in the memo cache. *)
  let small = Ctx.create ~scale:0.02 () in
  let run cfg =
    Ctx.run_php small ~machine:Machine.xeon ~cores:1
      ~kind:(Factory.Dd (Some cfg)) ~spec ()
  in
  let a = run (Core.Ddmalloc.config ~segment_size:8192 ()) in
  let b = run (Core.Ddmalloc.config ~segment_size:65536 ()) in
  Alcotest.(check bool) "different measurements" true (a != b);
  Alcotest.(check bool) "different consumption" true
    (Mm_stats.Summary.mean a.Engine.consumption
    <> Mm_stats.Summary.mean b.Engine.consumption)

(* fig12's "2500" label runs restart period 250, beyond the 68
   transactions any of its 4 workers completes: its keys are members of
   the no-restart key's stream group and are computed in that key's
   pass, so fig12 simulates 8 of its 10 keys and the whole Ruby plan 10
   of 12.  A store still gets one entry per key. *)
let test_unreachable_restart_reuses_no_restart () =
  let dir = Filename.temp_file "mmstudy-ruby" "" in
  Sys.remove dir;
  let store =
    Mm_store.Store.open_ ~dir ~fingerprint:Mm_runtime.Version.sim_fingerprint ()
  in
  let ctx = Ctx.create ~scale:0.0005 ~store () in
  let force_all keys = List.map (Ctx.force ctx) keys in
  ignore (force_all (Mm_experiments.Exp_ruby.plan_fig12 ctx) : Engine.measurement list);
  Alcotest.(check int) "fig12 simulations" 8 (Ctx.simulated ctx);
  ignore (force_all (Mm_experiments.Exp_ruby.plan_fig10 ctx) : Engine.measurement list);
  Alcotest.(check int) "fig10-12 simulations" 10 (Ctx.simulated ctx);
  List.iter
    (fun kind ->
      let run restart_period =
        Ctx.run_ruby ctx ~kind ~restart_period ~measure_txns:240
      in
      let never = run None and p250 = run (Some 250) in
      Alcotest.(check (option int)) "relabelled period" (Some 250)
        p250.Engine.cfg.Engine.restart_period;
      Alcotest.(check string) "every other field is the no-restart run"
        (Engine.measurement_to_string never)
        (Engine.measurement_to_string
           { p250 with Engine.cfg = never.Engine.cfg }))
    [ Factory.Glibc; Factory.Dd None ];
  let warm = Ctx.create ~scale:0.0005 ~store () in
  List.iter
    (fun k -> ignore (Ctx.force warm k : Engine.measurement))
    (Mm_experiments.Exp_ruby.plan_fig12 warm);
  Alcotest.(check int) "warm: every fig12 key from disk" 10 (Ctx.disk_hits warm);
  Alcotest.(check int) "warm: no simulation" 0 (Ctx.simulated warm);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* A partly warm store: the no-restart entries are on disk but the
   never-firing period's entries are gone (a gc eviction, a torn write,
   an interrupted run).  Each missing key is simulated again, once, with
   the bytes the cold run stored; the no-restart keys stay disk hits. *)
let test_partly_warm_restart_store () =
  let dir = Filename.temp_file "mmstudy-ruby" "" in
  Sys.remove dir;
  let store =
    Mm_store.Store.open_ ~dir ~fingerprint:Mm_runtime.Version.sim_fingerprint ()
  in
  let cold = Ctx.create ~scale:0.0005 ~store () in
  let keys = Mm_experiments.Exp_ruby.plan_fig12 cold in
  let bytes ctx k = Engine.measurement_to_string (Ctx.force ctx k) in
  let cold_bytes = List.map (bytes cold) keys in
  let never_fires k =
    let c = Ctx.config k in
    Engine.effective c != c
  in
  let missing = List.filter never_fires keys in
  Alcotest.(check int) "never-firing keys" 2 (List.length missing);
  List.iter
    (fun k -> Sys.remove (Mm_store.Store.entry_path store ~key:(Ctx.store_key k)))
    missing;
  let partial = Ctx.create ~scale:0.0005 ~store () in
  let partial_bytes = List.map (bytes partial) (Mm_experiments.Exp_ruby.plan_fig12 partial) in
  Alcotest.(check (list string)) "same bytes as the cold run" cold_bytes partial_bytes;
  Alcotest.(check int) "one simulation per missing key" 2 (Ctx.simulated partial);
  Alcotest.(check int) "every other key from disk" 8 (Ctx.disk_hits partial);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_light_experiments_print () =
  (* The cheap drivers must run end to end without raising. *)
  let small = Ctx.create ~scale:0.02 () in
  List.iter
    (fun id ->
      match Registry.find id with
      | Some e -> Registry.run ~jobs:2 small e
      | None -> Alcotest.failf "missing %s" id)
    [ "tab1"; "fig1" ]

let () =
  Alcotest.run "mm_experiments"
    [
      ( "paper-claims",
        [
          Alcotest.test_case "1 core: region & dd beat default" `Slow
            test_one_core_region_and_dd_beat_default;
          Alcotest.test_case "8 cores: region loses, dd wins" `Slow
            test_eight_cores_region_loses_dd_wins;
          Alcotest.test_case "region bus traffic" `Slow test_region_bus_traffic_explodes;
          Alcotest.test_case "region scales worst" `Slow test_region_scalability_worst;
          Alcotest.test_case "niagara softer on region" `Slow
            test_niagara_region_penalty_smaller;
          Alcotest.test_case "dd best on niagara" `Slow test_dd_best_on_niagara_too;
          Alcotest.test_case "consumption ordering" `Slow test_consumption_ordering;
          Alcotest.test_case "mgmt cut magnitudes" `Slow test_mgmt_cut_magnitudes;
          Alcotest.test_case "specweb insensitive" `Slow test_specweb_insensitive;
          Alcotest.test_case "ruby: dd beats glibc" `Slow test_ruby_dd_beats_glibc;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ids unique" `Quick test_registry_ids_unique;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "covers the paper" `Quick test_registry_covers_paper;
          Alcotest.test_case "paper data rows" `Quick test_paper_data_rows;
          Alcotest.test_case "rows match specs" `Quick test_paper_rows_match_specs;
          Alcotest.test_case "memoization" `Quick test_context_memoizes;
          Alcotest.test_case "dd configs not conflated" `Quick
            test_context_distinguishes_dd_configs;
          Alcotest.test_case "light drivers print" `Quick test_light_experiments_print;
          Alcotest.test_case "unreachable restart reuses no-restart" `Quick
            test_unreachable_restart_reuses_no_restart;
          Alcotest.test_case "partly warm store simulates the missing period" `Quick
            test_partly_warm_restart_store;
        ] );
    ]
