module Table = Mm_stats.Table
module Spec = Mm_workload.Spec
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Engine = Mm_runtime.Engine
module Perf = Mm_cachesim.Perf_model
module Events = Mm_cachesim.Events

(* Plans: pure enumeration of the configurations each figure reads. *)

let plan_fig6 ctx =
  List.concat_map
    (fun spec ->
      List.map
        (fun kind ->
          Context.php_key ctx ~machine:Machine.xeon ~cores:8 ~kind ~spec ())
        Context.php_kinds)
    Spec.php_apps

let plan_fig8 ctx =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun spec ->
          List.map
            (fun kind -> Context.php_key ctx ~machine ~cores:8 ~kind ~spec ())
            Context.php_kinds)
        Spec.php_apps)
    [ Machine.xeon; Machine.niagara ]

let plan_fig9 ctx =
  List.concat_map
    (fun spec ->
      List.map
        (fun kind ->
          Context.php_key ctx ~machine:Machine.xeon ~cores:8 ~kind ~spec ())
        Context.php_kinds)
    Spec.php_apps

let fig6 ctx =
  let t =
    Table.create
      ~title:
        "Figure 6: CPU time per transaction on 8 Xeon cores (% of default total)"
      ~columns:
        [
          ("workload", Table.Left);
          ("allocator", Table.Left);
          ("memory mgmt", Table.Right);
          ("others", Table.Right);
          ("total", Table.Right);
        ]
  in
  let mgmt_cuts = Mm_stats.Summary.create () in
  let dd_cuts = Mm_stats.Summary.create () in
  List.iter
    (fun spec ->
      let run kind =
        Context.run_php ctx ~machine:Machine.xeon ~cores:8 ~kind ~spec ()
      in
      let base = run Factory.Php_default in
      let base_total = base.Engine.perf.Perf.cycles_per_txn in
      let base_mgmt = base.Engine.perf.Perf.breakdown.Perf.mgmt_cycles in
      List.iter
        (fun kind ->
          let m = run kind in
          let p = m.Engine.perf in
          let mgmt = p.Perf.breakdown.Perf.mgmt_cycles in
          let others = p.Perf.cycles_per_txn -. mgmt in
          (match kind with
          | Factory.Region ->
            Mm_stats.Summary.add mgmt_cuts (1.0 -. (mgmt /. base_mgmt))
          | Factory.Dd _ ->
            Mm_stats.Summary.add dd_cuts (1.0 -. (mgmt /. base_mgmt))
          | Factory.Php_default | Factory.Obstack | Factory.Glibc
          | Factory.Hoard | Factory.Tcmalloc | Factory.Reaps ->
            ());
          Table.add_row t
            [
              (match kind with
              | Factory.Php_default -> spec.Spec.paper_name
              | _ -> "");
              (match kind with
              | Factory.Php_default -> "default"
              | Factory.Region -> "region-based"
              | _ -> "our DDmalloc");
              Printf.sprintf "%.1f%%" (100.0 *. mgmt /. base_total);
              Printf.sprintf "%.1f%%" (100.0 *. others /. base_total);
              Printf.sprintf "%.1f%%"
                (100.0 *. p.Perf.cycles_per_txn /. base_total);
            ])
        Context.php_kinds;
      Table.add_separator t)
    Spec.php_apps;
  Table.print t;
  Printf.printf
    "  mgmt CPU cut vs default: region %.0f%% (paper: %.0f%% avg), DDmalloc %.0f%% (paper: %.0f%% avg)\n\n"
    (100.0 *. Mm_stats.Summary.mean mgmt_cuts)
    (100.0 *. Paper_data.region_mgmt_cut)
    (100.0 *. Mm_stats.Summary.mean dd_cuts)
    (100.0 *. Paper_data.dd_mgmt_cut)

(* Average, over the PHP workloads, of one counter's per-transaction
   change relative to the default allocator. *)
let fig8 ctx =
  let counters =
    [
      ("total instructions", Events.Instructions);
      ("L1I cache miss", Events.L1i_miss);
      ("L1D cache miss", Events.L1d_miss);
      ("D-TLB miss", Events.Dtlb_miss);
      ("L2 cache miss", Events.L2_miss);
    ]
  in
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 8: change in events per transaction vs default (8 %s cores)"
               machine.Machine.name)
          ~columns:
            [
              ("event", Table.Left);
              ("region", Table.Right);
              ("DDmalloc", Table.Right);
            ]
      in
      let deltas kind counter_of =
        let s = Mm_stats.Summary.create () in
        List.iter
          (fun spec ->
            let base =
              Context.run_php ctx ~machine ~cores:8 ~kind:Factory.Php_default
                ~spec ()
            in
            let m = Context.run_php ctx ~machine ~cores:8 ~kind ~spec () in
            let b = counter_of base in
            if b > 0.0 then
              Mm_stats.Summary.add s (Context.delta_pct (counter_of m) b))
          Spec.php_apps;
        Mm_stats.Summary.mean s
      in
      List.iter
        (fun (label, counter) ->
          let count m = Engine.event_per_txn m counter in
          Table.add_row t
            [
              label;
              Printf.sprintf "%+.1f%%" (deltas Factory.Region count);
              Printf.sprintf "%+.1f%%" (deltas (Factory.Dd None) count);
            ])
        counters;
      let bus m =
        Engine.event_per_txn m Events.Bus_fill
        +. Engine.event_per_txn m Events.Bus_writeback
        +. Engine.event_per_txn m Events.Bus_prefetch
      in
      Table.add_row t
        [
          "bus transaction";
          Printf.sprintf "%+.1f%%" (deltas Factory.Region bus);
          Printf.sprintf "%+.1f%%" (deltas (Factory.Dd None) bus);
        ];
      Table.print t)
    [ Machine.xeon; Machine.niagara ];
  print_endline
    "  (paper, Xeon: region raises L2 misses ~25-30% and bus transactions\n\
    \   ~50-55%; DDmalloc lowers instructions, L1 misses and bus traffic)\n"

let fig9 ctx =
  let t =
    Table.create
      ~title:
        "Figure 9: memory consumed per transaction (8 Xeon cores; allocator-specific measure)"
      ~columns:
        [
          ("workload", Table.Left);
          ("default", Table.Right);
          ("region", Table.Right);
          ("DDmalloc", Table.Right);
          ("region/default", Table.Right);
          ("DD/default", Table.Right);
        ]
  in
  let region_ratio = Mm_stats.Summary.create () in
  let dd_ratio = Mm_stats.Summary.create () in
  List.iter
    (fun spec ->
      let consumption kind =
        let m =
          Context.run_php ctx ~machine:Machine.xeon ~cores:8 ~kind ~spec ()
        in
        Mm_stats.Summary.mean m.Engine.consumption /. Context.scale ctx
      in
      let d = consumption Factory.Php_default in
      let r = consumption Factory.Region in
      let m = consumption (Factory.Dd None) in
      Mm_stats.Summary.add region_ratio (r /. d);
      Mm_stats.Summary.add dd_ratio (m /. d);
      Table.add_row t
        [
          spec.Spec.paper_name;
          Table.fmt_bytes (int_of_float d);
          Table.fmt_bytes (int_of_float r);
          Table.fmt_bytes (int_of_float m);
          Table.fmt_ratio (r /. d);
          Table.fmt_ratio (m /. d);
        ])
    Spec.php_apps;
  Table.print t;
  Printf.printf
    "  region/default avg %.1fx, worst %.1fx (paper: ~%.0fx avg, >7x worst);\n\
    \  DDmalloc/default avg %.2fx (paper: +%.0f%% avg)\n\n"
    (Mm_stats.Summary.mean region_ratio)
    (Mm_stats.Summary.max region_ratio)
    Paper_data.region_consumption_factor
    (Mm_stats.Summary.mean dd_ratio)
    (100.0 *. Paper_data.dd_consumption_overhead);
  (* Consumption is the one scale-sensitive artifact (EXPERIMENTS.md):
     warn in the output itself, not just in the docs, so a reader of
     `mmstudy run fig9 --scale 0.05` is not misled by the DD/default
     column. *)
  if Context.scale ctx < 0.25 then
    Printf.printf
      "  WARNING: scale %.2f distorts the ratios above.  DDmalloc's fixed\n\
      \  per-segment floor is amortized over fewer live bytes at reduced\n\
      \  scale, so DD/default overshoots the paper's +%.0f%%; below ~0.1 the\n\
      \  region footprint also stops overflowing the caches.  Compare\n\
      \  consumption at --scale 0.25 (the reporting scale).\n\n"
      (Context.scale ctx)
      (100.0 *. Paper_data.dd_consumption_overhead)
