module Table = Mm_stats.Table
module Spec = Mm_workload.Spec
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Engine = Mm_runtime.Engine
module Perf = Mm_cachesim.Perf_model

let machines = [ Machine.xeon; Machine.niagara ]

let kind_label = function
  | Factory.Php_default -> "default"
  | Factory.Region -> "region-based"
  | Factory.Dd _ -> "our DDmalloc"
  | other -> Factory.kind_name other

(* --- plans: the configurations each artifact reads --------------------
   A plan is pure enumeration; nothing is simulated until the execute
   stage ([Context.prefetch]) or a render's cache miss. *)

let plan_fig1 ctx =
  List.map
    (fun kind ->
      Context.php_key ctx ~machine:Machine.xeon ~cores:8 ~kind
        ~spec:Spec.mediawiki_ro ())
    [ Factory.Php_default; Factory.Region ]

let plan_fig5 ctx =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun spec ->
          List.map
            (fun kind -> Context.php_key ctx ~machine ~cores:8 ~kind ~spec ())
            Context.php_kinds)
        Spec.php_apps)
    machines

let plan_fig7 ctx =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun cores ->
          List.map
            (fun kind ->
              Context.php_key ctx ~machine ~cores ~kind ~spec:Spec.mediawiki_ro
                ())
            Context.php_kinds)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    machines

let plan_tab4 ctx =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun spec ->
          List.concat_map
            (fun kind ->
              List.map
                (fun cores ->
                  Context.php_key ctx ~machine ~cores ~kind ~spec ())
                [ 1; 8 ])
            Context.php_kinds)
        Spec.php_apps)
    machines

(* --- renders: read the memo table and print ----------------------- *)

let fig1 ctx =
  let spec = Spec.mediawiki_ro in
  let base =
    Context.run_php ctx ~machine:Machine.xeon ~cores:8
      ~kind:Factory.Php_default ~spec ()
  in
  let base_cycles = base.Engine.perf.Perf.cycles_per_txn in
  let t =
    Table.create
      ~title:
        "Figure 1: normalized CPU time per transaction (MediaWiki, 8 Xeon cores)"
      ~columns:
        [
          ("allocator", Table.Left);
          ("memory management", Table.Right);
          ("others", Table.Right);
          ("total", Table.Right);
        ]
  in
  List.iter
    (fun kind ->
      let m = Context.run_php ctx ~machine:Machine.xeon ~cores:8 ~kind ~spec () in
      let p = m.Engine.perf in
      let mgmt = p.Perf.breakdown.Perf.mgmt_cycles /. base_cycles in
      let others =
        (p.Perf.cycles_per_txn -. p.Perf.breakdown.Perf.mgmt_cycles)
        /. base_cycles
      in
      Table.add_row t
        [
          kind_label kind;
          Table.fmt_float ~decimals:3 mgmt;
          Table.fmt_float ~decimals:3 others;
          Table.fmt_float ~decimals:3 (mgmt +. others);
        ])
    [ Factory.Php_default; Factory.Region ];
  Table.print t;
  print_endline
    "  (paper: the region allocator nearly eliminates the memory-management\n\
    \   share but inflates the rest of the program; total above 1.0)\n"

let fig5 ctx =
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 5: relative throughput over the default allocator (8 %s cores)"
               machine.Machine.name)
          ~columns:
            [
              ("workload", Table.Left);
              ("region", Table.Right);
              ("paper", Table.Right);
              ("DDmalloc", Table.Right);
              ("paper", Table.Right);
            ]
      in
      List.iter
        (fun spec ->
          let run kind =
            (Context.run_php ctx ~machine ~cores:8 ~kind ~spec ())
              .Engine.throughput
          in
          let d = run Factory.Php_default in
          let r = run Factory.Region in
          let m = run (Factory.Dd None) in
          let paper =
            Paper_data.find_row ~machine:machine.Machine.name
              ~workload:spec.Spec.name
          in
          let paper_rel get =
            match paper with
            | None -> "-"
            | Some row ->
              Table.fmt_float ~decimals:2
                ((get row).Paper_data.eight_cores
                /. row.Paper_data.default_.Paper_data.eight_cores)
          in
          Table.add_row t
            [
              spec.Spec.paper_name;
              Table.fmt_float ~decimals:2 (r /. d);
              paper_rel (fun row -> row.Paper_data.region);
              Table.fmt_float ~decimals:2 (m /. d);
              paper_rel (fun row -> row.Paper_data.ddmalloc);
            ])
        Spec.php_apps;
      Table.print t)
    machines

let fig7 ctx =
  let spec = Spec.mediawiki_ro in
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 7: MediaWiki (read-only) throughput vs cores on %s (txn/s)"
               machine.Machine.name)
          ~columns:
            ([ ("cores", Table.Left) ]
            @ List.map
                (fun kind -> (kind_label kind, Table.Right))
                Context.php_kinds)
      in
      List.iter
        (fun cores ->
          let row =
            List.map
              (fun kind ->
                let m = Context.run_php ctx ~machine ~cores ~kind ~spec () in
                Table.fmt_float ~decimals:1 m.Engine.throughput)
              Context.php_kinds
          in
          Table.add_row t (string_of_int cores :: row))
        [ 1; 2; 3; 4; 5; 6; 7; 8 ];
      Table.print t)
    machines

let tab4 ctx =
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf "Table 4: speedups with 8 cores on %s (measured | paper)"
               machine.Machine.name)
          ~columns:
            [
              ("workload", Table.Left);
              ("allocator", Table.Left);
              ("1-core txn/s", Table.Right);
              ("paper", Table.Right);
              ("8-core txn/s", Table.Right);
              ("paper", Table.Right);
              ("speedup", Table.Right);
              ("paper", Table.Right);
            ]
      in
      List.iter
        (fun spec ->
          let paper =
            Paper_data.find_row ~machine:machine.Machine.name
              ~workload:spec.Spec.name
          in
          List.iter
            (fun kind ->
              let m1 = Context.run_php ctx ~machine ~cores:1 ~kind ~spec () in
              let m8 = Context.run_php ctx ~machine ~cores:8 ~kind ~spec () in
              let t1 = m1.Engine.throughput in
              let t8 = m8.Engine.throughput in
              let paper_row =
                Option.map
                  (fun row ->
                    match kind with
                    | Factory.Php_default -> row.Paper_data.default_
                    | Factory.Region -> row.Paper_data.region
                    | Factory.Dd _ -> row.Paper_data.ddmalloc
                    | Factory.Obstack | Factory.Glibc | Factory.Hoard
                    | Factory.Tcmalloc | Factory.Reaps ->
                      row.Paper_data.default_)
                  paper
              in
              let pf get = function
                | None -> "-"
                | Some r -> Table.fmt_float ~decimals:1 (get r)
              in
              Table.add_row t
                [
                  (match kind with
                  | Factory.Php_default -> spec.Spec.paper_name
                  | _ -> "");
                  kind_label kind;
                  Table.fmt_float ~decimals:1 t1;
                  pf (fun r -> r.Paper_data.one_core) paper_row;
                  Table.fmt_float ~decimals:1 t8;
                  pf (fun r -> r.Paper_data.eight_cores) paper_row;
                  Table.fmt_ratio (t8 /. t1);
                  pf Paper_data.speedup paper_row;
                ])
            Context.php_kinds;
          Table.add_separator t)
        Spec.php_apps;
      Table.print t)
    machines
