module Table = Mm_stats.Table
module Spec = Mm_workload.Spec
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine

let yes_no b = if b then "yes" else "no"

(* Table 1 is printed from static capability metadata; nothing to plan. *)
let plan_tab1 (_ctx : Context.t) : Context.key list = []

(* Table 3 reads the 1-core default-allocator profile of every workload. *)
let plan_tab3 ctx =
  List.map
    (fun spec ->
      Context.php_key ctx ~machine:Machine.xeon ~cores:1
        ~kind:Factory.Php_default ~spec ())
    Spec.php_apps

let tab1 (_ctx : Context.t) =
  let t =
    Table.create ~title:"Table 1: allocation approaches for transaction-scoped objects"
      ~columns:
        [
          ("allocator", Table.Left);
          ("bulk free", Table.Left);
          ("per-object free", Table.Left);
          ("defragmentation", Table.Left);
          ("approach", Table.Left);
        ]
  in
  let approach = function
    | Factory.Dd _ -> "defrag-dodging (this paper)"
    | Factory.Region | Factory.Obstack -> "region-based"
    | Factory.Php_default | Factory.Reaps ->
      "general-purpose with bulk freeing"
    | Factory.Glibc | Factory.Hoard | Factory.Tcmalloc -> "general-purpose"
  in
  List.iter
    (fun kind ->
      let caps = Factory.capabilities kind in
      Table.add_row t
        [
          Factory.kind_name kind;
          yes_no caps.Core.Allocator.bulk_free;
          yes_no caps.Core.Allocator.per_object_free;
          yes_no caps.Core.Allocator.defragmentation;
          approach kind;
        ])
    Factory.all_kinds;
  Table.print t

let tab3 ctx =
  let t =
    Table.create
      ~title:
        "Table 3: calls per transaction and mean allocation size (measured | paper)"
      ~columns:
        [
          ("workload", Table.Left);
          ("malloc", Table.Right);
          ("paper", Table.Right);
          ("free", Table.Right);
          ("paper", Table.Right);
          ("realloc", Table.Right);
          ("paper", Table.Right);
          ("size (B)", Table.Right);
          ("paper", Table.Right);
        ]
  in
  let scale = Context.scale ctx in
  List.iter
    (fun spec ->
      (* One-core default-allocator run exposes the generator's actual call
         counts; divide the scale back out for full-transaction numbers. *)
      let m =
        Context.run_php ctx ~machine:Machine.xeon ~cores:1
          ~kind:Factory.Php_default ~spec ()
      in
      let full v = v /. scale in
      Table.add_row t
        [
          spec.Spec.paper_name;
          Printf.sprintf "%.0f" (full m.Mm_runtime.Engine.mallocs_per_txn);
          string_of_int spec.Spec.mallocs;
          Printf.sprintf "%.0f" (full m.Mm_runtime.Engine.frees_per_txn);
          string_of_int spec.Spec.frees;
          Printf.sprintf "%.0f" (full m.Mm_runtime.Engine.reallocs_per_txn);
          string_of_int spec.Spec.reallocs;
          Printf.sprintf "%.1f" m.Mm_runtime.Engine.mean_alloc_size;
          Printf.sprintf "%.1f" spec.Spec.mean_size;
        ])
    Spec.php_apps;
  Table.print t
