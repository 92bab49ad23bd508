module Table = Mm_stats.Table
module Spec = Mm_workload.Spec
module Factory = Mm_runtime.Alloc_factory
module Machine = Mm_cachesim.Machine
module Arrival = Mm_serve.Arrival
module Dispatch = Mm_serve.Dispatch
module Contention = Mm_serve.Contention
module Sim = Mm_serve.Sim
module Sweep = Mm_serve.Sweep

(* Fixed serving parameters.  Any change here alters stored sweep
   payloads, so it must ride a Version.serve_semantics bump (the blob key
   spells the parameters out, but the bump rule keeps intent honest). *)
let cores = 8

let arrival = Arrival.Poisson

let dispatch = Dispatch.Least_loaded

let requests = 2500

let warmup_frac = 0.1

(* Offered load as fractions of the *default allocator's* capacity, so
   every allocator is swept on one common axis per workload: an
   allocator that saturates below fraction 1.0 is slower than default in
   exactly the way the paper's fig5 bars are — but visible as a latency
   cliff.  The grid crosses 1.0 so even default saturates at the end. *)
let fractions = [ 0.3; 0.5; 0.7; 0.8; 0.9; 0.95; 1.0; 1.1 ]

let p99_low_frac = 0.7

let p99_high_frac = 0.9

let machines = [ Machine.xeon; Machine.niagara ]

let plan ctx =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun spec ->
          List.map
            (fun kind -> Context.php_key ctx ~machine ~cores ~kind ~spec ())
            Context.php_kinds)
        Spec.php_apps)
    machines

(* One allocator's sweep over [rates], memoized as a "serve" blob.  The
   blob key chains the measurement's full store key (machine, allocator
   config, spec, scale, seed — everything) with every serving parameter,
   so any change to either recomputes rather than aliasing.  Exposed
   generically because `mmstudy serve` sweeps user-chosen parameters
   through the same memo layer. *)
let sweep_points ?(policy = Mm_serve.Policy.none) ctx ~machine ~spec ~kind
    ~cores ~arrival ~dispatch ~requests ~warmup_frac ~rates =
  let meas_key = Context.php_key ctx ~machine ~cores ~kind ~spec () in
  let m = Context.force ctx meas_key in
  let service = Contention.service_seconds ~machine ~measurement:m in
  let blob_key =
    Printf.sprintf
      "serve%d;meas{%s};cores=%d;arrival=%s;dispatch=%s;requests=%d;warmup=%h;policy{%s};rates=%s"
      Sweep.schema_version
      (Context.store_key meas_key)
      cores (Arrival.name arrival) (Dispatch.name dispatch) requests
      warmup_frac
      (Mm_serve.Policy.to_key policy)
      (String.concat "," (List.map (Printf.sprintf "%h") rates))
  in
  let compute () =
    let cfg =
      {
        Sim.cores;
        arrival;
        dispatch;
        rate = 1.0;
        requests;
        warmup_frac;
        seed = Context.seed ctx;
      }
    in
    Sweep.points_to_string (Sweep.run ~policy cfg ~service ~rates)
  in
  let payload =
    Context.force_blob ctx ~kind:"serve" ~key:blob_key
      ~valid:(fun s -> Result.is_ok (Sweep.points_of_string s))
      ~compute
  in
  (* [valid] gates stored payloads and [compute] encodes fresh ones. *)
  match Sweep.points_of_string payload with
  | Ok points -> points
  | Error e -> failwith ("serve sweep codec: " ^ e)

let capacity_of ctx ~machine ~spec ~kind ~cores =
  let m = Context.run_php ctx ~machine ~cores ~kind ~spec () in
  Contention.capacity ~cores
    (Contention.service_seconds ~machine ~measurement:m)

let sweep ctx ~machine ~spec ~kind ~rates =
  sweep_points ctx ~machine ~spec ~kind ~cores ~arrival ~dispatch ~requests
    ~warmup_frac ~rates

let alloc_label = function
  | Factory.Php_default -> "default"
  | Factory.Region -> "region"
  | k -> Factory.kind_name k

let fmt_ms s = Printf.sprintf "%.2f ms" (1000.0 *. s)

let point_at points frac =
  List.nth points
    (match List.find_index (fun f -> f = frac) fractions with
    | Some i -> i
    | None -> invalid_arg "point_at: fraction not in the grid")

let fmt_p99 (p : Sweep.point) =
  if p.Sweep.saturated then "sat" else fmt_ms p.Sweep.p99

(* Per (machine, workload): the default allocator's capacity defines the
   shared rate grid. *)
let rates_for ctx ~machine ~spec =
  let cap =
    capacity_of ctx ~machine ~spec ~kind:Factory.Php_default ~cores
  in
  (cap, List.map (fun f -> f *. cap) fractions)

let render ctx =
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Tail latency and saturation: 8 %s cores, %s arrivals, %s \
                dispatch (load relative to default's capacity)"
               machine.Machine.name (Arrival.name arrival)
               (Dispatch.name dispatch))
          ~columns:
            [
              ("workload", Table.Left);
              ("allocator", Table.Left);
              ("p99 @ 0.7", Table.Right);
              ("p99 @ 0.9", Table.Right);
              ("max RPS", Table.Right);
              ("vs default", Table.Right);
            ]
      in
      let ratios = Mm_stats.Summary.create () in
      List.iter
        (fun spec ->
          let _cap, rates = rates_for ctx ~machine ~spec in
          let max_rps kind =
            Option.value
              (Sweep.max_sustainable (sweep ctx ~machine ~spec ~kind ~rates))
              ~default:0.0
          in
          let default_max = max_rps Factory.Php_default in
          List.iter
            (fun kind ->
              let points = sweep ctx ~machine ~spec ~kind ~rates in
              let sustained = Sweep.max_sustainable points in
              let rps = Option.value sustained ~default:0.0 in
              (match kind with
              | Factory.Region when default_max > 0.0 ->
                Mm_stats.Summary.add ratios (rps /. default_max)
              | _ -> ());
              Table.add_row t
                [
                  (match kind with
                  | Factory.Php_default -> spec.Spec.paper_name
                  | _ -> "");
                  alloc_label kind;
                  fmt_p99 (point_at points p99_low_frac);
                  fmt_p99 (point_at points p99_high_frac);
                  (match sustained with
                  | Some r -> Printf.sprintf "%.0f" r
                  | None -> "sat");
                  (if default_max > 0.0 then
                     Table.fmt_ratio (rps /. default_max)
                   else "-");
                ])
            Context.php_kinds;
          Table.add_separator t)
        Spec.php_apps;
      Table.print t;
      Printf.printf
        "  region sustains %.0f%% of default's load on 8 %s cores (avg over \
         workloads):\n\
        \  the fig5/fig8 bandwidth penalty, felt as a latency cliff at lower \
         RPS.\n\
        \  (p99 of sojourn time; \"sat\" = offered load exceeded the \
         sustainable rate.)\n\n"
        (100.0 *. Mm_stats.Summary.mean ratios)
        machine.Machine.name)
    machines
