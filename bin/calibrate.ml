(* Calibration driver (development tool): fits each workload's
   app_instr_per_op so the DEFAULT allocator's one-core Xeon throughput
   matches Table 4, then reports the emergent comparative numbers. *)

module E = Mm_runtime.Engine
module F = Mm_runtime.Alloc_factory
module M = Mm_cachesim.Machine
module P = Mm_cachesim.Perf_model
module Pd = Mm_experiments.Paper_data
module S = Mm_workload.Spec

let scale = try float_of_string Sys.argv.(1) with _ -> 0.25

let only = try Some Sys.argv.(2) with _ -> None

let selected name = match only with None -> true | Some n -> n = name

(* Table 4: default allocator, one core, Xeon; then Rails, whose run
   uses glibc. *)
let targets =
  List.map
    (fun (r : Pd.table4_row) -> (r.Pd.workload, r.Pd.default_.Pd.one_core))
    Pd.table4_xeon
  @ [ ("rails", Pd.rails_glibc_one_core_xeon) ]

let run_with spec ~kind ~cores ~app_instr =
  let spec = { spec with S.app_instr_per_op = app_instr } in
  let machine = M.xeon in
  let cfg = E.config ~machine ~active_cores:cores ~kind ~spec ~scale () in
  E.run cfg

let mgmt_pct (m : E.measurement) =
  let p = m.E.perf in
  100.0 *. p.P.breakdown.P.mgmt_cycles /. p.P.cycles_per_txn

let calibrate spec target =
  let kind =
    if spec.S.name = "rails" then F.Glibc else F.Php_default
  in
  let thr a = (run_with spec ~kind ~cores:1 ~app_instr:a).E.throughput in
  let a1 = spec.S.app_instr_per_op in
  let t1 = thr a1 in
  (* throughput ~= k / (c + a): fit with a second point. *)
  let a2 = Stdlib.max 20 (int_of_float (float_of_int a1 *. t1 /. target)) in
  let t2 = thr a2 in
  let a3 =
    if abs_float (t2 -. t1) < 1e-6 then a2
    else begin
      (* linear in 1/throughput *)
      let x1 = 1.0 /. t1 and x2 = 1.0 /. t2 in
      let xt = 1.0 /. target in
      let a =
        float_of_int a1
        +. ((xt -. x1) *. float_of_int (a2 - a1) /. (x2 -. x1))
      in
      Stdlib.max 20 (int_of_float a)
    end
  in
  let t3 = thr a3 in
  Printf.printf "%-14s target=%6.1f  a1=%4d->%6.1f  a2=%4d->%6.1f  a3=%4d->%6.1f\n%!"
    spec.S.name target a1 t1 a2 t2 a3 t3;
  a3

let () =
  let fitted =
    List.filter_map
      (fun (name, target) ->
        if not (selected name) then None
        else
          let spec = Option.get (S.by_name name) in
          Some (name, calibrate spec target))
      targets
  in
  print_newline ();
  List.iter (fun (n, a) -> Printf.printf "  %-14s app_instr_per_op = %d\n" n a) fitted;
  print_newline ();
  (* Report emergent comparisons for the PHP workloads. *)
  List.iter
    (fun (name, _) ->
      if name <> "rails" && List.mem_assoc name fitted then begin
        let spec =
          { (Option.get (S.by_name name)) with
            S.app_instr_per_op = List.assoc name fitted }
        in
        let d1 = run_with spec ~kind:F.Php_default ~cores:1 ~app_instr:(List.assoc name fitted) in
        let d8 = run_with spec ~kind:F.Php_default ~cores:8 ~app_instr:(List.assoc name fitted) in
        let r1 = run_with spec ~kind:F.Region ~cores:1 ~app_instr:(List.assoc name fitted) in
        let r8 = run_with spec ~kind:F.Region ~cores:8 ~app_instr:(List.assoc name fitted) in
        let m1 = run_with spec ~kind:(F.Dd None) ~cores:1 ~app_instr:(List.assoc name fitted) in
        let m8 = run_with spec ~kind:(F.Dd None) ~cores:8 ~app_instr:(List.assoc name fitted) in
        let pct a b = 100.0 *. (a -. b) /. b in
        Printf.printf
          "%-14s 1c: def=%6.1f (mgmt %4.1f%%) reg=%+5.1f%% dd=%+5.1f%% | 8c: def=%6.1f (x%3.1f, rho %.2f) reg=%+5.1f%% dd=%+5.1f%%\n%!"
          name d1.E.throughput (mgmt_pct d1)
          (pct r1.E.throughput d1.E.throughput)
          (pct m1.E.throughput d1.E.throughput)
          d8.E.throughput
          (d8.E.throughput /. d1.E.throughput)
          d8.E.perf.P.bus_utilization
          (pct r8.E.throughput d8.E.throughput)
          (pct m8.E.throughput d8.E.throughput)
      end)
    targets
