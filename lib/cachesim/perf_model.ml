type breakdown = {
  mgmt_cycles : float;
  app_cycles : float;
  kernel_cycles : float;
}

type result = {
  cycles_per_txn : float;
  throughput : float;
  breakdown : breakdown;
  bus_utilization : float;
  mem_latency_eff : float;
}

let contexts = [ Mm_memsim.Access.Mgmt; Mm_memsim.Access.App; Mm_memsim.Access.Kernel ]

(* Compute and stall cycles of one context at a given effective memory
   latency.  L1 misses that hit L2 pay the L2 latency; demand L2 misses pay
   the (possibly queue-inflated) memory latency; TLB misses pay the walk or
   trap cost. *)
let context_cycles (m : Machine.t) ev ctx ~txns ~mem_lat =
  let g c = float_of_int (Events.get ev ctx c) /. txns in
  let compute = g Events.Instructions *. m.Machine.cpi_base in
  let l1_misses = g Events.L1d_miss +. g Events.L1i_miss in
  let l2_misses = g Events.L2_miss in
  let l2_hits = Float.max 0.0 (l1_misses -. l2_misses) in
  let stall =
    (l2_hits *. m.Machine.l2_latency)
    +. (l2_misses *. mem_lat)
    (* A line the prefetcher is still fetching stalls its first demand
       reference briefly; in steady streams the fill is usually ahead. *)
    +. (g Events.Pf_late *. 0.15 *. mem_lat)
    +. (g Events.Dtlb_miss *. m.Machine.tlb_miss_penalty)
  in
  (compute, stall)

let totals m ev ~txns ~mem_lat =
  List.fold_left
    (fun (c, s) ctx ->
      let compute, stall = context_cycles m ev ctx ~txns ~mem_lat in
      (c +. compute, s +. stall))
    (0.0, 0.0) contexts

(* Wall cycles per transaction for one hardware thread, given this
   machine's latency-tolerance mechanism. *)
let wall_cycles (m : Machine.t) ~compute ~stall =
  let tpc = float_of_int m.Machine.threads_per_core in
  if m.Machine.threads_per_core > 1 then
    (* Fine-grained multithreading: the core retires another thread's
       instructions during a stall; a block of T transactions takes
       max(T * compute, compute + stall) core cycles. *)
    Float.max (tpc *. compute) (compute +. stall) /. tpc
  else compute +. ((1.0 -. m.Machine.stall_overlap) *. stall)

let solve ~machine ~active_cores ~events ~txns =
  assert (txns > 0);
  let m = machine in
  let ev = events in
  let ftxns = float_of_int txns in
  let clock_hz = m.Machine.clock_ghz *. 1e9 in
  let bus_bytes =
    float_of_int (Events.bus_transactions ev)
    *. float_of_int m.Machine.line_size /. ftxns
  in
  let cores = float_of_int active_cores in
  (* Fixed point on effective memory latency: latency -> cycles ->
     throughput -> bus utilization -> latency. *)
  let utilization_of mem_lat =
    let compute, stall = totals m ev ~txns:ftxns ~mem_lat in
    let wall = wall_cycles m ~compute ~stall in
    let txn_per_cycle_per_core = 1.0 /. wall in
    let demand = cores *. txn_per_cycle_per_core *. bus_bytes in
    Float.min 0.92 (demand /. m.Machine.bus_bytes_per_cycle)
  in
  let latency_of rho =
    (* Open-queue latency growth on the shared bus; the 0.25 service-time
       coefficient is calibrated so the default allocator's 8-core
       speedups land in Table 4's range. *)
    m.Machine.mem_latency *. (1.0 +. (0.25 *. rho /. (1.0 -. rho)))
  in
  let mem_lat =
    Mm_stats.Fixed_point.solve ~init:m.Machine.mem_latency (fun lat ->
        latency_of (utilization_of lat))
  in
  let rho = utilization_of mem_lat in
  let compute, stall = totals m ev ~txns:ftxns ~mem_lat in
  let wall = wall_cycles m ~compute ~stall in
  let throughput = cores *. clock_hz /. wall in
  (* Attribute wall cycles to contexts in proportion to each context's
     compute + visible stall (Figure 6 / Figure 11 reporting). *)
  let visible ctx =
    let c, s = context_cycles m ev ctx ~txns:ftxns ~mem_lat in
    if m.Machine.threads_per_core > 1 then c +. s
    else c +. ((1.0 -. m.Machine.stall_overlap) *. s)
  in
  let vm = visible Mm_memsim.Access.Mgmt in
  let va = visible Mm_memsim.Access.App in
  let vk = visible Mm_memsim.Access.Kernel in
  let vtot = Float.max 1e-9 (vm +. va +. vk) in
  let share v = wall *. v /. vtot in
  {
    cycles_per_txn = wall;
    throughput;
    breakdown =
      {
        mgmt_cycles = share vm;
        app_cycles = share va;
        kernel_cycles = share vk;
      };
    bus_utilization = rho;
    mem_latency_eff = mem_lat;
  }
