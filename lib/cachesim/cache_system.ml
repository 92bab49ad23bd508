module Access = Mm_memsim.Access
module Memory = Mm_memsim.Memory

(* Flat counter indices, fixed at module init: the hot path bumps
   [ev.(ctx_base + ix_<counter>)] directly instead of re-deriving the index
   from variants on every event. *)
let ix_instructions = Events.counter_index Events.Instructions

let ix_loads = Events.counter_index Events.Loads

let ix_stores = Events.counter_index Events.Stores

let ix_l1i_miss = Events.counter_index Events.L1i_miss

let ix_l1d_miss = Events.counter_index Events.L1d_miss

let ix_l2_miss = Events.counter_index Events.L2_miss

let ix_dtlb_miss = Events.counter_index Events.Dtlb_miss

let ix_bus_fill = Events.counter_index Events.Bus_fill

let ix_bus_writeback = Events.counter_index Events.Bus_writeback

let ix_bus_prefetch = Events.counter_index Events.Bus_prefetch

let ix_pf_late = Events.counter_index Events.Pf_late

(* One L2 back-end: an L2 share and the counters only an L2 moves (L2
   misses, bus fills, writebacks and prefetches, late prefetch hits). *)
type back = {
  l2 : Cache.t;
  bev : Events.t;
}

type t = {
  machine : Machine.t;
  line_shift : int;
  (* The front, shared by every member: it sees the reference streams
     first and counts instructions, loads, stores, L1I, L1D and D-TLB
     misses into [ev]. *)
  l1i : Cache.t;
  l1d : Cache.t;
  tlb : Tlb.t;
  pf : Prefetcher.t;
  ev : Events.t;
  (* One back-end per distinct L2 share; member [i] reads
     [backs.(member_back.(i))]. *)
  backs : back array;
  member_back : int array;
  (* Events base index (ctx_index * ncounters) of the access being
     processed; set once per observer invocation so the per-line work never
     touches the context variant again. *)
  mutable ctx_base : int;
  (* Line of the previous data reference, or -1 after a TLB flush.  That
     line is the MRU way of its L1D set and its page the MRU D-TLB entry,
     so repeating it cannot change either structure. *)
  mutable last_line : int;
  (* Preallocated prefetch-fill callback handed to [Prefetcher.on_miss]
     (allocating a closure per L1 miss would defeat the zero-allocation
     contract). *)
  mutable fill_cb : int -> unit;
}

let geom_sets (g : Machine.cache_geom) ~line_size =
  let sets = g.Machine.size / (line_size * g.Machine.ways) in
  assert (sets > 0 && sets land (sets - 1) = 0);
  sets

(* An L2 reference on behalf of the current context; misses go to memory. *)
let[@inline] l2_ref t b ~line ~store =
  match Cache.access b.l2 ~line ~store with
  | Cache.Hit -> ()
  | Cache.Hit_prefetched -> Events.unsafe_add b.bev (t.ctx_base + ix_pf_late) 1
  | Cache.Miss ->
    Events.unsafe_add b.bev (t.ctx_base + ix_l2_miss) 1;
    Events.unsafe_add b.bev (t.ctx_base + ix_bus_fill) 1;
    if Cache.victim_dirty b.l2 then
      Events.unsafe_add b.bev (t.ctx_base + ix_bus_writeback) 1

(* Every back-end sees the same L2 references in the same order; they
   never feed back into the front. *)
let l2_demand t ~line =
  for i = 0 to Array.length t.backs - 1 do
    l2_ref t (Array.unsafe_get t.backs i) ~line ~store:false
  done

(* An L1D miss: the dirty victim (if any) is written back into L2 before
   the demand reference. *)
let l2_refill t ~victim ~line =
  for i = 0 to Array.length t.backs - 1 do
    let b = Array.unsafe_get t.backs i in
    if victim >= 0 then l2_ref t b ~line:victim ~store:true;
    l2_ref t b ~line ~store:false
  done

let prefetch_line t line =
  for i = 0 to Array.length t.backs - 1 do
    let b = Array.unsafe_get t.backs i in
    match Cache.insert b.l2 ~line with
    | Cache.Hit | Cache.Hit_prefetched -> ()
    | Cache.Miss ->
      Events.unsafe_add b.bev (t.ctx_base + ix_bus_prefetch) 1;
      if Cache.victim_dirty b.l2 then
        Events.unsafe_add b.bev (t.ctx_base + ix_bus_writeback) 1
  done

let create_group ~machine ~active_cores ~large_page_heap =
  let m = machine in
  if active_cores = [] then invalid_arg "Cache_system.create_group: no member";
  let line_size = m.Machine.line_size in
  let page_shift =
    if large_page_heap then m.Machine.large_page_bits else m.Machine.page_bits
  in
  (* An L2's counts are a function of its geometry and its input alone,
     so members whose shares round to the same set count share one. *)
  let member_sets =
    List.map (fun n -> Machine.l2_sets_per_core m ~active_cores:n) active_cores
  in
  let sets = List.sort_uniq compare member_sets in
  let index s = Option.get (List.find_index (Int.equal s) sets) in
  (* Allocated in the order a one-L2 system has always allocated its
     arrays (counters, prefetcher, D-TLB, L2, L1D, L1I): the host
     allocator's high-water mark depends on the order of these large
     blocks, the largest being each L2's tag array (one word per line)
     and its two link arrays (one byte per line each). *)
  let ev = Events.create () in
  let pf =
    Prefetcher.create ~streams:m.Machine.prefetch_streams
      ~degree:m.Machine.prefetch_degree
  in
  let tlb = Tlb.create ~entries:m.Machine.dtlb_entries ~page_shift in
  let backs =
    Array.of_list
      (List.map
         (fun sets ->
           { l2 = Cache.create ~sets ~ways:m.Machine.l2.Machine.ways;
             bev = Events.create () })
         sets)
  in
  let l1d =
    Cache.create ~sets:(geom_sets m.Machine.l1d ~line_size)
      ~ways:m.Machine.l1d.Machine.ways
  in
  let l1i =
    Cache.create ~sets:(geom_sets m.Machine.l1i ~line_size)
      ~ways:m.Machine.l1i.Machine.ways
  in
  let t =
    {
      machine = m;
      line_shift = Machine.line_shift m;
      l1i;
      l1d;
      tlb;
      pf;
      ev;
      backs;
      member_back = Array.of_list (List.map index member_sets);
      ctx_base = 0;
      last_line = -1;
      fill_cb = ignore;
    }
  in
  t.fill_cb <- (fun line -> prefetch_line t line);
  t

let create ~machine ~active_cores ~large_page_heap =
  create_group ~machine ~active_cores:[ active_cores ] ~large_page_heap

(* One data reference to a single line.  A reference to the line the
   previous data reference touched is a D-TLB hit and an L1D hit that
   leaves both LRU orders as they are, so it skips both; a store only sets
   the dirty bit.  Only data references touch L1D, and the D-TLB flushes
   ([on_context_switch], [flush]) clear [last_line]. *)
let data_line t ~line ~addr ~store =
  Events.unsafe_add t.ev (t.ctx_base + ix_instructions) 1;
  Events.unsafe_add t.ev (t.ctx_base + (if store then ix_stores else ix_loads)) 1;
  if line = t.last_line then begin
    if store then Cache.mark_mru_dirty t.l1d ~line
  end
  else begin
    t.last_line <- line;
    if not (Tlb.access t.tlb ~addr) then
      Events.unsafe_add t.ev (t.ctx_base + ix_dtlb_miss) 1;
    match Cache.access t.l1d ~line ~store with
    | Cache.Hit | Cache.Hit_prefetched -> ()
    | Cache.Miss ->
      Events.unsafe_add t.ev (t.ctx_base + ix_l1d_miss) 1;
      (* Read the L1 victim before the L2 references clobber anything. *)
      let victim =
        if Cache.victim_dirty t.l1d then Cache.victim_line t.l1d else -1
      in
      l2_refill t ~victim ~line;
      Prefetcher.on_miss t.pf ~line ~fill:t.fill_cb
  end

let on_data_access t ctx kind addr bytes =
  t.ctx_base <- Events.ctx_index ctx * Events.ncounters;
  let store =
    match kind with
    | Access.Load -> false
    | Access.Store -> true
  in
  let first = addr lsr t.line_shift in
  let last = (addr + bytes - 1) lsr t.line_shift in
  for line = first to last do
    let a = if line = first then addr else line lsl t.line_shift in
    data_line t ~line ~addr:a ~store
  done

let on_code_access t ctx addr =
  t.ctx_base <- Events.ctx_index ctx * Events.ncounters;
  let line = addr lsr t.line_shift in
  match Cache.access t.l1i ~line ~store:false with
  | Cache.Hit | Cache.Hit_prefetched -> ()
  | Cache.Miss ->
    Events.unsafe_add t.ev (t.ctx_base + ix_l1i_miss) 1;
    l2_demand t ~line

let on_instr t ctx n =
  Events.unsafe_add t.ev
    ((Events.ctx_index ctx * Events.ncounters) + ix_instructions)
    n

let attach t mem =
  (* Eta-expanded on purpose: [(on_data_access t)] would be a unary
     partial application, and every event delivery through it would go via
     caml_curry, allocating intermediate closures.  A literal [fun] of the
     full arity gets the non-allocating caml_apply fast path. *)
  Memory.set_access_observer mem (fun ctx kind addr bytes ->
      on_data_access t ctx kind addr bytes);
  Memory.set_code_observer mem (fun ctx addr -> on_code_access t ctx addr);
  Memory.set_instr_observer mem (fun ctx n -> on_instr t ctx n)

let on_context_switch t =
  if t.machine.Machine.tlb_flush_on_switch then begin
    Tlb.flush t.tlb;
    t.last_line <- -1
  end

let events t i =
  let ev = Events.copy t.ev in
  Events.accumulate ~into:ev t.backs.(t.member_back.(i)).bev;
  ev

let reset_events t =
  Events.reset t.ev;
  Array.iter (fun b -> Events.reset b.bev) t.backs

let flush t =
  Cache.flush t.l1i;
  Cache.flush t.l1d;
  Array.iter (fun b -> Cache.flush b.l2) t.backs;
  Tlb.flush t.tlb;
  Prefetcher.reset t.pf;
  t.last_line <- -1
