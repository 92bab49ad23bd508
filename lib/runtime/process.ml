module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer
module Rng = Mm_stats.Rng
module Dist = Mm_stats.Dist
module Spec = Mm_workload.Spec

(* Per-request server overhead outside the interpreter (HTTP parsing,
   socket work) charged to the kernel context at each transaction end. *)
let request_kernel_instr = 20_000

(* Cost of restarting a Ruby worker: process teardown, fork/exec, Rails
   boot — roughly three quarters of one transaction's work at the paper's
   scale (a ~1.5e8-instruction boot against ~2e8-cycle transactions).
   Expressed relative to the (possibly scaled) transaction so that
   restart-period experiments keep the paper's cost-per-transaction ratio
   at any simulation scale; Exp_ruby scales the periods themselves. *)
let restart_cost_ratio = 0.75

let restart_kernel_instr spec =
  let per_op = spec.Spec.app_instr_per_op + 90 in
  int_of_float
    (restart_cost_ratio *. float_of_int (spec.Spec.mallocs * per_op))

(* Fractional free/realloc calls owed, per Table 3's ratios.  An all-float
   record is stored flat, so updating it every op boxes nothing; mutable
   float fields of [t] itself would allocate on each write. *)
type credit = {
  mutable free_credit : float;
  mutable realloc_credit : float;
}

type t = {
  kind : Alloc_factory.kind;
  os : Os.t;
  mem : Memory.t;
  spec : Spec.t;
  pid : int;
  rng : Rng.t;
  mutable handle : Core.Allocator.handle;
  mutable live_addr : int array;
  mutable live_size : int array;
  mutable nlive : int;
  ws_base : int;
  stream_base : int;
  stream_bytes : int;
  mutable stream_pos : int;
  (* Samplers over the app code lines and the working-set lines, built
     once per process rather than memoised globally, because processes
     run on pool domains. *)
  code_zipf : Dist.zipf_sampler;
  ws_zipf : Dist.zipf_sampler;
  mutable ops_in_txn : int;
  mutable txns : int;
  credit : credit;
  mutable peaks : Mm_stats.Summary.t;
  mutable nrestarts : int;
  use_bulk_free : bool;
}

let create ~kind ~os ~mem ~spec ~pid ~seed ~use_bulk_free =
  let rng = Rng.create ~seed:(seed + (pid * 7919) + 13) in
  let handle = Alloc_factory.create kind ~os ~mem ~pid in
  let ws_base =
    Os.mmap os
      ~owner:(Os.owner os ~name:"app-ws" ~pid)
      ~bytes:spec.Spec.app_ws_bytes ~align:4096
  in
  let stream_bytes = 1024 * 1024 in
  let stream_base =
    Os.mmap os
      ~owner:(Os.owner os ~name:"app-stream" ~pid)
      ~bytes:stream_bytes ~align:4096
  in
  {
    kind;
    os;
    mem;
    spec;
    pid;
    rng;
    handle;
    live_addr = Array.make 4096 0;
    live_size = Array.make 4096 0;
    nlive = 0;
    ws_base;
    stream_base;
    stream_bytes;
    stream_pos = 0;
    code_zipf =
      Dist.zipf_sampler
        ~n:(Stdlib.max 1 ((spec.Spec.app_code_bytes / 64) - 8))
        ~s:1.05;
    ws_zipf = Dist.zipf_sampler ~n:(spec.Spec.app_ws_bytes / 64) ~s:0.85;
    ops_in_txn = 0;
    txns = 0;
    credit = { free_credit = 0.0; realloc_credit = 0.0 };
    peaks = Mm_stats.Summary.create ();
    nrestarts = 0;
    use_bulk_free;
  }

let handle t = t.handle

let txns_done t = t.txns

let live_objects t = t.nlive

let consumption_peaks t = t.peaks

let push_live t addr size =
  if t.nlive = Array.length t.live_addr then begin
    let grow a = Array.append a (Array.make t.nlive 0) in
    t.live_addr <- grow t.live_addr;
    t.live_size <- grow t.live_size
  end;
  t.live_addr.(t.nlive) <- addr;
  t.live_size.(t.nlive) <- size;
  t.nlive <- t.nlive + 1

let remove_live t idx =
  let last = t.nlive - 1 in
  t.live_addr.(idx) <- t.live_addr.(last);
  t.live_size.(idx) <- t.live_size.(last);
  t.nlive <- last

(* Pick a victim near the top of the allocation stack: interpreter
   temporaries die young and in near-LIFO order. *)
let pick_lifo t =
  let d = int_of_float (Rng.exponential t.rng ~mean:t.spec.Spec.lifo_depth) in
  let idx = t.nlive - 1 - d in
  if idx < 0 then 0 else idx

let pick_recent t =
  let d = int_of_float (Rng.exponential t.rng ~mean:24.0) in
  let idx = t.nlive - 1 - d in
  if idx < 0 then 0 else idx

let app_work t =
  let s = t.spec in
  Memory.instr t.mem s.Spec.app_instr_per_op;
  (* Hot interpreter code: a Zipf-popular basic-block run. *)
  let line = Dist.zipf_draw t.code_zipf t.rng in
  Core.Code_model.touch_path t.mem ~base:Alloc_factory.app_code_base
    ~offset:(line * 64) ~lines:s.Spec.code_lines_per_op;
  (* Application working set: symbol tables, compiled-code cache, session
     data; hot/cold skew via Zipf. *)
  for _ = 1 to s.Spec.ws_touches_per_op do
    let wline = Dist.zipf_draw t.ws_zipf t.rng in
    let kind =
      if Rng.bool t.rng ~p:0.3 then Mm_memsim.Access.Store
      else Mm_memsim.Access.Load
    in
    Memory.touch t.mem ~kind ~addr:(t.ws_base + (wline * 64)) ~bytes:8
  done

(* Streaming I/O buffers: database rows in, generated HTML out.  A ring
   far larger than L1 whose head always moves forward — cold, sequential
   traffic that every allocator pays alike (and that the Xeon prefetcher
   picks up, as it does for real socket buffers). *)
let stream_work t =
  let n = t.spec.Spec.stream_bytes_per_op in
  if n > 0 then begin
    let pos = t.stream_pos in
    let pos = if pos + n > t.stream_bytes then 0 else pos in
    let kind =
      if pos land 127 < 64 then Mm_memsim.Access.Load
      else Mm_memsim.Access.Store
    in
    Memory.touch t.mem ~kind ~addr:(t.stream_base + pos) ~bytes:n;
    t.stream_pos <- pos + n
  end

let touch_object t ~addr ~bytes ~kind =
  if bytes > 0 then Memory.touch t.mem ~kind ~addr ~bytes

let do_op t =
  let s = t.spec in
  let h = t.handle in
  app_work t;
  stream_work t;
  (* Allocate and initialize a new object. *)
  let size = Dist.sample_size s.Spec.size_dist t.rng ~min_bytes:8 in
  let addr = h.Core.Allocator.h_malloc ~size in
  let wbytes =
    Int.max 8 (int_of_float (s.Spec.write_fraction *. float_of_int size))
  in
  touch_object t ~addr ~bytes:(Int.min wbytes size)
    ~kind:Mm_memsim.Access.Store;
  push_live t addr size;
  (* Re-reference recently created objects (the app actually uses them). *)
  for _ = 1 to s.Spec.obj_touches_per_op do
    let idx = pick_recent t in
    touch_object t ~addr:t.live_addr.(idx)
      ~bytes:(Int.min t.live_size.(idx) 64)
      ~kind:Mm_memsim.Access.Load
  done;
  (* Occasional realloc (growing buffers, arrays). *)
  let c = t.credit in
  c.realloc_credit <-
    c.realloc_credit +. (float_of_int s.Spec.reallocs /. float_of_int s.Spec.mallocs);
  if c.realloc_credit >= 1.0 && t.nlive > 0 then begin
    c.realloc_credit <- c.realloc_credit -. 1.0;
    let idx = pick_recent t in
    let nsize = t.live_size.(idx) + Int.max 8 (t.live_size.(idx) / 2) in
    let naddr = h.Core.Allocator.h_realloc ~addr:t.live_addr.(idx) ~size:nsize in
    t.live_addr.(idx) <- naddr;
    t.live_size.(idx) <- nsize
  end;
  (* Per-object deaths at Table 3's free/malloc ratio.  Allocators without
     per-object free (region, obstack) have these calls removed, exactly as
     the paper's porting rule prescribes. *)
  if h.Core.Allocator.h_caps.Core.Allocator.per_object_free then begin
    c.free_credit <-
      c.free_credit
      +. (float_of_int s.Spec.frees /. float_of_int s.Spec.mallocs);
    while c.free_credit >= 1.0 && t.nlive > 0 do
      c.free_credit <- c.free_credit -. 1.0;
      let idx = pick_lifo t in
      h.Core.Allocator.h_free ~addr:t.live_addr.(idx);
      remove_live t idx
    done
  end

let finish_txn t =
  let h = t.handle in
  if t.use_bulk_free && h.Core.Allocator.h_caps.Core.Allocator.bulk_free then
    h.Core.Allocator.h_free_all ()
  else
    (* No bulk free (the Ruby runtime with general-purpose allocators):
       the collector retires the remaining transaction-scoped objects one
       by one. *)
    for i = 0 to t.nlive - 1 do
      h.Core.Allocator.h_free ~addr:t.live_addr.(i)
    done;
  t.nlive <- 0;
  Memory.with_context t.mem Mm_memsim.Access.Kernel (fun () ->
      Memory.instr t.mem request_kernel_instr);
  Mm_stats.Summary.add t.peaks
    (float_of_int h.Core.Allocator.h_stats.Core.Allocator.peak_consumption);
  h.Core.Allocator.h_reset_peak ();
  t.txns <- t.txns + 1;
  t.ops_in_txn <- 0

let step t ~ops =
  assert (ops > 0);
  let completed = ref false in
  let budget = ref ops in
  while !budget > 0 do
    do_op t;
    t.ops_in_txn <- t.ops_in_txn + 1;
    budget := !budget - 1;
    if t.ops_in_txn >= t.spec.Spec.mallocs then begin
      finish_txn t;
      completed := true;
      budget := 0
    end
  done;
  !completed

let restart t =
  Memory.with_context t.mem Mm_memsim.Access.Kernel (fun () ->
      Memory.instr t.mem (restart_kernel_instr t.spec));
  t.nlive <- 0;
  t.ops_in_txn <- 0;
  t.credit.free_credit <- 0.0;
  t.credit.realloc_credit <- 0.0;
  (* The dead heap's host backing goes before the fresh allocator maps
     anything.  Its claimed bytes stay on the owner, which the fresh
     allocator inherits, so consumption keeps counting the predecessor's
     heap: that accounting feeds stored measurements and is kept on
     purpose (see ROADMAP). *)
  Os.retire t.os (Os.owner t.os ~name:t.handle.Core.Allocator.h_name ~pid:t.pid);
  t.handle <- Alloc_factory.create t.kind ~os:t.os ~mem:t.mem ~pid:t.pid;
  t.nrestarts <- t.nrestarts + 1

let restarts t = t.nrestarts

let reset_measurement t = t.peaks <- Mm_stats.Summary.create ()
