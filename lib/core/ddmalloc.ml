module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer

type reuse_policy =
  | Lifo
  | Fifo
  | Addr_ordered

type config = {
  segment_size : int;
  arena_size : int;
  scheme : Size_class.scheme;
  pid_metadata_offset : bool;
  large_pages : bool;
  reuse : reuse_policy;
}

let config ?(segment_size = 32 * 1024) ?(arena_size = 256 * 1024 * 1024)
    ?scheme ?(pid_metadata_offset = false) ?(large_pages = false)
    ?(reuse = Lifo) () =
  assert (segment_size >= 4096 && segment_size land (segment_size - 1) = 0);
  assert (arena_size mod segment_size = 0);
  let scheme =
    match scheme with
    | Some s -> s
    | None -> Size_class.paper ~max_size:(segment_size / 2)
  in
  assert (Size_class.max_size scheme <= segment_size / 2);
  { segment_size; arena_size; scheme; pid_metadata_offset; large_pages; reuse }

let default_config = config ()

let name = "ddmalloc"

let capabilities =
  { Allocator.bulk_free = true; per_object_free = true; defragmentation = false }

(* DDmalloc's entire hot code is a couple of pages — the paper credits its
   L1I-miss reduction partly to this. *)
let code_size = 4096

(* Segment-class byte encoding. *)
let cls_unused = 0xFF

let cls_large_start = 0xFE

let cls_large_cont = 0xFD

(* Per-class metadata record: head of the singles free list, tail (FIFO
   policy only), and the address of the current carve run's next object.
   The number of objects left in the run lives *in the heap* at that
   address, as in Figure 3 of the paper. *)
let class_rec_bytes = 24

type t = {
  mem : Memory.t;
  cfg : config;
  code_base : int;
  seg_shift : int;  (* log2 segment_size *)
  nsegs : int;
  seg_base : int;  (* aligned to segment_size *)
  meta : int;  (* start of metadata (possibly pid-staggered) *)
  class_area : int;  (* start of the per-segment class byte array *)
  nclasses : int;
  mutable bump : int;  (* next never-touched segment index *)
  mutable scan_pos : int;  (* hint for unused-segment scans *)
  mutable segments_in_use : int;
  mutable live : int;
  mutable freed_large_segs : int;  (* how many 0xFF holes exist below bump *)
}

(* Instruction costs per path, counted from the operations each path performs
   (size-class map, one or two list-link updates, address arithmetic). *)
let cost_fast = 5

let cost_run = 9

let cost_carve = 28

let cost_free = 4

let cost_large_base = 40

let cost_per_seg = 4

let cost_free_all_base = 60

let touch t ~offset ~lines =
  Code_model.touch_path t.mem ~base:t.code_base ~offset ~lines

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(config = default_config) ~os ~mem ~pid ~code_base () =
  let cfg = config in
  let nsegs = cfg.arena_size / cfg.segment_size in
  let nclasses = Size_class.class_count cfg.scheme in
  (* §3.3 optimization 1: stagger each process's metadata by a pid-dependent
     offset so that, on processors where hardware threads share a small L1,
     different processes' metadata do not collide in the same cache sets. *)
  let stagger = if cfg.pid_metadata_offset then pid * 320 mod 3840 else 0 in
  let meta_bytes = 4096 + (nclasses * class_rec_bytes) + nsegs + 64 in
  let owner = Os.owner os ~name ~pid in
  let meta_base =
    Os.mmap os ~owner ~bytes:meta_bytes ~align:4096 ~large_pages:false
  in
  let seg_base =
    Os.mmap os ~owner ~bytes:cfg.arena_size ~align:cfg.segment_size
      ~large_pages:cfg.large_pages
  in
  let meta = meta_base + stagger in
  let class_rec_area = nclasses * class_rec_bytes in
  let class_area = meta + ((class_rec_area + 63) land lnot 63) in
  let t =
    {
      mem;
      cfg;
      code_base;
      seg_shift = log2 cfg.segment_size;
      nsegs;
      seg_base;
      meta;
      class_area;
      nclasses;
      bump = 0;
      scan_pos = 0;
      segments_in_use = 0;
      live = 0;
      freed_large_segs = 0;
    }
  in
  (* Initialize metadata: empty free lists, every segment unused. *)
  Memory.memset mem ~addr:meta ~bytes:class_rec_area ~value:0;
  Memory.memset mem ~addr:class_area ~bytes:nsegs ~value:cls_unused;
  t

let class_rec t c = t.meta + (c * class_rec_bytes)

let seg_of_addr t addr = (addr - t.seg_base) lsr t.seg_shift

let class_byte_addr t seg = t.class_area + seg

(* Find [n] contiguous unused segments.  The bump pointer serves fresh
   segments; once the arena has been fully touched (only possible without
   freeAll, e.g. the Ruby runtime), we fall back to scanning the class-byte
   array — every byte inspected is a real metadata load. *)
let acquire_run t n =
  if t.bump + n <= t.nsegs then (
    let s = t.bump in
    t.bump <- t.bump + n;
    s)
  else begin
    let start = if t.scan_pos + n > t.nsegs then 0 else t.scan_pos in
    let found = ref (-1) in
    let run = ref 0 in
    let i = ref start in
    let wrapped = ref false in
    while !found < 0 && not (!wrapped && !i >= start) do
      if !i >= t.nsegs then (
        i := 0;
        run := 0;
        wrapped := true)
      else begin
        Memory.instr t.mem 3;
        let b = Memory.load8 t.mem ~addr:(class_byte_addr t !i) in
        if b = cls_unused then begin
          incr run;
          if !run = n then found := !i - n + 1
        end
        else run := 0;
        incr i
      end
    done;
    if !found < 0 then
      raise
        (Invalid_argument
           (Printf.sprintf "ddmalloc: arena exhausted (%d segments)" t.nsegs));
    t.scan_pos <- !found + n;
    t.freed_large_segs <- t.freed_large_segs - n;
    !found
  end

let mark_segment t seg value =
  Memory.store8 t.mem ~addr:(class_byte_addr t seg) ~value

let seg_addr t seg = t.seg_base + (seg lsl t.seg_shift)

(* Push a freed object onto its class's singles list according to the
   configured reuse policy. *)
let push_free t c addr =
  let r = class_rec t c in
  match t.cfg.reuse with
  | Lifo ->
    let head = Memory.load_word t.mem ~addr:r in
    Memory.store_word t.mem ~addr ~value:head;
    Memory.store_word t.mem ~addr:r ~value:addr
  | Fifo ->
    Memory.store_word t.mem ~addr ~value:0;
    let tail = Memory.load_word t.mem ~addr:(r + 8) in
    if tail = 0 then Memory.store_word t.mem ~addr:r ~value:addr
    else Memory.store_word t.mem ~addr:tail ~value:addr;
    Memory.store_word t.mem ~addr:(r + 8) ~value:addr
  | Addr_ordered ->
    (* Walk to the insertion point; every hop is a real load of a dead
       object's link word.  This is the kind of work DDmalloc exists to
       dodge — kept as an ablation. *)
    let rec walk prev cur =
      Memory.instr t.mem 4;
      if cur = 0 || cur > addr then begin
        Memory.store_word t.mem ~addr ~value:cur;
        Memory.store_word t.mem ~addr:prev ~value:addr
      end
      else walk cur (Memory.load_word t.mem ~addr:cur)
    in
    let head = Memory.load_word t.mem ~addr:r in
    if head = 0 || head > addr then begin
      Memory.store_word t.mem ~addr ~value:head;
      Memory.store_word t.mem ~addr:r ~value:addr
    end
    else walk head (Memory.load_word t.mem ~addr:head)

let pop_free t c =
  let r = class_rec t c in
  let head = Memory.load_word t.mem ~addr:r in
  if head = 0 then 0
  else begin
    let next = Memory.load_word t.mem ~addr:head in
    Memory.store_word t.mem ~addr:r ~value:next;
    (match t.cfg.reuse with
    | Fifo -> if next = 0 then Memory.store_word t.mem ~addr:(r + 8) ~value:0
    | Lifo | Addr_ordered -> ());
    head
  end

(* Take the next object from the carve run, maintaining the
   remaining-object count at the top of the unallocated run (Figure 3). *)
let pop_run t c =
  let r = class_rec t c in
  let run = Memory.load_word t.mem ~addr:(r + 16) in
  if run = 0 then 0
  else begin
    let left = Memory.load_word t.mem ~addr:run in
    if left > 1 then begin
      let osize = Size_class.size_of_index t.cfg.scheme c in
      let next = run + osize in
      Memory.store_word t.mem ~addr:next ~value:(left - 1);
      Memory.store_word t.mem ~addr:(r + 16) ~value:next
    end
    else Memory.store_word t.mem ~addr:(r + 16) ~value:0;
    run
  end

let carve_segment t c =
  let seg = acquire_run t 1 in
  t.segments_in_use <- t.segments_in_use + 1;
  mark_segment t seg c;
  let osize = Size_class.size_of_index t.cfg.scheme c in
  let per_seg = t.cfg.segment_size / osize in
  let base = seg_addr t seg in
  if per_seg > 1 then begin
    (* First object is returned to the caller; the rest form the run, with
       the count stored at its top. *)
    let run = base + osize in
    Memory.store_word t.mem ~addr:run ~value:(per_seg - 1);
    Memory.store_word t.mem ~addr:(class_rec t c + 16) ~value:run
  end;
  base

let malloc_large t size =
  let n = (size + t.cfg.segment_size - 1) / t.cfg.segment_size in
  Memory.instr t.mem (cost_large_base + (cost_per_seg * n));
  touch t ~offset:2048 ~lines:6;
  let seg = acquire_run t n in
  t.segments_in_use <- t.segments_in_use + n;
  mark_segment t seg cls_large_start;
  for i = 1 to n - 1 do
    mark_segment t (seg + i) cls_large_cont
  done;
  t.live <- t.live + 1;
  seg_addr t seg

let malloc t ~size =
  assert (size > 0);
  if size > Size_class.max_size t.cfg.scheme then malloc_large t size
  else begin
    let c = Size_class.index_of_size t.cfg.scheme size in
    let addr = pop_free t c in
    if addr <> 0 then begin
      Memory.instr t.mem cost_fast;
      touch t ~offset:0 ~lines:2;
      t.live <- t.live + 1;
      addr
    end
    else
      let addr = pop_run t c in
      if addr <> 0 then begin
        Memory.instr t.mem cost_run;
        touch t ~offset:192 ~lines:3;
        t.live <- t.live + 1;
        addr
      end
      else begin
        Memory.instr t.mem cost_carve;
        touch t ~offset:448 ~lines:5;
        let addr = carve_segment t c in
        t.live <- t.live + 1;
        addr
      end
  end

let large_run_length t seg =
  let n = ref 1 in
  while
    seg + !n < t.nsegs
    && Memory.load8 t.mem ~addr:(class_byte_addr t (seg + !n)) = cls_large_cont
  do
    incr n
  done;
  !n

let free t ~addr =
  let seg = seg_of_addr t addr in
  assert (seg >= 0 && seg < t.nsegs);
  let b = Memory.load8 t.mem ~addr:(class_byte_addr t seg) in
  if b = cls_large_start then begin
    let n = large_run_length t seg in
    Memory.instr t.mem (cost_large_base + (cost_per_seg * n));
    touch t ~offset:2432 ~lines:3;
    for i = 0 to n - 1 do
      mark_segment t (seg + i) cls_unused
    done;
    t.segments_in_use <- t.segments_in_use - n;
    t.freed_large_segs <- t.freed_large_segs + n;
    t.live <- t.live - 1
  end
  else begin
    assert (b < t.nclasses);
    Memory.instr t.mem cost_free;
    touch t ~offset:1280 ~lines:2;
    push_free t b addr;
    t.live <- t.live - 1
  end

let usable_size t ~addr =
  let seg = seg_of_addr t addr in
  let b = Memory.load8 t.mem ~addr:(class_byte_addr t seg) in
  Memory.instr t.mem 5;
  if b = cls_large_start then large_run_length t seg * t.cfg.segment_size
  else begin
    assert (b < t.nclasses);
    Size_class.size_of_index t.cfg.scheme b
  end

let realloc t ~addr ~size =
  assert (size > 0);
  touch t ~offset:3584 ~lines:3;
  let old_usable = usable_size t ~addr in
  let fits_in_place =
    if size > Size_class.max_size t.cfg.scheme then
      (* Large objects stay in place when the segment run still covers the
         new size and shrinking would not release a whole segment. *)
      size <= old_usable && old_usable - size < t.cfg.segment_size
    else
      old_usable <= Size_class.max_size t.cfg.scheme
      && Size_class.index_of_size t.cfg.scheme size
         = Size_class.index_of_size t.cfg.scheme old_usable
  in
  if fits_in_place then begin
    Memory.instr t.mem 6;
    addr
  end
  else begin
    let naddr = malloc t ~size in
    let bytes = Int.min old_usable size in
    Memory.memcpy t.mem ~dst:naddr ~src:addr ~bytes;
    Memory.instr t.mem (8 + (bytes / 8));
    free t ~addr;
    naddr
  end

let free_all t =
  Memory.instr t.mem (cost_free_all_base + (t.nsegs / 16));
  touch t ~offset:3072 ~lines:5;
  Memory.memset t.mem ~addr:t.meta
    ~bytes:(t.nclasses * class_rec_bytes)
    ~value:0;
  Memory.memset t.mem ~addr:t.class_area ~bytes:t.nsegs ~value:cls_unused;
  t.bump <- 0;
  t.scan_pos <- 0;
  t.segments_in_use <- 0;
  t.live <- 0;
  t.freed_large_segs <- 0

let metadata_bytes t = (t.nclasses * class_rec_bytes) + t.nsegs

(* Figure 9's definition for DDmalloc: allocated segments plus metadata. *)
let consumption t = (t.segments_in_use * t.cfg.segment_size) + metadata_bytes t

let live_objects t = t.live

let segments_in_use t = t.segments_in_use

let arena_base t = t.seg_base
