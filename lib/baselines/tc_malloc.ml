module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer

type config = {
  span_size : int;
  batch : int;
  cache_cap : int;
  large_pages : bool;
}

let config ?(span_size = 64 * 1024) ?(batch = 16) ?(cache_cap = 256)
    ?(large_pages = false) () =
  assert (span_size >= 4096 && span_size land (span_size - 1) = 0);
  assert (batch > 0 && cache_cap >= 2 * batch);
  { span_size; batch; cache_cap; large_pages }

let default_config = config ()

let name = "tcmalloc"

let capabilities =
  {
    Core.Allocator.bulk_free = false;
    per_object_free = true;
    defragmentation = true;  (* delayed: scavenging and central transfers *)
  }

let code_size = 16 * 1024

let span_header = 64

let large_flag = 1 lsl 60

(* Per-class metadata record: thread-cache head and length, central
   free-list head and length. *)
let rec_bytes = 32

type t = {
  mem : Memory.t;
  os : Os.t;
  cfg : config;
  scheme : Core.Size_class.scheme;
  owner : Os.owner;
  code_base : int;
  meta : int;
  mutable live : int;
  mutable scavenges : int;
}

let create ?(config = default_config) ~os ~mem ~pid ~code_base () =
  let scheme = Core.Size_class.fine ~max_size:(config.span_size / 4) in
  let n = Core.Size_class.class_count scheme in
  let owner = Os.owner os ~name ~pid in
  let meta =
    Os.mmap os ~owner ~bytes:(n * rec_bytes) ~align:64
  in
  Memory.memset mem ~addr:meta ~bytes:(n * rec_bytes) ~value:0;
  {
    mem;
    os;
    cfg = config;
    scheme;
    owner;
    code_base;
    meta;
    live = 0;
    scavenges = 0;
  }

let touch t ~offset ~lines =
  Core.Code_model.touch_path t.mem ~base:t.code_base ~offset ~lines

let class_rec t c = t.meta + (c * rec_bytes)

let span_of_addr t addr = addr land lnot (t.cfg.span_size - 1)

(* Carve a fresh span for class [c], linking every object into the central
   free list up front (TCmalloc's PopulateFreeList). *)
let carve_span t c =
  Memory.instr t.mem 80;
  touch t ~offset:1536 ~lines:5;
  let span =
    Os.mmap t.os ~owner:t.owner ~bytes:t.cfg.span_size
      ~align:t.cfg.span_size
  in
  Memory.store_word t.mem ~addr:span ~value:c;
  let osize = Core.Size_class.size_of_index t.scheme c in
  let first = span + span_header in
  let count = (t.cfg.span_size - span_header) / osize in
  let r = class_rec t c in
  let old_central = Memory.load_word t.mem ~addr:(r + 16) in
  (* Link object i to object i+1; the last links to the old central head. *)
  for i = 0 to count - 1 do
    Memory.instr t.mem 3;
    let obj = first + (i * osize) in
    let next = if i = count - 1 then old_central else obj + osize in
    Memory.store_word t.mem ~addr:obj ~value:next
  done;
  Memory.store_word t.mem ~addr:(r + 16) ~value:first;
  let central_len = Memory.load_word t.mem ~addr:(r + 24) in
  Memory.store_word t.mem ~addr:(r + 24) ~value:(central_len + count)

(* Move up to [batch] objects central -> thread cache (walking the chain —
   each hop is a real load of a dead object's link word). *)
let refill t c =
  Memory.instr t.mem 20;
  touch t ~offset:512 ~lines:4;
  let r = class_rec t c in
  if Memory.load_word t.mem ~addr:(r + 16) = 0 then carve_span t c;
  let head = Memory.load_word t.mem ~addr:(r + 16) in
  let central_len = Memory.load_word t.mem ~addr:(r + 24) in
  let take = Int.min t.cfg.batch central_len in
  assert (take > 0);
  let last = ref head in
  for _ = 2 to take do
    Memory.instr t.mem 2;
    last := Memory.load_word t.mem ~addr:!last
  done;
  let rest = Memory.load_word t.mem ~addr:!last in
  (* Splice the batch onto the (empty) thread-cache list. *)
  let tc_head = Memory.load_word t.mem ~addr:r in
  Memory.store_word t.mem ~addr:!last ~value:tc_head;
  Memory.store_word t.mem ~addr:r ~value:head;
  let tc_len = Memory.load_word t.mem ~addr:(r + 8) in
  Memory.store_word t.mem ~addr:(r + 8) ~value:(tc_len + take);
  Memory.store_word t.mem ~addr:(r + 16) ~value:rest;
  Memory.store_word t.mem ~addr:(r + 24) ~value:(central_len - take)

(* Release half the cache list back to central — TCmalloc's scavenging,
   the "delayed defragmentation" the paper contrasts with dodging. *)
let scavenge t c =
  let r = class_rec t c in
  let tc_len = Memory.load_word t.mem ~addr:(r + 8) in
  let give = tc_len / 2 in
  Memory.instr t.mem (20 + (2 * give));
  touch t ~offset:1024 ~lines:4;
  let head = Memory.load_word t.mem ~addr:r in
  let last = ref head in
  for _ = 2 to give do
    last := Memory.load_word t.mem ~addr:!last
  done;
  let rest = Memory.load_word t.mem ~addr:!last in
  let central = Memory.load_word t.mem ~addr:(r + 16) in
  Memory.store_word t.mem ~addr:!last ~value:central;
  Memory.store_word t.mem ~addr:(r + 16) ~value:head;
  Memory.store_word t.mem ~addr:r ~value:rest;
  Memory.store_word t.mem ~addr:(r + 8) ~value:(tc_len - give);
  let central_len = Memory.load_word t.mem ~addr:(r + 24) in
  Memory.store_word t.mem ~addr:(r + 24) ~value:(central_len + give);
  t.scavenges <- t.scavenges + 1

let malloc t ~size =
  assert (size > 0);
  if size > Core.Size_class.max_size t.scheme then begin
    Memory.instr t.mem 70;
    touch t ~offset:2048 ~lines:4;
    let bytes = ((size + 63) land lnot 63) + span_header in
    let span = Os.mmap t.os ~owner:t.owner ~bytes ~align:t.cfg.span_size in
    Memory.store_word t.mem ~addr:span ~value:(bytes lor large_flag);
    t.live <- t.live + 1;
    span + span_header
  end
  else begin
    Memory.instr t.mem 8;
    touch t ~offset:0 ~lines:2;
    let c = Core.Size_class.index_of_size t.scheme size in
    let r = class_rec t c in
    let head = Memory.load_word t.mem ~addr:r in
    if head = 0 then refill t c;
    let head = Memory.load_word t.mem ~addr:r in
    assert (head <> 0);
    let next = Memory.load_word t.mem ~addr:head in
    Memory.store_word t.mem ~addr:r ~value:next;
    let len = Memory.load_word t.mem ~addr:(r + 8) in
    Memory.store_word t.mem ~addr:(r + 8) ~value:(len - 1);
    t.live <- t.live + 1;
    head
  end

let free t ~addr =
  let span = span_of_addr t addr in
  let cw = Memory.load_word t.mem ~addr:span in
  if cw land large_flag <> 0 then begin
    Memory.instr t.mem 40;
    touch t ~offset:2560 ~lines:2;
    Os.munmap t.os ~owner:t.owner ~addr:span ~bytes:(cw land lnot large_flag);
    t.live <- t.live - 1
  end
  else begin
    Memory.instr t.mem 9;
    touch t ~offset:256 ~lines:2;
    let c = cw in
    let r = class_rec t c in
    let head = Memory.load_word t.mem ~addr:r in
    Memory.store_word t.mem ~addr ~value:head;
    Memory.store_word t.mem ~addr:r ~value:addr;
    let len = Memory.load_word t.mem ~addr:(r + 8) + 1 in
    Memory.store_word t.mem ~addr:(r + 8) ~value:len;
    if len > t.cfg.cache_cap then scavenge t c;
    t.live <- t.live - 1
  end

let usable_size t ~addr =
  Memory.instr t.mem 8;
  let span = span_of_addr t addr in
  let cw = Memory.load_word t.mem ~addr:span in
  if cw land large_flag <> 0 then (cw land lnot large_flag) - span_header
  else Core.Size_class.size_of_index t.scheme cw

let realloc t ~addr ~size =
  assert (size > 0);
  touch t ~offset:3072 ~lines:2;
  let old = usable_size t ~addr in
  let in_place =
    if size > Core.Size_class.max_size t.scheme then size <= old && old <= 2 * size
    else
      old <= Core.Size_class.max_size t.scheme
      && Core.Size_class.index_of_size t.scheme size
         = Core.Size_class.index_of_size t.scheme old
  in
  if in_place then begin
    Memory.instr t.mem 10;
    addr
  end
  else begin
    let naddr = malloc t ~size in
    let bytes = Int.min old size in
    Memory.memcpy t.mem ~dst:naddr ~src:addr ~bytes;
    Memory.instr t.mem (8 + (bytes / 8));
    free t ~addr;
    naddr
  end

let free_all (_ : t) = invalid_arg "tcmalloc has no bulk free"

let consumption t = Os.claimed t.owner

let live_objects t = t.live

let scavenges t = t.scavenges
