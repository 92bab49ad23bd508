module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer

let name = "hoard"

let capabilities =
  {
    Core.Allocator.bulk_free = false;
    per_object_free = true;
    defragmentation = false;
  }

let code_size = 12 * 1024

(* Hoard's superblock size; a power of two, so the superblock of an
   object is a mask of its address. *)
let superblock_size = 8192

(* Superblock header layout (one 64-byte line at the superblock base):
   +0 free-list head, +8 carve pointer (0 = exhausted), +16 used count,
   +24 size-class word (or large-object byte size with the top bit set),
   +32 next superblock in the class's available list, +40 prev. *)
let header = 64

let large_flag = 1 lsl 60

(* Power-of-two classes 8..4096. *)
let nclasses = 10

(* A loop, not a local recursive function: that would allocate a closure
   over [size] on every malloc. *)
let class_of_size size =
  let c = ref 0 and s = ref 8 in
  while !s < size do
    incr c;
    s := !s * 2
  done;
  !c

let size_of_class c = 8 lsl c

let max_small = size_of_class (nclasses - 1)

type t = {
  mem : Memory.t;
  os : Os.t;
  owner : Os.owner;
  code_base : int;
  meta : int;  (* avail_head[c] at meta+8c, empty_cache[c] at meta+8(n+c) *)
  mutable live : int;
  mutable sbs : int;
}

let create ~os ~mem ~pid ~code_base () =
  let owner = Os.owner os ~name ~pid in
  let meta =
    Os.mmap os ~owner ~bytes:(16 * nclasses) ~align:64
  in
  Memory.memset mem ~addr:meta ~bytes:(16 * nclasses) ~value:0;
  { mem; os; owner; code_base; meta; live = 0; sbs = 0 }

let avail_head t c = t.meta + (8 * c)

let empty_cache t c = t.meta + (8 * (nclasses + c))

let touch t ~offset ~lines =
  Core.Code_model.touch_path t.mem ~base:t.code_base ~offset ~lines

let sb_of_addr addr = addr land lnot (superblock_size - 1)

let avail_insert t c sb =
  let n = Memory.load_word t.mem ~addr:(avail_head t c) in
  Memory.store_word t.mem ~addr:(sb + 32) ~value:n;
  Memory.store_word t.mem ~addr:(sb + 40) ~value:0;
  if n <> 0 then Memory.store_word t.mem ~addr:(n + 40) ~value:sb;
  Memory.store_word t.mem ~addr:(avail_head t c) ~value:sb

let avail_unlink t c sb =
  let next = Memory.load_word t.mem ~addr:(sb + 32) in
  let prev = Memory.load_word t.mem ~addr:(sb + 40) in
  if prev = 0 then Memory.store_word t.mem ~addr:(avail_head t c) ~value:next
  else Memory.store_word t.mem ~addr:(prev + 32) ~value:next;
  if next <> 0 then Memory.store_word t.mem ~addr:(next + 40) ~value:prev

let init_superblock t sb c =
  Memory.store_word t.mem ~addr:sb ~value:0;
  Memory.store_word t.mem ~addr:(sb + 8) ~value:(sb + header);
  Memory.store_word t.mem ~addr:(sb + 16) ~value:0;
  Memory.store_word t.mem ~addr:(sb + 24) ~value:c

let new_superblock t c =
  (* Reuse the class's cached empty superblock if there is one (Hoard's
     emptiness hysteresis); otherwise map a fresh one. *)
  let cached = Memory.load_word t.mem ~addr:(empty_cache t c) in
  let sb =
    if cached <> 0 then begin
      Memory.store_word t.mem ~addr:(empty_cache t c) ~value:0;
      cached
    end
    else begin
      Memory.instr t.mem 40;
      let sb =
        Os.mmap t.os ~owner:t.owner ~bytes:superblock_size
          ~align:superblock_size
      in
      t.sbs <- t.sbs + 1;
      sb
    end
  in
  init_superblock t sb c;
  avail_insert t c sb;
  sb

let sb_is_full t sb =
  let fh = Memory.load_word t.mem ~addr:sb in
  fh = 0 && Memory.load_word t.mem ~addr:(sb + 8) = 0

let malloc t ~size =
  assert (size > 0);
  if size > max_small then begin
    (* Large objects get a dedicated aligned mapping with the size recorded
       in the header word. *)
    Memory.instr t.mem 60;
    touch t ~offset:2048 ~lines:4;
    let bytes = ((size + 63) land lnot 63) + header in
    let sb = Os.mmap t.os ~owner:t.owner ~bytes ~align:superblock_size in
    Memory.store_word t.mem ~addr:(sb + 24) ~value:(bytes lor large_flag);
    t.live <- t.live + 1;
    sb + header
  end
  else begin
    Memory.instr t.mem 12;
    touch t ~offset:0 ~lines:3;
    let c = class_of_size size in
    let sb = Memory.load_word t.mem ~addr:(avail_head t c) in
    let sb = if sb = 0 then new_superblock t c else sb in
    let osize = size_of_class c in
    let fh = Memory.load_word t.mem ~addr:sb in
    let obj =
      if fh <> 0 then begin
        let next = Memory.load_word t.mem ~addr:fh in
        Memory.store_word t.mem ~addr:sb ~value:next;
        fh
      end
      else begin
        let bump = Memory.load_word t.mem ~addr:(sb + 8) in
        let next = bump + osize in
        let next =
          if next + osize > sb + superblock_size then 0 else next
        in
        Memory.store_word t.mem ~addr:(sb + 8) ~value:next;
        bump
      end
    in
    let used = Memory.load_word t.mem ~addr:(sb + 16) in
    Memory.store_word t.mem ~addr:(sb + 16) ~value:(used + 1);
    if sb_is_full t sb then begin
      Memory.instr t.mem 10;
      avail_unlink t c sb
    end;
    t.live <- t.live + 1;
    obj
  end

let free t ~addr =
  let sb = sb_of_addr addr in
  let cw = Memory.load_word t.mem ~addr:(sb + 24) in
  if cw land large_flag <> 0 then begin
    Memory.instr t.mem 40;
    touch t ~offset:2560 ~lines:2;
    let bytes = cw land lnot large_flag in
    Os.munmap t.os ~owner:t.owner ~addr:sb ~bytes;
    t.live <- t.live - 1
  end
  else begin
    Memory.instr t.mem 10;
    touch t ~offset:1024 ~lines:2;
    let c = cw in
    let was_full = sb_is_full t sb in
    let fh = Memory.load_word t.mem ~addr:sb in
    Memory.store_word t.mem ~addr ~value:fh;
    Memory.store_word t.mem ~addr:sb ~value:addr;
    let used = Memory.load_word t.mem ~addr:(sb + 16) - 1 in
    Memory.store_word t.mem ~addr:(sb + 16) ~value:used;
    if was_full then begin
      Memory.instr t.mem 10;
      avail_insert t c sb
    end;
    if used = 0 then begin
      (* Empty superblock: cache one per class, release the rest. *)
      Memory.instr t.mem 16;
      avail_unlink t c sb;
      let cached = Memory.load_word t.mem ~addr:(empty_cache t c) in
      if cached = 0 then
        Memory.store_word t.mem ~addr:(empty_cache t c) ~value:sb
      else begin
        Os.munmap t.os ~owner:t.owner ~addr:sb
          ~bytes:superblock_size;
        t.sbs <- t.sbs - 1
      end
    end;
    t.live <- t.live - 1
  end

let usable_size t ~addr =
  Memory.instr t.mem 8;
  let sb = sb_of_addr addr in
  let cw = Memory.load_word t.mem ~addr:(sb + 24) in
  if cw land large_flag <> 0 then (cw land lnot large_flag) - header
  else size_of_class cw

let realloc t ~addr ~size =
  assert (size > 0);
  touch t ~offset:3072 ~lines:2;
  let old = usable_size t ~addr in
  let same_class =
    size <= max_small && old <= max_small && class_of_size size = class_of_size old
  in
  if same_class || (size <= old && old <= 2 * size) then begin
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

let free_all (_ : t) = invalid_arg "hoard has no bulk free"

let consumption t = Os.claimed t.owner

let live_objects t = t.live

let superblocks_live t = t.sbs
