module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer

type params = {
  block_size : int;
  use_unsorted : bool;
  owner : string;
  large_pages : bool;
}

(* Chunk layout (dlmalloc-style).  A chunk starts with an 8-byte header
   holding its total size (a multiple of 8) plus flag bits; the payload
   follows.  Free chunks additionally carry forward/backward list links in
   their first two payload words and a copy of the size in their last word
   (the footer), which backward coalescing reads.  The footer word doubles
   as payload while the chunk is in use. *)

let cur_inuse = 1

let prev_inuse = 2

let mmapped = 4

let flag_mask = 7

let header_bytes = 8

let min_chunk = 32

(* Bin geometry: exact bins in 8-byte steps for chunks up to 512 bytes, then
   one bin per power of two.  Bin heads are pseudo-nodes (fd, bk) living in
   simulated memory, forming circular doubly-linked lists as in dlmalloc. *)
let small_max = 512

let small_bins = ((small_max - min_chunk) / 8) + 1

type t = {
  mem : Memory.t;
  os : Os.t;
  p : params;
  owner : Os.owner;
  code_base : int;
  bins : int;  (* base address of bin head nodes *)
  nbins : int;  (* sized bins *)
  unsorted : int;  (* index of the unsorted bin (= nbins) *)
  mutable block_list : (int * int) list;  (* (base, bytes) *)
  mutable nblocks : int;
  mutable live : int;
  mutable mmapped_live : (int * int) list;  (* (chunk, bytes) *)
}

(* The search loops below are while-loops over refs rather than local
   recursive functions: those capture their free variables in a closure
   allocated on every call, and these run on every malloc. *)
let log2_ceil n =
  let acc = ref 0 and p = ref 1 in
  while !p < n do
    incr acc;
    p := !p * 2
  done;
  !acc

let bin_count p = small_bins + (log2_ceil p.block_size - 9)

let bin_of t csize =
  if csize <= small_max then (csize - min_chunk) / 8
  else
    let b = small_bins + (log2_ceil csize - 10) in
    if b >= t.nbins then t.nbins - 1 else b

let bin_node t i = t.bins + (16 * i)

(* List nodes: node.fd at node+0, node.bk at node+8.  A chunk's node is its
   payload address (chunk + 8); bin heads are standalone nodes. *)
let node_of_chunk chunk = chunk + 8

let chunk_of_node node = node - 8

let size_of h = h land lnot flag_mask

let load_header t chunk = Memory.load_word t.mem ~addr:chunk

let store_header t chunk v = Memory.store_word t.mem ~addr:chunk ~value:v

let store_footer t chunk csize =
  Memory.store_word t.mem ~addr:(chunk + csize - 8) ~value:csize

let list_insert t head node =
  let first = Memory.load_word t.mem ~addr:head in
  Memory.store_word t.mem ~addr:node ~value:first;
  Memory.store_word t.mem ~addr:(node + 8) ~value:head;
  Memory.store_word t.mem ~addr:(first + 8) ~value:node;
  Memory.store_word t.mem ~addr:head ~value:node

let list_unlink t node =
  let fd = Memory.load_word t.mem ~addr:node in
  let bk = Memory.load_word t.mem ~addr:(node + 8) in
  Memory.store_word t.mem ~addr:bk ~value:fd;
  Memory.store_word t.mem ~addr:(fd + 8) ~value:bk

let bin_is_empty t i =
  let head = bin_node t i in
  Memory.load_word t.mem ~addr:head = head

let insert_free t chunk csize ~to_unsorted =
  let i = if to_unsorted then t.unsorted else bin_of t csize in
  list_insert t (bin_node t i) (node_of_chunk chunk)

let reset_bins t =
  for i = 0 to t.nbins do
    let head = bin_node t i in
    Memory.store_word t.mem ~addr:head ~value:head;
    Memory.store_word t.mem ~addr:(head + 8) ~value:head
  done

(* Lay out a fresh or recycled block as one big free chunk guarded by an
   in-use sentinel header at the block's end. *)
let init_block t base bytes =
  let csize = bytes - 8 in
  store_header t base (csize lor prev_inuse);
  store_footer t base csize;
  store_header t (base + csize) cur_inuse;
  insert_free t base csize ~to_unsorted:false

let new_block t =
  Memory.instr t.mem 80;
  let bytes = t.p.block_size in
  let base = Os.mmap t.os ~owner:t.owner ~bytes ~align:64 in
  t.block_list <- (base, bytes) :: t.block_list;
  t.nblocks <- t.nblocks + 1;
  init_block t base bytes;
  base

let create p ~os ~mem ~pid ~code_base =
  let nbins = bin_count p in
  let bins_bytes = (nbins + 1) * 16 in
  let owner = Os.owner os ~name:p.owner ~pid in
  let bins = Os.mmap os ~owner ~bytes:bins_bytes ~align:64 in
  let t =
    {
      mem;
      os;
      p;
      owner;
      code_base;
      bins;
      nbins;
      unsorted = nbins;
      block_list = [];
      nblocks = 0;
      live = 0;
      mmapped_live = [];
    }
  in
  reset_bins t;
  ignore (new_block t : int);
  t

let touch t ~offset ~lines =
  Core.Code_model.touch_path t.mem ~base:t.code_base ~offset ~lines

let needed_size size =
  let nb = ((size + 7) land lnot 7) + header_bytes in
  if nb < min_chunk then min_chunk else nb

(* Split [chunk] (free, unlinked, [csize] bytes) for an [nb]-byte request:
   the remainder, if big enough to stand alone, becomes a new free chunk. *)
let take_chunk t chunk csize nb =
  let h = load_header t chunk in
  let prev_bit = h land prev_inuse in
  if csize - nb >= min_chunk then begin
    Memory.instr t.mem 10;
    let rem = chunk + nb in
    let rsize = csize - nb in
    store_header t rem (rsize lor prev_inuse);
    store_footer t rem rsize;
    insert_free t rem rsize ~to_unsorted:false;
    store_header t chunk (nb lor cur_inuse lor prev_bit)
  end
  else begin
    (* Whole chunk: tell the next chunk its predecessor is now in use. *)
    let next = chunk + csize in
    let nh = load_header t next in
    store_header t next (nh lor prev_inuse);
    store_header t chunk (csize lor cur_inuse lor prev_bit)
  end

(* glibc-style deferred binning: malloc first sifts the unsorted bin,
   taking an exact fit if one appears and otherwise filing each chunk into
   its sized bin.  This is defragmentation work that TCmalloc delays and
   DDmalloc dodges entirely. *)
let process_unsorted t nb =
  let head = bin_node t t.unsorted in
  let taken = ref 0 in
  let continue = ref true in
  while !continue do
    let node = Memory.load_word t.mem ~addr:head in
    if node = head then continue := false
    else begin
      Memory.instr t.mem 8;
      let chunk = chunk_of_node node in
      let csize = size_of (load_header t chunk) in
      list_unlink t node;
      if csize >= nb && csize < nb + min_chunk && !taken = 0 then begin
        taken := chunk;
        continue := false
      end
      else insert_free t chunk csize ~to_unsorted:false
    end
  done;
  !taken

(* First fit inside one bin; exact-size small bins never iterate. *)
let search_bin t i nb =
  let head = bin_node t i in
  let node = ref (Memory.load_word t.mem ~addr:head) in
  let found = ref 0 in
  while !found = 0 && !node <> head do
    Memory.instr t.mem 4;
    let chunk = chunk_of_node !node in
    let csize = size_of (load_header t chunk) in
    if csize >= nb then found := chunk
    else node := Memory.load_word t.mem ~addr:!node
  done;
  !found

let malloc_from_bins t nb =
  let i = ref (bin_of t nb) in
  let found = ref 0 in
  while !found = 0 && !i <= t.nbins - 1 do
    Memory.instr t.mem 2;
    if not (bin_is_empty t !i) then found := search_bin t !i nb;
    incr i
  done;
  !found

let malloc t ~size =
  assert (size > 0);
  let nb = needed_size size in
  Memory.instr t.mem 7;
  touch t ~offset:0 ~lines:3;
  if nb > t.p.block_size - 64 then begin
    (* Too large for a block: a dedicated mapping, as glibc and Zend do. *)
    Memory.instr t.mem 60;
    touch t ~offset:1024 ~lines:3;
    let chunk = Os.mmap t.os ~owner:t.owner ~bytes:nb ~align:64 in
    store_header t chunk (nb lor cur_inuse lor mmapped lor prev_inuse);
    t.mmapped_live <- (chunk, nb) :: t.mmapped_live;
    t.live <- t.live + 1;
    chunk + 8
  end
  else begin
    let from_unsorted = if t.p.use_unsorted then process_unsorted t nb else 0 in
    let chunk =
      if from_unsorted <> 0 then begin
        (* Exact-enough fit straight from the unsorted bin. *)
        let csize = size_of (load_header t from_unsorted) in
        let next = from_unsorted + csize in
        let nh = load_header t next in
        store_header t next (nh lor prev_inuse);
        let h = load_header t from_unsorted in
        store_header t from_unsorted
          (csize lor cur_inuse lor (h land prev_inuse));
        from_unsorted
      end
      else begin
        let chunk = malloc_from_bins t nb in
        let chunk = if chunk = 0 then new_block t else chunk in
        let csize = size_of (load_header t chunk) in
        list_unlink t (node_of_chunk chunk);
        take_chunk t chunk csize nb;
        chunk
      end
    in
    t.live <- t.live + 1;
    chunk + 8
  end

let free t ~addr =
  let chunk = addr - 8 in
  let h = load_header t chunk in
  assert (h land cur_inuse <> 0);
  Memory.instr t.mem 9;
  touch t ~offset:512 ~lines:3;
  if h land mmapped <> 0 then begin
    let bytes = size_of h in
    t.mmapped_live <- List.filter (fun (c, _) -> c <> chunk) t.mmapped_live;
    Os.munmap t.os ~owner:t.owner ~addr:chunk ~bytes;
    t.live <- t.live - 1
  end
  else begin
    let csize = ref (size_of h) in
    let front = ref chunk in
    (* Forward coalesce: absorb the next chunk if it is free. *)
    let next = chunk + !csize in
    let nh = load_header t next in
    if nh land cur_inuse = 0 then begin
      Memory.instr t.mem 8;
      list_unlink t (node_of_chunk next);
      csize := !csize + size_of nh
    end;
    (* Backward coalesce: our header says whether the previous chunk is
       free; its footer sits just below our header. *)
    if h land prev_inuse = 0 then begin
      Memory.instr t.mem 8;
      let psize = Memory.load_word t.mem ~addr:(chunk - 8) in
      let pchunk = chunk - psize in
      list_unlink t (node_of_chunk pchunk);
      front := pchunk;
      csize := !csize + psize
    end;
    let front_bit =
      if !front = chunk then prev_inuse  (* prev was in use, bit preserved *)
      else load_header t !front land prev_inuse
    in
    store_header t !front (!csize lor front_bit);
    store_footer t !front !csize;
    (* The chunk after the merged region must see prev-free. *)
    let after = !front + !csize in
    let ah = load_header t after in
    if ah land prev_inuse <> 0 then
      store_header t after (ah land lnot prev_inuse);
    insert_free t !front !csize ~to_unsorted:t.p.use_unsorted;
    t.live <- t.live - 1
  end

let usable_size t ~addr =
  Memory.instr t.mem 4;
  let h = load_header t (addr - 8) in
  size_of h - header_bytes

let realloc t ~addr ~size =
  assert (size > 0);
  let nb = needed_size size in
  let h = load_header t (addr - 8) in
  let csize = size_of h in
  Memory.instr t.mem 10;
  touch t ~offset:768 ~lines:2;
  if h land mmapped = 0 && csize >= nb then addr
  else begin
    let naddr = malloc t ~size in
    let bytes = Int.min (csize - header_bytes) size in
    Memory.memcpy t.mem ~dst:naddr ~src:addr ~bytes;
    Memory.instr t.mem (8 + (bytes / 8));
    free t ~addr;
    naddr
  end

let free_all t =
  Memory.instr t.mem 40;
  touch t ~offset:1536 ~lines:4;
  (* The Zend-MM per-request cleanup: forget everything, rebuild each block
     as a single free chunk, release dedicated large mappings. *)
  reset_bins t;
  List.iter
    (fun (base, bytes) ->
      Memory.instr t.mem 24;
      init_block t base bytes)
    t.block_list;
  List.iter
    (fun (chunk, bytes) ->
      Memory.instr t.mem 20;
      Os.munmap t.os ~owner:t.owner ~addr:chunk ~bytes)
    t.mmapped_live;
  t.mmapped_live <- [];
  t.live <- 0

let consumption t = Os.claimed t.owner

let live_objects t = t.live

let blocks t = t.nblocks
