let block_bits = 16

let block_size = 1 lsl block_bits

let block_mask = block_size - 1

(* The unboxed observer: context, kind, addr and bytes are all immediates,
   so one simulated access costs one (non-allocating) closure application.
   Observers must not allocate on the hot path and must not retain the
   arguments beyond the call; event counts are bit-identical to the old
   boxed [Access.t] path. *)
type observer = Access.context -> Access.kind -> int -> int -> unit

type t = {
  blocks : (int, Bytes.t) Hashtbl.t;
  mutable ctx : Access.context;
  mutable on_access : observer;
  mutable on_instr : Access.context -> int -> unit;
  mutable on_code : Access.context -> int -> unit;
  mutable accesses : int;
  (* One-entry last-block cache: consecutive accesses to the same 64 KB
     block (the overwhelmingly common case — allocator metadata walks,
     payload touches) skip the Hashtbl entirely. *)
  mutable last_id : int;  (* block id of [last_block]; -1 = none *)
  mutable last_block : Bytes.t;
}

let nop_access _ _ _ _ = ()

let nop_count (_ : Access.context) (_ : int) = ()

let no_block = Bytes.create 0

let create () =
  {
    blocks = Hashtbl.create 1024;
    ctx = Access.App;
    on_access = nop_access;
    on_instr = nop_count;
    on_code = nop_count;
    accesses = 0;
    last_id = -1;
    last_block = no_block;
  }

(* Also drops the cached block reference, so a dropped block can be
   collected. *)
let invalidate_last_block t =
  t.last_id <- -1;
  t.last_block <- no_block

let reset t =
  Hashtbl.reset t.blocks;
  t.accesses <- 0;
  invalidate_last_block t

let set_context t ctx = t.ctx <- ctx

let context t = t.ctx

let with_context t ctx f =
  let saved = t.ctx in
  t.ctx <- ctx;
  match f () with
  | v ->
    t.ctx <- saved;
    v
  | exception e ->
    t.ctx <- saved;
    raise e

let set_access_observer t f = t.on_access <- f

let set_instr_observer t f = t.on_instr <- f

let set_code_observer t f = t.on_code <- f

let[@inline] emit t kind addr bytes =
  t.accesses <- t.accesses + 1;
  t.on_access t.ctx kind addr bytes

(* Materializing block lookup (cold path split out so the common case stays
   small enough to inline). *)
let backing_slow t id =
  let b =
    match Hashtbl.find t.blocks id with
    | b -> b
    | exception Not_found ->
      let b = Bytes.make block_size '\000' in
      Hashtbl.add t.blocks id b;
      b
  in
  t.last_id <- id;
  t.last_block <- b;
  b

let[@inline] backing t id =
  if t.last_id = id then t.last_block else backing_slow t id

(* Non-materializing lookup; raises [Not_found] for unbacked blocks (the
   preallocated exception keeps the miss case allocation-free, unlike
   [find_opt]'s [Some]). *)
let[@inline] find_block t id =
  if t.last_id = id then t.last_block
  else begin
    let b = Hashtbl.find t.blocks id in
    t.last_id <- id;
    t.last_block <- b;
    b
  end

let[@inline] check_addr addr bytes =
  assert (addr >= 0);
  assert (bytes > 0);
  (* Multi-byte accesses must stay within one backing block. *)
  assert (addr lsr block_bits = (addr + bytes - 1) lsr block_bits)

let load8 t ~addr =
  check_addr addr 1;
  emit t Access.Load addr 1;
  match find_block t (addr lsr block_bits) with
  | b -> Char.code (Bytes.unsafe_get b (addr land block_mask))
  | exception Not_found -> 0

let store8 t ~addr ~value =
  check_addr addr 1;
  emit t Access.Store addr 1;
  Bytes.unsafe_set
    (backing t (addr lsr block_bits))
    (addr land block_mask)
    (Char.unsafe_chr (value land 0xff))

(* Int-native 64-bit words, assembled from 16-bit halves so neither side
   ever boxes an Int64: the stored bytes are the sign-extended
   little-endian 64-bit pattern, and loads return the value modulo 2^63
   exactly as [Int64.to_int] would. *)
let[@inline] get_word b off =
  Bytes.get_uint16_le b off
  lor (Bytes.get_uint16_le b (off + 2) lsl 16)
  lor (Bytes.get_uint16_le b (off + 4) lsl 32)
  lor (Bytes.get_uint16_le b (off + 6) lsl 48)

let[@inline] set_word b off v =
  Bytes.set_uint16_le b off (v land 0xffff);
  Bytes.set_uint16_le b (off + 2) ((v asr 16) land 0xffff);
  Bytes.set_uint16_le b (off + 4) ((v asr 32) land 0xffff);
  Bytes.set_uint16_le b (off + 6) ((v asr 48) land 0xffff)

let load_word t ~addr =
  check_addr addr 8;
  emit t Access.Load addr 8;
  match find_block t (addr lsr block_bits) with
  | b -> get_word b (addr land block_mask)
  | exception Not_found -> 0

let store_word t ~addr ~value =
  check_addr addr 8;
  emit t Access.Store addr 8;
  set_word (backing t (addr lsr block_bits)) (addr land block_mask) value

let touch t ~kind ~addr ~bytes =
  check_addr addr 1;
  assert (bytes > 0);
  emit t kind addr bytes

let memset t ~addr ~bytes ~value =
  assert (addr >= 0 && bytes >= 0);
  let c = Char.chr (value land 0xff) in
  let remaining = ref bytes in
  let pos = ref addr in
  while !remaining > 0 do
    let in_block = block_size - (!pos land block_mask) in
    let n = Int.min in_block !remaining in
    emit t Access.Store !pos n;
    Bytes.fill (backing t (!pos lsr block_bits)) (!pos land block_mask) n c;
    pos := !pos + n;
    remaining := !remaining - n
  done

let memcpy t ~dst ~src ~bytes =
  assert (dst >= 0 && src >= 0 && bytes >= 0);
  (* Copy block-fragment by block-fragment, emitting load and store events
     for the full extent.  An unmaterialized source block reads as zero
     (matching [load8]); only an already-backed destination needs the
     explicit zero-fill — an unbacked destination already reads back as
     zero and must stay unmaterialized (copies never grow the footprint of
     regions nobody ever wrote). *)
  let remaining = ref bytes in
  let s = ref src in
  let d = ref dst in
  while !remaining > 0 do
    let in_src = block_size - (!s land block_mask) in
    let in_dst = block_size - (!d land block_mask) in
    let n = Int.min (Int.min in_src in_dst) !remaining in
    emit t Access.Load !s n;
    emit t Access.Store !d n;
    (match find_block t (!s lsr block_bits) with
    | sb ->
      let db = backing t (!d lsr block_bits) in
      Bytes.blit sb (!s land block_mask) db (!d land block_mask) n
    | exception Not_found -> (
      match find_block t (!d lsr block_bits) with
      | db -> Bytes.fill db (!d land block_mask) n '\000'
      | exception Not_found -> ()));
    s := !s + n;
    d := !d + n;
    remaining := !remaining - n
  done

let instr t n =
  assert (n >= 0);
  t.on_instr t.ctx n

let code_touch t ~addr = t.on_code t.ctx addr

(* Only whole blocks go: a partial block at either end may hold live bytes
   of a neighbouring range.  The cost is O(min(blocks in range, blocks
   backed)), so a sparsely written 256 MB arena is cheap to drop. *)
let discard t ~addr ~bytes =
  assert (addr >= 0 && bytes >= 0);
  let first = (addr + block_mask) lsr block_bits in
  let last = ((addr + bytes) lsr block_bits) - 1 in
  if first <= last then begin
    if last - first < Hashtbl.length t.blocks then
      for id = first to last do
        Hashtbl.remove t.blocks id
      done
    else
      (* Collect, then remove: [filter_map_inplace] would allocate a
         [Some] for every block kept. *)
      List.iter (Hashtbl.remove t.blocks)
        (Hashtbl.fold
           (fun id _ acc -> if id >= first && id <= last then id :: acc else acc)
           t.blocks []);
    invalidate_last_block t
  end

let backed_bytes t = Hashtbl.length t.blocks * block_size

let access_count t = t.accesses
