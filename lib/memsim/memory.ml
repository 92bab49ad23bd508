(* Backing: 4 KiB pages, grouped in 4 MiB chunks of 1024 page slots.  A
   chunk table keyed by chunk id holds the chunks that back at least one
   page; a chunk's slot holds [no_page] until something stores there. *)
let page_bits = 12

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

let chunk_page_bits = 10

let chunk_pages = 1 lsl chunk_page_bits

let slot_mask = chunk_pages - 1

(* [memset] and [memcpy] emit one event per 64 KiB fragment of their
   range, whatever the backing granularity: the cache simulator's counts
   depend on where those events split. *)
let fragment_size = 1 lsl 16

let fragment_mask = fragment_size - 1

(* The unboxed observer: context, kind, addr and bytes are all immediates,
   so one simulated access costs one (non-allocating) closure application.
   Observers must not allocate on the hot path and must not retain the
   arguments beyond the call; event counts are bit-identical to the old
   boxed [Access.t] path. *)
type observer = Access.context -> Access.kind -> int -> int -> unit

type chunk = {
  pages : Bytes.t array;  (* [no_page] = slot not backed *)
  mutable live : int;  (* slots backed *)
}

type t = {
  chunks : (int, chunk) Hashtbl.t;
  mutable pages_backed : int;
  mutable ctx : Access.context;
  mutable on_access : observer;
  mutable on_instr : Access.context -> int -> unit;
  mutable on_code : Access.context -> int -> unit;
  mutable accesses : int;
  (* One-entry page cache: consecutive accesses to the same page (the
     common case: allocator metadata walks, payload stores) skip the
     table.  It only ever holds a backed page. *)
  mutable last_pid : int;  (* page id of [last_page]; -1 = none *)
  mutable last_page : Bytes.t;
  (* One-entry chunk cache behind it; it may hold [no_chunk], so runs of
     loads from an unbacked span skip the hash table too. *)
  mutable last_cid : int;  (* chunk id of [last_chunk]; -1 = none *)
  mutable last_chunk : chunk;
}

let nop_access _ _ _ _ = ()

let nop_count (_ : Access.context) (_ : int) = ()

let no_page = Bytes.create 0

(* Stands for an absent chunk; never written. *)
let no_chunk = { pages = [||]; live = 0 }

let create () =
  {
    chunks = Hashtbl.create 64;
    pages_backed = 0;
    ctx = Access.App;
    on_access = nop_access;
    on_instr = nop_count;
    on_code = nop_count;
    accesses = 0;
    last_pid = -1;
    last_page = no_page;
    last_cid = -1;
    last_chunk = no_chunk;
  }

(* Also drops the cached references, so dropped pages and chunks can be
   collected. *)
let invalidate_caches t =
  t.last_pid <- -1;
  t.last_page <- no_page;
  t.last_cid <- -1;
  t.last_chunk <- no_chunk

let reset t =
  Hashtbl.reset t.chunks;
  t.pages_backed <- 0;
  t.accesses <- 0;
  invalidate_caches t

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

(* [Hashtbl.find]'s preallocated [Not_found] keeps a miss allocation-free,
   unlike [find_opt]'s [Some]. *)
let find_chunk t cid =
  if t.last_cid = cid then t.last_chunk
  else begin
    let c =
      match Hashtbl.find t.chunks cid with
      | c -> c
      | exception Not_found -> no_chunk
    in
    t.last_cid <- cid;
    t.last_chunk <- c;
    c
  end

(* Non-materializing lookup: [no_page] for an unbacked page.  The cold
   path is split out so the common case stays small enough to inline. *)
let find_page_slow t pid =
  let c = find_chunk t (pid lsr chunk_page_bits) in
  if c == no_chunk then no_page
  else begin
    let p = Array.unsafe_get c.pages (pid land slot_mask) in
    if p != no_page then begin
      t.last_pid <- pid;
      t.last_page <- p
    end;
    p
  end

let[@inline] find_page t pid =
  if t.last_pid = pid then t.last_page else find_page_slow t pid

(* Materializing lookup. *)
let backing_slow t pid =
  let cid = pid lsr chunk_page_bits in
  let c =
    let c = find_chunk t cid in
    if c != no_chunk then c
    else begin
      let c = { pages = Array.make chunk_pages no_page; live = 0 } in
      Hashtbl.add t.chunks cid c;
      t.last_chunk <- c;
      c
    end
  in
  let slot = pid land slot_mask in
  let p =
    let p = Array.unsafe_get c.pages slot in
    if p != no_page then p
    else begin
      let p = Bytes.make page_size '\000' in
      Array.unsafe_set c.pages slot p;
      c.live <- c.live + 1;
      t.pages_backed <- t.pages_backed + 1;
      p
    end
  in
  t.last_pid <- pid;
  t.last_page <- p;
  p

let[@inline] backing t pid =
  if t.last_pid = pid then t.last_page else backing_slow t pid

let[@inline] check_addr addr bytes =
  assert (addr >= 0);
  assert (bytes > 0);
  (* Multi-byte accesses must stay within one page. *)
  assert (addr lsr page_bits = (addr + bytes - 1) lsr page_bits)

let load8 t ~addr =
  check_addr addr 1;
  emit t Access.Load addr 1;
  let p = find_page t (addr lsr page_bits) in
  if p == no_page then 0 else Char.code (Bytes.unsafe_get p (addr land page_mask))

let store8 t ~addr ~value =
  check_addr addr 1;
  emit t Access.Store addr 1;
  Bytes.unsafe_set
    (backing t (addr lsr page_bits))
    (addr land page_mask)
    (Char.unsafe_chr (value land 0xff))

(* Int-native 64-bit words in one unaligned access each.  The primitives
   are compiled inline, so with [Int64.to_int]/[Int64.of_int] around them
   no [Int64] is ever boxed.  The stored bytes are the sign-extended
   little-endian 64-bit pattern, and loads return the value modulo 2^63
   exactly as [Int64.to_int] would. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_word b off =
  let v = get64u b off in
  Int64.to_int (if Sys.big_endian then bswap64 v else v)

let[@inline] set_word b off v =
  let v = Int64.of_int v in
  set64u b off (if Sys.big_endian then bswap64 v else v)

let load_word t ~addr =
  check_addr addr 8;
  emit t Access.Load addr 8;
  let p = find_page t (addr lsr page_bits) in
  if p == no_page then 0 else get_word p (addr land page_mask)

let store_word t ~addr ~value =
  check_addr addr 8;
  emit t Access.Store addr 8;
  set_word (backing t (addr lsr page_bits)) (addr land page_mask) value

let touch t ~kind ~addr ~bytes =
  check_addr addr 1;
  assert (bytes > 0);
  emit t kind addr bytes

(* The bytes of [\[addr, addr + n)] set to [c], page by page. *)
let fill_pages t addr n c =
  let pos = ref addr in
  let stop = addr + n in
  while !pos < stop do
    let k = Int.min (page_size - (!pos land page_mask)) (stop - !pos) in
    Bytes.unsafe_fill (backing t (!pos lsr page_bits)) (!pos land page_mask) k c;
    pos := !pos + k
  done

let memset t ~addr ~bytes ~value =
  assert (addr >= 0 && bytes >= 0);
  let c = Char.chr (value land 0xff) in
  let pos = ref addr in
  let stop = addr + bytes in
  while !pos < stop do
    let n = Int.min (fragment_size - (!pos land fragment_mask)) (stop - !pos) in
    emit t Access.Store !pos n;
    fill_pages t !pos n c;
    pos := !pos + n
  done

(* Copy [n] bytes page-fragment by page-fragment.  An unbacked source page
   reads as zero (matching [load8]); only an already-backed destination
   needs the explicit zero-fill: an unbacked one already reads back as
   zero and stays unbacked (copies never grow the footprint of ranges
   nobody ever wrote). *)
let copy_pages t ~dst ~src n =
  let s = ref src in
  let d = ref dst in
  let stop = src + n in
  while !s < stop do
    let k =
      Int.min
        (Int.min (page_size - (!s land page_mask)) (page_size - (!d land page_mask)))
        (stop - !s)
    in
    let sp = find_page t (!s lsr page_bits) in
    if sp != no_page then
      Bytes.blit sp (!s land page_mask) (backing t (!d lsr page_bits))
        (!d land page_mask) k
    else begin
      let dp = find_page t (!d lsr page_bits) in
      if dp != no_page then Bytes.fill dp (!d land page_mask) k '\000'
    end;
    s := !s + k;
    d := !d + k
  done

let memcpy t ~dst ~src ~bytes =
  assert (dst >= 0 && src >= 0 && bytes >= 0);
  assert (bytes = 0 || dst + bytes <= src || src + bytes <= dst);
  (* Load and store events for the full extent, one pair per fragment that
     lies inside one 64 KiB fragment of both source and destination. *)
  let remaining = ref bytes in
  let s = ref src in
  let d = ref dst in
  while !remaining > 0 do
    let in_src = fragment_size - (!s land fragment_mask) in
    let in_dst = fragment_size - (!d land fragment_mask) in
    let n = Int.min (Int.min in_src in_dst) !remaining in
    emit t Access.Load !s n;
    emit t Access.Store !d n;
    copy_pages t ~dst:!d ~src:!s n;
    s := !s + n;
    d := !d + n;
    remaining := !remaining - n
  done

let instr t n =
  assert (n >= 0);
  t.on_instr t.ctx n

let code_touch t ~addr = t.on_code t.ctx addr

(* Only whole pages go: a partial page at either end may hold live bytes
   of a neighbouring range.  A chunk left with no backed page goes too.
   The cost is O(min(chunks in range, chunks backed)) table operations
   plus one slot scan per chunk visited, so a sparsely written 256 MB
   arena is cheap to drop. *)
let discard t ~addr ~bytes =
  assert (addr >= 0 && bytes >= 0);
  let first = (addr + page_mask) lsr page_bits in
  let last = ((addr + bytes) lsr page_bits) - 1 in
  if first <= last then begin
    let c0 = first lsr chunk_page_bits in
    let c1 = last lsr chunk_page_bits in
    let drop cid c =
      let lo = if cid = c0 then first land slot_mask else 0 in
      let hi = if cid = c1 then last land slot_mask else slot_mask in
      for slot = lo to hi do
        if Array.unsafe_get c.pages slot != no_page then begin
          Array.unsafe_set c.pages slot no_page;
          c.live <- c.live - 1;
          t.pages_backed <- t.pages_backed - 1
        end
      done;
      if c.live = 0 then Hashtbl.remove t.chunks cid
    in
    if c1 - c0 < Hashtbl.length t.chunks then
      for cid = c0 to c1 do
        match Hashtbl.find t.chunks cid with
        | c -> drop cid c
        | exception Not_found -> ()
      done
    else
      (* Collect, then drop: removing while folding is unspecified. *)
      List.iter
        (fun (cid, c) -> drop cid c)
        (Hashtbl.fold
           (fun cid c acc -> if cid >= c0 && cid <= c1 then (cid, c) :: acc else acc)
           t.chunks []);
    invalidate_caches t
  end

let backed_bytes t = t.pages_backed * page_size

let backed_chunks t = Hashtbl.length t.chunks

let access_count t = t.accesses
