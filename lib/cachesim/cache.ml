(* Way indices of one set fit a byte; [create] enforces the limit. *)
let max_ways = 256

(* A tag word packs a line with its two flags:
   [line lsl 2 lor dirty lsl 1 lor prefetched].  An empty way holds the
   word of line -1, clean: it never matches a line (lines are
   non-negative) and reads back as [victim_line = -1], clean. *)
let dirty_bit = 2

let prefetched_bit = 1

let empty = -1 lsl 2

type t = {
  nsets : int;
  nways : int;
  set_mask : int;
  tags : int array;  (* nsets * nways packed tag words *)
  (* Per set, a circular doubly linked recency list of its ways: [head]
     is the MRU way, [next] leads towards the LRU way, and the LRU way is
     [prev] of the head.  Way indices are set-local, one byte each. *)
  prev : Bytes.t;  (* nsets * nways *)
  next : Bytes.t;  (* nsets * nways *)
  head : Bytes.t;  (* nsets *)
  mutable victim : int;  (* tag word of the last evicted way *)
}

type result =
  | Hit
  | Hit_prefetched
  | Miss

let[@inline] way_at b i = Char.code (Bytes.unsafe_get b i)

let[@inline] set_way b i w = Bytes.unsafe_set b i (Char.unsafe_chr w)

(* Fill [b] with copies of its first [n] bytes, doubling the copied span
   on every blit. *)
let replicate b n =
  let len = Bytes.length b in
  let k = ref n in
  while !k < len do
    let m = Int.min !k (len - !k) in
    Bytes.blit b 0 b !k m;
    k := !k + m
  done

(* Every set's list in the order head = way n-1 ... LRU = way 0, so ways
   untouched since [create] or [flush] are taken lowest index first. *)
let reset_lists t =
  let n = t.nways in
  for w = 0 to n - 1 do
    set_way t.next w (if w = 0 then n - 1 else w - 1);
    set_way t.prev w (if w = n - 1 then 0 else w + 1)
  done;
  replicate t.next n;
  replicate t.prev n;
  Bytes.fill t.head 0 t.nsets (Char.chr (n - 1))

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a power of two";
  if ways <= 0 || ways > max_ways then
    invalid_arg "Cache.create: ways must be in 1..256";
  let n = sets * ways in
  let t =
    {
      nsets = sets;
      nways = ways;
      set_mask = sets - 1;
      tags = Array.make n empty;
      prev = Bytes.create n;
      next = Bytes.create n;
      head = Bytes.create sets;
      victim = empty;
    }
  in
  reset_lists t;
  t

let sets t = t.nsets

let ways t = t.nways

let victim_line t = t.victim asr 2

let victim_dirty t = t.victim land dirty_bit <> 0

(* The set-local way holding [line] in the set at [base], or -1.  A
   while-loop over unboxed locals, not an inner recursive function:
   Closure would compile the latter to a heap-allocated closure per
   call. *)
let find t base line =
  let found = ref (-1) in
  let w = ref 0 in
  while !found < 0 && !w < t.nways do
    if Array.unsafe_get t.tags (base + !w) asr 2 = line then found := !w;
    incr w
  done;
  !found

(* Make way [w] of [set] the MRU way. *)
let touch t set base w =
  let h = way_at t.head set in
  if w <> h then begin
    let lru = way_at t.prev (base + h) in
    (* The LRU way sits just before the head: rotating the head onto it
       reorders nothing else. *)
    if w <> lru then begin
      let p = way_at t.prev (base + w) and nx = way_at t.next (base + w) in
      set_way t.next (base + p) nx;
      set_way t.prev (base + nx) p;
      set_way t.next (base + lru) w;
      set_way t.prev (base + w) lru;
      set_way t.next (base + w) h;
      set_way t.prev (base + h) w
    end;
    set_way t.head set w
  end

(* Replace the LRU way of [set] with [word] and make it the MRU way. *)
let fill t set base word =
  let w = way_at t.prev (base + way_at t.head set) in
  t.victim <- Array.unsafe_get t.tags (base + w);
  Array.unsafe_set t.tags (base + w) word;
  set_way t.head set w

let[@inline] demand_hit t slot tag store =
  let tag = if store then tag lor dirty_bit else tag in
  if tag land prefetched_bit <> 0 then begin
    Array.unsafe_set t.tags slot (tag lxor prefetched_bit);
    Hit_prefetched
  end
  else begin
    if store then Array.unsafe_set t.tags slot tag;
    Hit
  end

let access t ~line ~store =
  let set = line land t.set_mask in
  let base = set * t.nways in
  (* The line referenced last in this set is very often referenced
     again: it is the head, and a hit there changes no order. *)
  let h = base + way_at t.head set in
  let tag = Array.unsafe_get t.tags h in
  if tag asr 2 = line then demand_hit t h tag store
  else begin
    let w = find t base line in
    if w >= 0 then begin
      touch t set base w;
      demand_hit t (base + w) (Array.unsafe_get t.tags (base + w)) store
    end
    else begin
      fill t set base ((line lsl 2) lor if store then dirty_bit else 0);
      Miss
    end
  end

let mark_mru_dirty t ~line =
  let set = line land t.set_mask in
  let slot = (set * t.nways) + way_at t.head set in
  Array.unsafe_set t.tags slot (Array.unsafe_get t.tags slot lor dirty_bit)

let insert t ~line =
  let set = line land t.set_mask in
  let base = set * t.nways in
  let w = find t base line in
  if w >= 0 then begin
    touch t set base w;
    Hit
  end
  else begin
    fill t set base ((line lsl 2) lor prefetched_bit);
    Miss
  end

let contains t ~line =
  let set = line land t.set_mask in
  find t (set * t.nways) line >= 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) empty;
  reset_lists t;
  t.victim <- empty
