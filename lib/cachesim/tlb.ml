(* Fully-associative, exact-LRU TLB in O(1) per access.

   Every simulated data line reference probes the D-TLB.  Scanning all
   [entries] slots for the page, and again for the least recent victim,
   costs a measurable share of a simulation even at 64 entries, because
   hits land several slots deep on average.  Three flat structures avoid
   both scans:

   - slots [0, used) hold the resident pages, threaded into an intrusive
     doubly-linked recency list ([prev]/[next], [head] = most recent,
     [tail] = least recent), so a hit moves its slot to the front and a
     miss takes the tail in constant time;
   - an open-addressed page -> slot table (linear probing, at most half
     full) answers "is this page resident?" without scanning; deletion
     shifts later members of the probe run back into the hole, so there
     are no tombstones and probe runs never degrade;
   - [last_page], the page of the head slot, short-circuits the common
     case of consecutive references to one page.

   Hit/miss sequences equal those of the linear-scan LRU: the TLB fills
   empty slots before it evicts, and it always evicts the least recently
   used page.  Nothing on the access path allocates. *)

type t = {
  entries : int;
  shift : int;
  page : int array;  (* per slot: resident page *)
  prev : int array;  (* per slot: neighbour towards [head], -1 at the head *)
  next : int array;  (* per slot: neighbour towards [tail], -1 at the tail *)
  mutable head : int;  (* most recently used slot, -1 when empty *)
  mutable tail : int;  (* least recently used slot, -1 when empty *)
  mutable used : int;  (* slots filled since the last flush *)
  mutable last_page : int;  (* [page.(head)], or -1 when empty *)
  keys : int array;  (* hash table: page, or -1 = free *)
  vals : int array;  (* hash table: slot holding that page *)
  mask : int;
  hash_shift : int;
}

let create ~entries ~page_shift =
  assert (entries > 0 && page_shift >= 10);
  let bits = ref 1 in
  while 1 lsl !bits < 2 * entries do
    incr bits
  done;
  let cap = 1 lsl !bits in
  {
    entries;
    shift = page_shift;
    page = Array.make entries (-1);
    prev = Array.make entries (-1);
    next = Array.make entries (-1);
    head = -1;
    tail = -1;
    used = 0;
    last_page = -1;
    keys = Array.make cap (-1);
    vals = Array.make cap 0;
    mask = cap - 1;
    hash_shift = Sys.int_size - !bits;
  }

(* Multiplicative hashing: the top [bits] bits of page * odd constant, so
   consecutive pages spread over the table. *)
let[@inline] home t page = (page * 0x2545F4914F6CDD1D) lsr t.hash_shift

let find_slot t page =
  let i = ref (home t page) in
  while
    let k = Array.unsafe_get t.keys !i in
    k <> page && k >= 0
  do
    i := (!i + 1) land t.mask
  done;
  if Array.unsafe_get t.keys !i = page then Array.unsafe_get t.vals !i else -1

let insert_key t page slot =
  let i = ref (home t page) in
  while Array.unsafe_get t.keys !i >= 0 do
    i := (!i + 1) land t.mask
  done;
  Array.unsafe_set t.keys !i page;
  Array.unsafe_set t.vals !i slot

(* Backward-shift deletion: walk the probe run after the hole and move back
   every member whose home position does not lie cyclically in
   (hole, position], so later lookups still reach it. *)
let remove_key t page =
  let hole = ref (home t page) in
  while Array.unsafe_get t.keys !hole <> page do
    hole := (!hole + 1) land t.mask
  done;
  let j = ref !hole in
  let continue = ref true in
  while !continue do
    j := (!j + 1) land t.mask;
    let k = Array.unsafe_get t.keys !j in
    if k < 0 then continue := false
    else begin
      let h = home t k in
      let stays =
        if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
      in
      if not stays then begin
        Array.unsafe_set t.keys !hole k;
        Array.unsafe_set t.vals !hole (Array.unsafe_get t.vals !j);
        hole := !j
      end
    end
  done;
  Array.unsafe_set t.keys !hole (-1)

let unlink t s =
  let p = Array.unsafe_get t.prev s and n = Array.unsafe_get t.next s in
  if p >= 0 then Array.unsafe_set t.next p n else t.head <- n;
  if n >= 0 then Array.unsafe_set t.prev n p else t.tail <- p

let push_front t s =
  Array.unsafe_set t.prev s (-1);
  Array.unsafe_set t.next s t.head;
  if t.head >= 0 then Array.unsafe_set t.prev t.head s else t.tail <- s;
  t.head <- s

let access t ~addr =
  let page = addr lsr t.shift in
  if page = t.last_page then true
  else begin
    t.last_page <- page;
    let s = find_slot t page in
    if s >= 0 then begin
      unlink t s;
      push_front t s;
      true
    end
    else begin
      let s =
        if t.used < t.entries then begin
          let s = t.used in
          t.used <- s + 1;
          s
        end
        else begin
          let s = t.tail in
          remove_key t (Array.unsafe_get t.page s);
          unlink t s;
          s
        end
      in
      Array.unsafe_set t.page s page;
      insert_key t page s;
      push_front t s;
      false
    end
  end

let flush t =
  Array.fill t.keys 0 (Array.length t.keys) (-1);
  t.head <- -1;
  t.tail <- -1;
  t.used <- 0;
  t.last_page <- -1

let page_shift t = t.shift
