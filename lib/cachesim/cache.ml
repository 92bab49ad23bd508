type t = {
  nsets : int;
  nways : int;
  set_mask : int;
  tags : int array;  (* nsets * nways; -1 = empty *)
  age : int array;
  dirty : Bytes.t;
  prefetched : Bytes.t;  (* line filled by prefetch, not yet demand-touched *)
  mru : int array;  (* per set: slot of the most recently touched way *)
  mutable clock : int;
  mutable victim_line : int;  (* valid after access/insert returned Miss *)
  mutable victim_dirty : bool;
}

type result =
  | Hit
  | Hit_prefetched
  | Miss

let create ~sets ~ways =
  assert (sets > 0 && sets land (sets - 1) = 0);
  assert (ways > 0);
  {
    nsets = sets;
    nways = ways;
    set_mask = sets - 1;
    tags = Array.make (sets * ways) (-1);
    age = Array.make (sets * ways) 0;
    dirty = Bytes.make (sets * ways) '\000';
    prefetched = Bytes.make (sets * ways) '\000';
    mru = Array.init sets (fun s -> s * ways);
    clock = 0;
    victim_line = -1;
    victim_dirty = false;
  }

let sets t = t.nsets

let ways t = t.nways

let victim_line t = t.victim_line

let victim_dirty t = t.victim_dirty

(* Find the way holding [line] in [set], or -1.  A while-loop over
   unboxed locals, not an inner recursive function: Closure would compile
   the latter to a heap-allocated closure per call. *)
let find t set line =
  let base = set * t.nways in
  let found = ref (-1) in
  let w = ref 0 in
  while !found < 0 && !w < t.nways do
    if Array.unsafe_get t.tags (base + !w) = line then found := base + !w;
    incr w
  done;
  !found

let lru_slot t set =
  let base = set * t.nways in
  let best = ref base in
  for w = 1 to t.nways - 1 do
    if t.age.(base + w) < t.age.(!best) then best := base + w
  done;
  !best

let[@inline] demand_hit t slot store =
  Array.unsafe_set t.age slot t.clock;
  if store then Bytes.unsafe_set t.dirty slot '\001';
  if Bytes.unsafe_get t.prefetched slot = '\001' then begin
    Bytes.unsafe_set t.prefetched slot '\000';
    Hit_prefetched
  end
  else Hit

let fill t slot line dirty =
  t.victim_line <- Array.unsafe_get t.tags slot;
  t.victim_dirty <- Bytes.unsafe_get t.dirty slot = '\001';
  Array.unsafe_set t.tags slot line;
  Array.unsafe_set t.age slot t.clock;
  Bytes.unsafe_set t.dirty slot (if dirty then '\001' else '\000')

let access t ~line ~store =
  let set = line land t.set_mask in
  t.clock <- t.clock + 1;
  (* MRU-way fast path: the line referenced last time in this set is very
     often referenced again; checking its slot first skips the way scan.
     The hint is only a hint — a stale one fails the tag compare and falls
     through to the scan, so results are identical to the plain path. *)
  let m = Array.unsafe_get t.mru set in
  if Array.unsafe_get t.tags m = line then demand_hit t m store
  else begin
    let slot = find t set line in
    if slot >= 0 then begin
      Array.unsafe_set t.mru set slot;
      demand_hit t slot store
    end
    else begin
      let slot = lru_slot t set in
      fill t slot line store;
      Bytes.unsafe_set t.prefetched slot '\000';
      Array.unsafe_set t.mru set slot;
      Miss
    end
  end

let mark_mru_dirty t ~line =
  Bytes.unsafe_set t.dirty (Array.unsafe_get t.mru (line land t.set_mask)) '\001'

let insert t ~line =
  let set = line land t.set_mask in
  t.clock <- t.clock + 1;
  let slot = find t set line in
  if slot >= 0 then begin
    Array.unsafe_set t.age slot t.clock;
    Array.unsafe_set t.mru set slot;
    Hit
  end
  else begin
    let slot = lru_slot t set in
    fill t slot line false;
    Bytes.unsafe_set t.prefetched slot '\001';
    Array.unsafe_set t.mru set slot;
    Miss
  end

let contains t ~line =
  let set = line land t.set_mask in
  find t set line >= 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.age 0 (Array.length t.age) 0;
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Bytes.fill t.prefetched 0 (Bytes.length t.prefetched) '\000';
  for s = 0 to t.nsets - 1 do
    t.mru.(s) <- s * t.nways
  done;
  t.victim_line <- -1;
  t.victim_dirty <- false
