(* Tests for the memory-hierarchy simulator. *)

module Cache = Mm_cachesim.Cache
module Tlb = Mm_cachesim.Tlb
module Prefetcher = Mm_cachesim.Prefetcher
module Events = Mm_cachesim.Events
module Machine = Mm_cachesim.Machine
module CS = Mm_cachesim.Cache_system
module Perf = Mm_cachesim.Perf_model
module Memory = Mm_memsim.Memory
module Access = Mm_memsim.Access

let is_miss = function
  | Cache.Miss -> true
  | Cache.Hit | Cache.Hit_prefetched -> false

(* --- Cache --- *)

let test_cache_miss_then_hit () =
  let c = Cache.create ~sets:16 ~ways:2 in
  Alcotest.(check bool) "first is miss" true (is_miss (Cache.access c ~line:5 ~store:false));
  Alcotest.(check bool) "second is hit" false (is_miss (Cache.access c ~line:5 ~store:false))

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 in
  ignore (Cache.access c ~line:1 ~store:false);
  ignore (Cache.access c ~line:2 ~store:false);
  ignore (Cache.access c ~line:1 ~store:false);  (* refresh 1: LRU is 2 *)
  (match Cache.access c ~line:3 ~store:false with
  | Cache.Miss ->
    Alcotest.(check int) "evicts LRU (2)" 2 (Cache.victim_line c)
  | Cache.Hit | Cache.Hit_prefetched -> Alcotest.fail "expected miss");
  Alcotest.(check bool) "1 still present" true (Cache.contains c ~line:1)

let test_cache_dirty_writeback () =
  let c = Cache.create ~sets:1 ~ways:1 in
  ignore (Cache.access c ~line:1 ~store:true);
  (match Cache.access c ~line:2 ~store:false with
  | Cache.Miss ->
    Alcotest.(check bool) "victim dirty" true (Cache.victim_dirty c);
    Alcotest.(check int) "victim line" 1 (Cache.victim_line c)
  | Cache.Hit | Cache.Hit_prefetched -> Alcotest.fail "expected miss");
  (* Clean victim: no writeback. *)
  match Cache.access c ~line:3 ~store:false with
  | Cache.Miss ->
    Alcotest.(check bool) "clean victim" false (Cache.victim_dirty c)
  | Cache.Hit | Cache.Hit_prefetched -> Alcotest.fail "expected miss"

let test_cache_prefetched_flag () =
  let c = Cache.create ~sets:16 ~ways:2 in
  ignore (Cache.insert c ~line:9);
  (match Cache.access c ~line:9 ~store:false with
  | Cache.Hit_prefetched -> ()
  | Cache.Hit -> Alcotest.fail "expected Hit_prefetched"
  | Cache.Miss -> Alcotest.fail "expected hit");
  match Cache.access c ~line:9 ~store:false with
  | Cache.Hit -> ()
  | Cache.Hit_prefetched -> Alcotest.fail "flag must clear after first touch"
  | Cache.Miss -> Alcotest.fail "expected hit"

let test_cache_contains_no_lru_disturb () =
  let c = Cache.create ~sets:1 ~ways:2 in
  ignore (Cache.access c ~line:1 ~store:false);
  ignore (Cache.access c ~line:2 ~store:false);
  (* Probing 1 must not refresh it. *)
  ignore (Cache.contains c ~line:1);
  match Cache.access c ~line:3 ~store:false with
  | Cache.Miss -> Alcotest.(check int) "LRU still 1" 1 (Cache.victim_line c)
  | Cache.Hit | Cache.Hit_prefetched -> Alcotest.fail "expected miss"

let test_cache_flush () =
  let c = Cache.create ~sets:4 ~ways:2 in
  ignore (Cache.access c ~line:1 ~store:true);
  Cache.flush c;
  Alcotest.(check bool) "gone" false (Cache.contains c ~line:1)

(* Reference-model property: our cache vs a naive LRU list model. *)
let prop_cache_matches_reference =
  QCheck.Test.make ~name:"cache matches naive LRU reference" ~count:50
    QCheck.(pair small_int (list_of_size Gen.(int_range 50 300) (int_range 0 40)))
    (fun (_, lines) ->
      let sets = 4 and ways = 2 in
      let c = Cache.create ~sets ~ways in
      (* reference: per set, list of lines in MRU order *)
      let reference = Array.make sets [] in
      let ok = ref true in
      List.iter
        (fun line ->
          let set = line land (sets - 1) in
          let hit_ref = List.mem line reference.(set) in
          let hit_sim = not (is_miss (Cache.access c ~line ~store:false)) in
          if hit_ref <> hit_sim then ok := false;
          let without = List.filter (( <> ) line) reference.(set) in
          let trimmed =
            if hit_ref then without
            else if List.length without >= ways then
              List.filteri (fun i _ -> i < ways - 1) without
            else without
          in
          reference.(set) <- line :: trimmed)
        lines;
      !ok)

(* Reference-model property for the MRU-way fast path: a straight
   reimplementation of the cache WITHOUT the MRU hint (the pre-optimization
   slow path — full way scan on every reference).  On any randomized
   access/insert stream with stores, the optimized cache must report the
   same result kind and the same victim line/dirty bit at every step. *)
module Slow_cache = struct
  type t = {
    nways : int;
    set_mask : int;
    tags : int array;
    age : int array;
    dirty : bool array;
    prefetched : bool array;
    mutable clock : int;
    mutable victim_line : int;
    mutable victim_dirty : bool;
  }

  let create ~sets ~ways =
    {
      nways = ways;
      set_mask = sets - 1;
      tags = Array.make (sets * ways) (-1);
      age = Array.make (sets * ways) 0;
      dirty = Array.make (sets * ways) false;
      prefetched = Array.make (sets * ways) false;
      clock = 0;
      victim_line = -1;
      victim_dirty = false;
    }

  let find t set line =
    let base = set * t.nways in
    let slot = ref (-1) in
    for w = 0 to t.nways - 1 do
      if !slot < 0 && t.tags.(base + w) = line then slot := base + w
    done;
    !slot

  let lru_slot t set =
    let base = set * t.nways in
    let best = ref base in
    for w = 1 to t.nways - 1 do
      if t.age.(base + w) < t.age.(!best) then best := base + w
    done;
    !best

  let fill t slot line dirty =
    t.victim_line <- t.tags.(slot);
    t.victim_dirty <- t.dirty.(slot);
    t.tags.(slot) <- line;
    t.age.(slot) <- t.clock;
    t.dirty.(slot) <- dirty

  let access t ~line ~store =
    let set = line land t.set_mask in
    t.clock <- t.clock + 1;
    let slot = find t set line in
    if slot >= 0 then begin
      t.age.(slot) <- t.clock;
      if store then t.dirty.(slot) <- true;
      if t.prefetched.(slot) then begin
        t.prefetched.(slot) <- false;
        Cache.Hit_prefetched
      end
      else Cache.Hit
    end
    else begin
      let slot = lru_slot t set in
      fill t slot line store;
      t.prefetched.(slot) <- false;
      Cache.Miss
    end

  let insert t ~line =
    let set = line land t.set_mask in
    t.clock <- t.clock + 1;
    let slot = find t set line in
    if slot >= 0 then begin
      t.age.(slot) <- t.clock;
      Cache.Hit
    end
    else begin
      let slot = lru_slot t set in
      fill t slot line false;
      t.prefetched.(slot) <- true;
      Cache.Miss
    end
end

let prop_mru_fast_path_matches_slow_path =
  QCheck.Test.make ~name:"MRU fast path matches full-scan slow path" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 100 400)
        (triple (int_range 0 3) (int_range 0 63) bool))
    (fun ops ->
      let sets = 8 and ways = 4 in
      let fast = Cache.create ~sets ~ways in
      let slow = Slow_cache.create ~sets ~ways in
      List.for_all
        (fun (op, line, store) ->
          let rf, rs =
            if op = 0 then (Cache.insert fast ~line, Slow_cache.insert slow ~line)
            else (Cache.access fast ~line ~store, Slow_cache.access slow ~line ~store)
          in
          rf = rs
          &&
          (* On a miss both victims must agree too. *)
          match rf with
          | Cache.Miss ->
            Cache.victim_line fast = slow.Slow_cache.victim_line
            && Cache.victim_dirty fast = slow.Slow_cache.victim_dirty
          | Cache.Hit | Cache.Hit_prefetched -> true)
        ops)

(* --- TLB --- *)

let test_tlb_basic () =
  let t = Tlb.create ~entries:2 ~page_shift:12 in
  Alcotest.(check bool) "first access misses" false (Tlb.access t ~addr:0x1000);
  Alcotest.(check bool) "same page hits" true (Tlb.access t ~addr:0x1FFF);
  Alcotest.(check bool) "other page misses" false (Tlb.access t ~addr:0x2000)

let test_tlb_capacity_lru () =
  let t = Tlb.create ~entries:2 ~page_shift:12 in
  ignore (Tlb.access t ~addr:0x1000);
  ignore (Tlb.access t ~addr:0x2000);
  ignore (Tlb.access t ~addr:0x1000);  (* refresh page 1 *)
  ignore (Tlb.access t ~addr:0x3000);  (* evicts page 2 *)
  Alcotest.(check bool) "page 1 survived" true (Tlb.access t ~addr:0x1000);
  Alcotest.(check bool) "page 2 evicted" false (Tlb.access t ~addr:0x2000)

let test_tlb_flush () =
  let t = Tlb.create ~entries:4 ~page_shift:12 in
  ignore (Tlb.access t ~addr:0x1000);
  Tlb.flush t;
  Alcotest.(check bool) "flushed" false (Tlb.access t ~addr:0x1000)

let test_tlb_large_pages () =
  let t = Tlb.create ~entries:2 ~page_shift:21 in
  ignore (Tlb.access t ~addr:0);
  Alcotest.(check bool) "2 MB page spans" true (Tlb.access t ~addr:(2 * 1024 * 1024 - 1));
  Alcotest.(check bool) "next page misses" false (Tlb.access t ~addr:(2 * 1024 * 1024))

(* The reference D-TLB: a linear scan for the hit and a min-stamp scan for
   the LRU victim, exactly what {!Tlb} computes in O(1).  Kept here only as
   the model the fast structure is checked against. *)
module Scan_tlb = struct
  type t = {
    entries : int;
    shift : int;
    pages : int array;  (* -1 = empty slot *)
    stamp : int array;  (* last-use clock; 0 = never used since flush *)
    mutable clock : int;
  }

  let create ~entries ~page_shift =
    {
      entries;
      shift = page_shift;
      pages = Array.make entries (-1);
      stamp = Array.make entries 0;
      clock = 0;
    }

  let access t ~addr =
    let page = addr lsr t.shift in
    t.clock <- t.clock + 1;
    let hit = ref (-1) in
    Array.iteri (fun i p -> if !hit < 0 && p = page then hit := i) t.pages;
    if !hit >= 0 then begin
      t.stamp.(!hit) <- t.clock;
      true
    end
    else begin
      (* Empty slots carry stamp 0, so the TLB fills before evicting. *)
      let victim = ref 0 in
      for j = 1 to t.entries - 1 do
        if t.stamp.(j) < t.stamp.(!victim) then victim := j
      done;
      t.pages.(!victim) <- page;
      t.stamp.(!victim) <- t.clock;
      false
    end

  let flush t =
    Array.fill t.pages 0 t.entries (-1);
    Array.fill t.stamp 0 t.entries 0
end

(* Entry counts from 1 to the Xeon's 64, page pools smaller and larger
   than the TLB, and a flush of both TLBs one time in fifty. *)
let prop_tlb_matches_scan_model =
  QCheck.Test.make ~name:"tlb: O(1) LRU matches the linear-scan model"
    ~count:200
    QCheck.(
      triple (oneofl [ 1; 2; 8; 64 ]) (oneofl [ 1; 3; 6; 48; 64; 65; 200 ])
        (pair small_int (list_of_size Gen.(int_range 100 2000) small_nat)))
    (fun (entries, pool, (seed, raw)) ->
      let fast = Tlb.create ~entries ~page_shift:12 in
      let model = Scan_tlb.create ~entries ~page_shift:12 in
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun x ->
          if Random.State.int rng 50 = 0 then begin
            Tlb.flush fast;
            Scan_tlb.flush model;
            true
          end
          else
            (* Offset within the page varies too: only the page matters. *)
            let addr = ((x mod pool) lsl 12) + Random.State.int rng 4096 in
            Tlb.access fast ~addr = Scan_tlb.access model ~addr)
        raw)

(* --- Prefetcher --- *)

(* on_miss pushes candidates through a callback; gather them for checks. *)
let pf_collect p ~line =
  let acc = ref [] in
  Prefetcher.on_miss p ~line ~fill:(fun l -> acc := l :: !acc);
  List.rev !acc

let test_prefetcher_stream_detection () =
  let p = Prefetcher.create ~streams:4 ~degree:2 in
  Alcotest.(check (list int)) "first miss: nothing" [] (pf_collect p ~line:100);
  Alcotest.(check (list int)) "second sequential: prefetch ahead" [ 102; 103 ]
    (pf_collect p ~line:101)

let test_prefetcher_nonsequential () =
  let p = Prefetcher.create ~streams:4 ~degree:2 in
  ignore (pf_collect p ~line:100);
  Alcotest.(check (list int)) "random miss: nothing" []
    (pf_collect p ~line:500)

let test_prefetcher_disabled () =
  let p = Prefetcher.create ~streams:0 ~degree:4 in
  ignore (pf_collect p ~line:1);
  Alcotest.(check (list int)) "disabled" [] (pf_collect p ~line:2)

let test_prefetcher_page_boundary () =
  let p = Prefetcher.create ~streams:4 ~degree:4 in
  (* Lines 62,63 are at the end of a 4 KB page (64 lines/page). *)
  ignore (pf_collect p ~line:62);
  Alcotest.(check (list int)) "stops at page boundary" []
    (pf_collect p ~line:63)

(* --- Events --- *)

let test_events_counting () =
  let ev = Events.create () in
  Events.add ev Access.Mgmt Events.L2_miss 3;
  Events.add ev Access.App Events.L2_miss 4;
  Events.add ev Access.App Events.Bus_fill 2;
  Alcotest.(check int) "per ctx" 3 (Events.get ev Access.Mgmt Events.L2_miss);
  Alcotest.(check int) "total" 7 (Events.total ev Events.L2_miss);
  Alcotest.(check int) "bus" 2 (Events.bus_transactions ev);
  let ev2 = Events.copy ev in
  Events.accumulate ~into:ev2 ev;
  Alcotest.(check int) "accumulated" 14 (Events.total ev2 Events.L2_miss);
  Events.reset ev;
  Alcotest.(check int) "reset" 0 (Events.total ev Events.L2_miss)

(* --- Machine --- *)

let test_machine_l2_sharing () =
  let x = Machine.xeon in
  let s1 = Machine.l2_sets_per_core x ~active_cores:1 in
  let s8 = Machine.l2_sets_per_core x ~active_cores:8 in
  Alcotest.(check bool) "shrinks with cores" true (s8 < s1);
  (* One core enjoys one full 4 MB L2: 4 MB / (64 B x 16 ways). *)
  Alcotest.(check int) "one-core share" 4096 s1;
  Alcotest.(check int) "eight-core share" 2048 s8;
  let n = Machine.niagara in
  (* 3 MB / (64 B x 12 ways) = 4096 sets, for a lone core. *)
  Alcotest.(check int) "niagara full L2 at 1 core" 4096
    (Machine.l2_sets_per_core n ~active_cores:1);
  Alcotest.(check bool) "pow2 sets" true
    (let s = Machine.l2_sets_per_core n ~active_cores:8 in
     s land (s - 1) = 0)

let test_machine_processes () =
  Alcotest.(check int) "xeon 8c" 2 (Machine.processes_per_core Machine.xeon ~active_cores:8);
  Alcotest.(check int) "xeon 1c" 16 (Machine.processes_per_core Machine.xeon ~active_cores:1);
  Alcotest.(check int) "niagara 8c" 6
    (Machine.processes_per_core Machine.niagara ~active_cores:8)

(* --- Cache system --- *)

let make_system machine =
  let mem = Memory.create () in
  let cs = CS.create ~machine ~active_cores:8 ~large_page_heap:false in
  CS.attach cs mem;
  Memory.set_context mem Access.App;
  (mem, cs)

let test_system_hot_line () =
  let mem, cs = make_system Machine.xeon in
  for _ = 1 to 100 do
    ignore (Memory.load_word mem ~addr:(1 lsl 32))
  done;
  let ev = CS.events cs 0 in
  Alcotest.(check int) "one L1D miss" 1 (Events.total ev Events.L1d_miss);
  Alcotest.(check int) "100 loads" 100 (Events.total ev Events.Loads);
  Alcotest.(check int) "one TLB miss" 1 (Events.total ev Events.Dtlb_miss)

let test_system_stream_misses () =
  let mem, cs = make_system Machine.niagara in
  (* Niagara has no prefetcher: a 1024-line stream = 1024 L1D and L2 misses. *)
  for i = 0 to 1023 do
    Memory.touch mem ~kind:Access.Load ~addr:((1 lsl 32) + (i * 64)) ~bytes:8
  done;
  let ev = CS.events cs 0 in
  Alcotest.(check int) "L1D misses" 1024 (Events.total ev Events.L1d_miss);
  Alcotest.(check int) "L2 misses" 1024 (Events.total ev Events.L2_miss);
  Alcotest.(check int) "bus fills" 1024 (Events.total ev Events.Bus_fill)

let test_system_prefetcher_kicks_in () =
  let mem, cs = make_system Machine.xeon in
  for i = 0 to 1023 do
    Memory.touch mem ~kind:Access.Load ~addr:((1 lsl 32) + (i * 64)) ~bytes:8
  done;
  let ev = CS.events cs 0 in
  Alcotest.(check bool) "few demand L2 misses" true
    (Events.total ev Events.L2_miss < 200);
  Alcotest.(check bool) "prefetch fills instead" true
    (Events.total ev Events.Bus_prefetch > 700)

let test_system_context_attribution () =
  let mem, cs = make_system Machine.xeon in
  Memory.set_context mem Access.Mgmt;
  ignore (Memory.load_word mem ~addr:(1 lsl 33));
  Memory.set_context mem Access.App;
  ignore (Memory.load_word mem ~addr:((1 lsl 33) + 8192));
  let ev = CS.events cs 0 in
  Alcotest.(check int) "mgmt miss" 1 (Events.get ev Access.Mgmt Events.L1d_miss);
  Alcotest.(check int) "app miss" 1 (Events.get ev Access.App Events.L1d_miss)

let test_system_tlb_flush_on_switch () =
  let mem, cs = make_system Machine.xeon in
  ignore (Memory.load_word mem ~addr:(1 lsl 32));
  CS.on_context_switch cs;
  ignore (Memory.load_word mem ~addr:(1 lsl 32));
  Alcotest.(check int) "two TLB misses on xeon" 2
    (Events.total (CS.events cs 0) Events.Dtlb_miss);
  let mem2, cs2 = make_system Machine.niagara in
  ignore (Memory.load_word mem2 ~addr:(1 lsl 32));
  CS.on_context_switch cs2;
  ignore (Memory.load_word mem2 ~addr:(1 lsl 32));
  Alcotest.(check int) "one TLB miss on niagara (ASIDs)" 1
    (Events.total (CS.events cs2 0) Events.Dtlb_miss)

let test_system_writeback_traffic () =
  let mem, cs = make_system Machine.niagara in
  (* Store a footprint far beyond L2, then stream it again: dirty lines
     must be written back. *)
  let lines = 128 * 1024 in
  for i = 0 to lines - 1 do
    Memory.touch mem ~kind:Access.Store ~addr:((1 lsl 32) + (i * 64)) ~bytes:8
  done;
  let ev = CS.events cs 0 in
  Alcotest.(check bool) "writebacks happened" true
    (Events.total ev Events.Bus_writeback > lines / 2)

(* --- Exact event counts ---

   A fixed synthetic stream through {!CS.attach}: repeated loads and stores
   to one line, multi-line touches that straddle pages, context switches
   and flushes between references to the same line, and enough scattered
   traffic to exercise evictions, writebacks and the prefetcher.  The
   expected values (all 33 counters: Mgmt, App, Kernel rows in
   {!Events.all_counters} order) were recorded from the hierarchy before
   the repeated-line filter and the O(1) D-TLB existed; both are pure
   shortcuts and must not move a single count. *)

let synthetic_stream cs mem =
  let base = 0x100000 in
  Memory.set_context mem Access.App;
  for i = 0 to 15 do
    Memory.touch mem ~kind:Access.Load ~addr:(base + ((i land 7) * 8)) ~bytes:8
  done;
  for i = 0 to 15 do
    Memory.touch mem
      ~kind:(if i land 1 = 0 then Access.Store else Access.Load)
      ~addr:(base + 64 + ((i * 4) land 63)) ~bytes:4
  done;
  for i = 0 to 7 do
    let addr = base + (4096 * (i + 1)) - 72 + i in
    Memory.touch mem ~kind:Access.Load ~addr ~bytes:(100 + (16 * i));
    Memory.touch mem ~kind:Access.Store ~addr ~bytes:(100 + (16 * i))
  done;
  Memory.touch mem ~kind:Access.Load ~addr:base ~bytes:8;
  CS.on_context_switch cs;
  Memory.touch mem ~kind:Access.Load ~addr:base ~bytes:8;
  Memory.touch mem ~kind:Access.Store ~addr:(base + 8) ~bytes:8;
  CS.flush cs;
  Memory.touch mem ~kind:Access.Store ~addr:(base + 8) ~bytes:8;
  Memory.set_context mem Access.Mgmt;
  for i = 1 to 20_000 do
    let addr = base + ((i * 8161) land 0x3FFFFF) in
    let kind = if i mod 5 = 0 then Access.Store else Access.Load in
    Memory.touch mem ~kind ~addr ~bytes:(if i land 7 = 0 then 72 else 8);
    if i mod 3 = 0 then Memory.touch mem ~kind:Access.Store ~addr ~bytes:8;
    if i mod 4 = 0 then Memory.touch mem ~kind:Access.Load ~addr ~bytes:8;
    Memory.code_touch mem ~addr:(0x4000000 + ((i * 127) land 0xFFFF));
    Memory.instr mem 3;
    if i mod 1000 = 0 then CS.on_context_switch cs;
    if i mod 7919 = 0 then CS.flush cs
  done;
  Memory.set_context mem Access.Kernel;
  for i = 0 to 4095 do
    Memory.touch mem
      ~kind:(if i land 1 = 0 then Access.Load else Access.Store)
      ~addr:(0x800000 + (i * 16)) ~bytes:16
  done

let expected_events_xeon =
  [|
    97395; 25062; 12333; 3850; 24688; 27388; 20073; 27388; 0; 13630; 0;
    98; 57; 41; 0; 35; 27; 11; 27; 0; 34; 7;
    4096; 2048; 2048; 0; 1024; 17; 16; 17; 0; 1007; 1007;
  |]

let expected_events_niagara =
  [|
    97395; 25062; 12333; 20000; 24688; 27388; 19924; 27388; 3908; 0; 0;
    98; 57; 41; 0; 35; 34; 6; 34; 0; 0; 0;
    4096; 2048; 2048; 0; 1024; 1024; 8; 1024; 282; 0; 0;
  |]

let test_system_exact_event_counts () =
  List.iter
    (fun (name, machine, expected) ->
      let mem = Memory.create () in
      let cs = CS.create ~machine ~active_cores:8 ~large_page_heap:false in
      CS.attach cs mem;
      synthetic_stream cs mem;
      let ev = CS.events cs 0 in
      let i = ref 0 in
      List.iter
        (fun ctx ->
          List.iter
            (fun c ->
              Alcotest.(check int)
                (Printf.sprintf "%s %s %s" name (Access.context_name ctx)
                   (Events.counter_name c))
                expected.(!i) (Events.get ev ctx c);
              incr i)
            Events.all_counters)
        [ Access.Mgmt; Access.App; Access.Kernel ])
    [
      ("xeon", Machine.xeon, expected_events_xeon);
      ("niagara", Machine.niagara, expected_events_niagara);
    ]

(* --- Stream groups ---

   One front and one L2 per distinct share must count, member by member,
   exactly what a system of its own counts on the same stream. *)

let all_counts ev =
  List.concat_map
    (fun ctx -> List.map (Events.get ev ctx) Events.all_counters)
    [ Access.Mgmt; Access.App; Access.Kernel ]

(* The synthetic stream, then two passes over 3 MB at a two-line stride
   (too sparse to confirm a prefetch stream): the second pass hits in a
   4 MB L2 share and misses in a smaller one. *)
let group_stream cs mem =
  synthetic_stream cs mem;
  for _ = 1 to 2 do
    for i = 0 to (3 * 1024 * 1024 / 128) - 1 do
      Memory.touch mem ~kind:Access.Load ~addr:(0x10000000 + (i * 128)) ~bytes:8
    done
  done

let test_system_group_counts () =
  let cores = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  List.iter
    (fun (machine, large_page_heap) ->
      let name = machine.Machine.name ^ if large_page_heap then "+lp" else "" in
      let mem = Memory.create () in
      let group = CS.create_group ~machine ~active_cores:cores ~large_page_heap in
      CS.attach group mem;
      group_stream group mem;
      let l2_misses =
        List.mapi
          (fun i n ->
            let mem = Memory.create () in
            let alone = CS.create ~machine ~active_cores:n ~large_page_heap in
            CS.attach alone mem;
            group_stream alone mem;
            let member = CS.events group i in
            Alcotest.(check (list int))
              (Printf.sprintf "%s %d cores" name n)
              (all_counts (CS.events alone 0)) (all_counts member);
            Events.total member Events.L2_miss)
          cores
      in
      (* The stream must tell the shares apart, or the test shows nothing. *)
      Alcotest.(check bool)
        (name ^ ": L2 shares count differently")
        true
        (List.length (List.sort_uniq compare l2_misses) > 1))
    [ (Machine.xeon, false); (Machine.niagara, false); (Machine.xeon, true) ]

let test_system_group_rejects_empty () =
  Alcotest.check_raises "no member"
    (Invalid_argument "Cache_system.create_group: no member") (fun () ->
      ignore
        (CS.create_group ~machine:Machine.xeon ~active_cores:[]
           ~large_page_heap:false))

(* --- Perf model --- *)

let events_with instr l1d l2 tlb bus =
  let ev = Events.create () in
  Events.add ev Access.App Events.Instructions instr;
  Events.add ev Access.App Events.L1d_miss l1d;
  Events.add ev Access.App Events.L2_miss l2;
  Events.add ev Access.App Events.Dtlb_miss tlb;
  Events.add ev Access.App Events.Bus_fill bus;
  ev

let test_perf_compute_bound () =
  let ev = events_with 1_000_000 0 0 0 0 in
  let r = Perf.solve ~machine:Machine.xeon ~active_cores:1 ~events:ev ~txns:1 in
  Alcotest.(check (float 1.0)) "cycles = instr x cpi" 1_000_000.0 r.Perf.cycles_per_txn;
  Alcotest.(check (float 2.0)) "throughput" 1860.0 r.Perf.throughput

let test_perf_stalls_hurt () =
  let fast = events_with 1_000_000 0 0 0 0 in
  let slow = events_with 1_000_000 20_000 10_000 0 10_000 in
  let r_fast = Perf.solve ~machine:Machine.xeon ~active_cores:1 ~events:fast ~txns:1 in
  let r_slow = Perf.solve ~machine:Machine.xeon ~active_cores:1 ~events:slow ~txns:1 in
  Alcotest.(check bool) "misses cost cycles" true
    (r_slow.Perf.cycles_per_txn > r_fast.Perf.cycles_per_txn)

let test_perf_bus_contention_grows_with_cores () =
  (* Heavy traffic: utilization and effective latency rise with cores. *)
  let ev = events_with 1_000_000 120_000 100_000 0 100_000 in
  let r1 = Perf.solve ~machine:Machine.xeon ~active_cores:1 ~events:ev ~txns:1 in
  let r8 = Perf.solve ~machine:Machine.xeon ~active_cores:8 ~events:ev ~txns:1 in
  Alcotest.(check bool) "rho grows" true
    (r8.Perf.bus_utilization > r1.Perf.bus_utilization);
  Alcotest.(check bool) "latency grows" true
    (r8.Perf.mem_latency_eff > r1.Perf.mem_latency_eff);
  Alcotest.(check bool) "sublinear scaling" true
    (r8.Perf.throughput < 8.0 *. r1.Perf.throughput)

let test_perf_smt_hides_stalls () =
  (* On Niagara, a moderate stall load is fully hidden by the 4 threads:
     throughput matches the compute-bound rate. *)
  let compute_only = events_with 1_000_000 0 0 0 0 in
  let with_stalls = events_with 1_000_000 10_000 5_000 0 5_000 in
  let r0 = Perf.solve ~machine:Machine.niagara ~active_cores:1 ~events:compute_only ~txns:1 in
  let r1 = Perf.solve ~machine:Machine.niagara ~active_cores:1 ~events:with_stalls ~txns:1 in
  Alcotest.(check (float 1.0)) "stalls hidden by threads"
    r0.Perf.throughput r1.Perf.throughput

let test_perf_breakdown_sums () =
  let ev = Events.create () in
  Events.add ev Access.Mgmt Events.Instructions 300_000;
  Events.add ev Access.App Events.Instructions 600_000;
  Events.add ev Access.Kernel Events.Instructions 100_000;
  let r = Perf.solve ~machine:Machine.xeon ~active_cores:1 ~events:ev ~txns:1 in
  let b = r.Perf.breakdown in
  Alcotest.(check (float 1.0)) "breakdown sums to wall" r.Perf.cycles_per_txn
    (b.Perf.mgmt_cycles +. b.Perf.app_cycles +. b.Perf.kernel_cycles);
  Alcotest.(check (float 0.01)) "mgmt share" 0.3
    (b.Perf.mgmt_cycles /. r.Perf.cycles_per_txn)

let test_perf_txns_normalization () =
  let ev = events_with 2_000_000 0 0 0 0 in
  let r = Perf.solve ~machine:Machine.xeon ~active_cores:1 ~events:ev ~txns:2 in
  Alcotest.(check (float 1.0)) "per-txn cycles" 1_000_000.0 r.Perf.cycles_per_txn

let prop_perf_model_consistent =
  QCheck.Test.make ~name:"perf model: breakdown sums, throughput positive"
    QCheck.(
      quad (int_range 1 8)
        (int_range 1 10_000_000)
        (int_range 0 100_000)
        (int_range 0 50_000))
    (fun (cores, instr, l1d, l2) ->
      let l2 = Stdlib.min l2 l1d in
      let ev = events_with instr l1d l2 (l1d / 10) l2 in
      let ok machine =
        let r = Perf.solve ~machine ~active_cores:cores ~events:ev ~txns:1 in
        let b = r.Perf.breakdown in
        let sum = b.Perf.mgmt_cycles +. b.Perf.app_cycles +. b.Perf.kernel_cycles in
        r.Perf.throughput > 0.0
        && Float.abs (sum -. r.Perf.cycles_per_txn)
           <= 1e-6 *. Float.max 1.0 r.Perf.cycles_per_txn
        && r.Perf.bus_utilization >= 0.0
        && r.Perf.bus_utilization <= 0.93
        && r.Perf.mem_latency_eff >= machine.Machine.mem_latency -. 1e-6
      in
      ok Machine.xeon && ok Machine.niagara)

let prop_prefetched_hit_reported_once =
  QCheck.Test.make ~name:"prefetched line reports Hit_prefetched exactly once"
    QCheck.(int_range 0 10_000)
    (fun line ->
      let c = Cache.create ~sets:64 ~ways:4 in
      ignore (Cache.insert c ~line);
      let first = Cache.access c ~line ~store:false in
      let second = Cache.access c ~line ~store:false in
      first = Cache.Hit_prefetched && second = Cache.Hit)

let prop_tlb_hit_after_install =
  QCheck.Test.make ~name:"tlb: second access to a page always hits"
    QCheck.(int_range 0 1_000_000)
    (fun addr ->
      let t = Tlb.create ~entries:8 ~page_shift:12 in
      ignore (Tlb.access t ~addr);
      Tlb.access t ~addr)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_cache_matches_reference; prop_mru_fast_path_matches_slow_path;
      prop_perf_model_consistent; prop_prefetched_hit_reported_once;
      prop_tlb_hit_after_install; prop_tlb_matches_scan_model ]

let () =
  Alcotest.run "mm_cachesim"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_cache_dirty_writeback;
          Alcotest.test_case "prefetched flag" `Quick test_cache_prefetched_flag;
          Alcotest.test_case "contains neutral" `Quick test_cache_contains_no_lru_disturb;
          Alcotest.test_case "flush" `Quick test_cache_flush;
        ] );
      ( "tlb",
        [
          Alcotest.test_case "basic" `Quick test_tlb_basic;
          Alcotest.test_case "capacity LRU" `Quick test_tlb_capacity_lru;
          Alcotest.test_case "flush" `Quick test_tlb_flush;
          Alcotest.test_case "large pages" `Quick test_tlb_large_pages;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "stream detection" `Quick test_prefetcher_stream_detection;
          Alcotest.test_case "non-sequential" `Quick test_prefetcher_nonsequential;
          Alcotest.test_case "disabled" `Quick test_prefetcher_disabled;
          Alcotest.test_case "page boundary" `Quick test_prefetcher_page_boundary;
        ] );
      ("events", [ Alcotest.test_case "counting" `Quick test_events_counting ]);
      ( "machine",
        [
          Alcotest.test_case "L2 sharing" `Quick test_machine_l2_sharing;
          Alcotest.test_case "processes per core" `Quick test_machine_processes;
        ] );
      ( "cache_system",
        [
          Alcotest.test_case "hot line" `Quick test_system_hot_line;
          Alcotest.test_case "stream misses" `Quick test_system_stream_misses;
          Alcotest.test_case "prefetcher engages" `Quick test_system_prefetcher_kicks_in;
          Alcotest.test_case "context attribution" `Quick test_system_context_attribution;
          Alcotest.test_case "TLB flush on switch" `Quick test_system_tlb_flush_on_switch;
          Alcotest.test_case "writeback traffic" `Quick test_system_writeback_traffic;
          Alcotest.test_case "exact event counts" `Quick test_system_exact_event_counts;
          Alcotest.test_case "group = separate systems" `Quick
            test_system_group_counts;
          Alcotest.test_case "group needs a member" `Quick
            test_system_group_rejects_empty;
        ] );
      ( "perf_model",
        [
          Alcotest.test_case "compute bound" `Quick test_perf_compute_bound;
          Alcotest.test_case "stalls hurt" `Quick test_perf_stalls_hurt;
          Alcotest.test_case "bus contention" `Quick test_perf_bus_contention_grows_with_cores;
          Alcotest.test_case "SMT hides stalls" `Quick test_perf_smt_hides_stalls;
          Alcotest.test_case "breakdown sums" `Quick test_perf_breakdown_sums;
          Alcotest.test_case "txns normalization" `Quick test_perf_txns_normalization;
        ] );
      ("properties", qcheck_cases);
    ]
