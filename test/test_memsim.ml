(* Unit and property tests for mm_memsim: the simulated memory and the OS
   layer that every allocator builds on. *)

module Memory = Mm_memsim.Memory
module Access = Mm_memsim.Access
module Os = Mm_memsim.Os_layer

let base = 1 lsl 32

(* --- loads and stores --- *)

let test_roundtrip_word () =
  let mem = Memory.create () in
  Memory.store_word mem ~addr:base ~value:123456789;
  Alcotest.(check int) "word roundtrip" 123456789 (Memory.load_word mem ~addr:base)

let test_roundtrip_bytes () =
  let mem = Memory.create () in
  Memory.store8 mem ~addr:(base + 5) ~value:0xAB;
  Alcotest.(check int) "byte roundtrip" 0xAB (Memory.load8 mem ~addr:(base + 5));
  Alcotest.(check int) "masked to byte" 0x01
    (Memory.store8 mem ~addr:base ~value:0x101;
     Memory.load8 mem ~addr:base)

let test_unmaterialized_reads_zero () =
  let mem = Memory.create () in
  Alcotest.(check int) "untouched byte" 0 (Memory.load8 mem ~addr:(base + 999));
  Alcotest.(check int) "untouched word" 0 (Memory.load_word mem ~addr:base)

let test_adjacent_words_independent () =
  let mem = Memory.create () in
  Memory.store_word mem ~addr:base ~value:1;
  Memory.store_word mem ~addr:(base + 8) ~value:2;
  Alcotest.(check int) "first" 1 (Memory.load_word mem ~addr:base);
  Alcotest.(check int) "second" 2 (Memory.load_word mem ~addr:(base + 8))

let test_memset () =
  let mem = Memory.create () in
  Memory.memset mem ~addr:(base + 3) ~bytes:100 ~value:0x7F;
  Alcotest.(check int) "inside" 0x7F (Memory.load8 mem ~addr:(base + 50));
  Alcotest.(check int) "before untouched" 0 (Memory.load8 mem ~addr:(base + 2));
  Alcotest.(check int) "after untouched" 0 (Memory.load8 mem ~addr:(base + 103))

let test_memset_cross_block () =
  let mem = Memory.create () in
  let addr = base + Memory.block_size - 10 in
  Memory.memset mem ~addr ~bytes:20 ~value:0x42;
  Alcotest.(check int) "end of first block" 0x42 (Memory.load8 mem ~addr:(addr + 9));
  Alcotest.(check int) "start of second block" 0x42
    (Memory.load8 mem ~addr:(addr + 10))

let test_memcpy () =
  let mem = Memory.create () in
  for i = 0 to 31 do
    Memory.store8 mem ~addr:(base + i) ~value:(i * 3 mod 256)
  done;
  Memory.memcpy mem ~dst:(base + 4096) ~src:base ~bytes:32;
  for i = 0 to 31 do
    Alcotest.(check int)
      (Printf.sprintf "copied byte %d" i)
      (i * 3 mod 256)
      (Memory.load8 mem ~addr:(base + 4096 + i))
  done

let test_memcpy_unmaterialized_source () =
  let mem = Memory.create () in
  Memory.store8 mem ~addr:(base + 4096) ~value:0xFF;
  (* Source block never written: copy must produce zeros over the dst. *)
  Memory.memcpy mem ~dst:(base + 4096) ~src:(base + 65536 * 7) ~bytes:8;
  Alcotest.(check int) "zero-filled" 0 (Memory.load8 mem ~addr:(base + 4096))

(* Copying out of an unbacked block must overwrite pre-existing dst data
   with zeros (load8 semantics), not leave it alone. *)
let test_memcpy_cold_src_clobbers_dst () =
  let mem = Memory.create () in
  for i = 0 to 15 do
    Memory.store8 mem ~addr:(base + 4096 + i) ~value:0xEE
  done;
  Memory.memcpy mem ~dst:(base + 4096) ~src:(base + 65536 * 9) ~bytes:16;
  for i = 0 to 15 do
    Alcotest.(check int) "clobbered to zero" 0
      (Memory.load8 mem ~addr:(base + 4096 + i))
  done

(* Copying between two unbacked blocks must not materialize either one:
   the dst already reads as zero, so backing it would only waste memory. *)
let test_memcpy_cold_to_cold_stays_cold () =
  let mem = Memory.create () in
  Memory.store8 mem ~addr:base ~value:1 (* one backed block for reference *);
  let before = Memory.backed_bytes mem in
  Memory.memcpy mem ~dst:(base + 65536 * 3) ~src:(base + 65536 * 5) ~bytes:200;
  Alcotest.(check int) "no new backing" before (Memory.backed_bytes mem);
  Alcotest.(check int) "dst reads zero" 0
    (Memory.load8 mem ~addr:(base + 65536 * 3))

(* Copying real data into an unbacked block materializes it and copies. *)
let test_memcpy_into_cold_materializes () =
  let mem = Memory.create () in
  for i = 0 to 7 do
    Memory.store8 mem ~addr:(base + i) ~value:(0x30 + i)
  done;
  let before = Memory.backed_bytes mem in
  Memory.memcpy mem ~dst:(base + 65536 * 4) ~src:base ~bytes:8;
  Alcotest.(check bool) "dst materialized" true (Memory.backed_bytes mem > before);
  for i = 0 to 7 do
    Alcotest.(check int) "copied" (0x30 + i)
      (Memory.load8 mem ~addr:(base + 65536 * 4 + i))
  done

let test_reset () =
  let mem = Memory.create () in
  Memory.store_word mem ~addr:base ~value:5;
  Memory.reset mem;
  Alcotest.(check int) "cleared" 0 (Memory.load_word mem ~addr:base);
  Alcotest.(check int) "no backing" 0 (Memory.backed_bytes mem)

let blk = Memory.block_size

(* The range covers block 0 from offset 64, blocks 1 and 2 whole and
   block 3 up to offset 128: only blocks 1 and 2 may go. *)
let test_discard_whole_blocks_only () =
  let mem = Memory.create () in
  let words =
    [ base + 8; base + 64; base + blk + 8; base + (2 * blk) + 8;
      base + (3 * blk) + 8; base + (3 * blk) + 512 ]
  in
  List.iteri (fun i addr -> Memory.store_word mem ~addr ~value:(i + 1)) words;
  Memory.discard mem ~addr:(base + 64) ~bytes:((3 * blk) + 64);
  Alcotest.(check (list int)) "partial blocks kept, whole blocks zero"
    [ 1; 2; 0; 0; 5; 6 ]
    (List.map (fun addr -> Memory.load_word mem ~addr) words);
  Alcotest.(check int) "two blocks left" (2 * blk) (Memory.backed_bytes mem);
  Memory.discard mem ~addr:(base + 8) ~bytes:(blk - 16);
  Alcotest.(check int) "a range inside one block drops nothing" (2 * blk)
    (Memory.backed_bytes mem)

(* Each block goes through the lookup cache before it is dropped, and
   both discard paths run: per-id removal (a range of fewer blocks than
   are backed) and the table sweep (a range far larger). *)
let test_discard_no_stale_reads () =
  let mem = Memory.create () in
  for i = 0 to 31 do
    Memory.store_word mem ~addr:(base + (i * blk)) ~value:(i + 1);
    ignore (Memory.load_word mem ~addr:(base + (i * blk)) : int)
  done;
  Memory.discard mem ~addr:base ~bytes:(4 * blk);
  for i = 0 to 31 do
    Alcotest.(check int) "after per-id discard"
      (if i < 4 then 0 else i + 1)
      (Memory.load_word mem ~addr:(base + (i * blk)))
  done;
  Memory.discard mem ~addr:(base + (4 * blk)) ~bytes:(4096 * blk);
  for i = 0 to 31 do
    Alcotest.(check int) "after sweep" 0
      (Memory.load_word mem ~addr:(base + (i * blk)))
  done;
  Alcotest.(check int) "nothing backed" 0 (Memory.backed_bytes mem);
  Memory.store8 mem ~addr:(base + 16) ~value:7;
  Alcotest.(check int) "rewritten block starts zeroed" 0
    (Memory.load_word mem ~addr:base);
  Alcotest.(check int) "and holds the new byte" 7
    (Memory.load8 mem ~addr:(base + 16))

(* --- the zero-allocation contract (see memory.mli) ---

   With a full cache system attached, a simulated access must not allocate
   on the OCaml minor heap: the observer path is the simulator's inner
   loop.  [Gc.minor_words] is exact for allocation counting, so the check
   is a hard equality, not a threshold. *)
let test_touch_allocates_nothing () =
  let mem = Memory.create () in
  let cs =
    Mm_cachesim.Cache_system.create ~machine:Mm_cachesim.Machine.xeon
      ~active_cores:8 ~large_page_heap:false
  in
  Mm_cachesim.Cache_system.attach cs mem;
  let n = 50_000 in
  let run () =
    for i = 1 to n do
      (* Mix of loads, stores, cross-line accesses, code fetches and
         instruction charges, spread over enough lines to force misses,
         TLB evictions and prefetcher activity. *)
      let addr = base + (i * 8161 land 0xFFFFF) in
      let kind = if i land 3 = 0 then Access.Store else Access.Load in
      Memory.touch mem ~kind ~addr ~bytes:(if i land 7 = 0 then 16 else 8);
      Memory.code_touch mem ~addr:(base + (i * 127 land 0xFFFF));
      Memory.instr mem 3
    done
  in
  run () (* warm up: materialize blocks, fill caches, stabilize *);
  let before = Gc.minor_words () in
  run ();
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0))
    "minor words allocated by the access hot path" 0.0 (after -. before)

(* The generator's draws and a steady-state workload step.  [Rng] keeps
   its state unboxed, so integer and boolean draws allocate nothing.  A
   php-default [Process.step] allocates nothing in a release build; the
   default (dev) profile compiles each library opaquely, so float results
   returned across modules stay boxed there: 15.8 words per op, which the
   bound sits just above.  A generator that boxed its state took 214.5. *)
let test_rng_draws_allocate_nothing () =
  let rng = Mm_stats.Rng.create ~seed:1 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Mm_stats.Rng.int rng ~bound:17;
    if Mm_stats.Rng.bool rng ~p:0.3 then incr acc
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool) "draws happened" true (!acc > 0);
  Alcotest.(check (float 0.0)) "minor words for Rng.int + Rng.bool" 0.0
    (after -. before)

let step_words_per_op_bound = 20.0

let test_process_step_allocation () =
  let mem = Memory.create () in
  let os = Mm_memsim.Os_layer.create mem in
  let cs =
    Mm_cachesim.Cache_system.create ~machine:Mm_cachesim.Machine.xeon
      ~active_cores:8 ~large_page_heap:false
  in
  Mm_cachesim.Cache_system.attach cs mem;
  let spec =
    Mm_workload.Spec.scaled Mm_workload.Spec.mediawiki_ro ~scale:0.05
  in
  let p =
    Mm_runtime.Process.create ~kind:Mm_runtime.Alloc_factory.Php_default ~os
      ~mem ~spec ~pid:0 ~seed:42 ~use_bulk_free:true
  in
  let ops = 20_000 in
  let run () =
    for _ = 1 to ops do
      ignore (Mm_runtime.Process.step p ~ops:1 : bool)
    done
  in
  run () (* warm up: grow the live arrays, map the heap *);
  let before = Gc.minor_words () in
  run ();
  let per_op = (Gc.minor_words () -. before) /. float_of_int ops in
  if per_op > step_words_per_op_bound then
    Alcotest.failf "Process.step: %.1f minor words per op, bound %.1f" per_op
      step_words_per_op_bound

(* --- events and contexts --- *)

let test_touch_emits_without_backing () =
  let mem = Memory.create () in
  let events = ref [] in
  Memory.set_access_observer mem (fun context kind addr bytes ->
      events := { Access.context; kind; addr; bytes } :: !events);
  Memory.touch mem ~kind:Access.Load ~addr:base ~bytes:4096;
  Alcotest.(check int) "one event" 1 (List.length !events);
  Alcotest.(check int) "no backing" 0 (Memory.backed_bytes mem);
  match !events with
  | [ a ] ->
    Alcotest.(check int) "addr" base a.Access.addr;
    Alcotest.(check int) "bytes" 4096 a.Access.bytes
  | _ -> Alcotest.fail "expected one event"

let test_observer_records () =
  let mem = Memory.create () in
  let events = ref [] in
  Memory.set_access_observer mem (fun context kind addr bytes ->
      events := { Access.context; kind; addr; bytes } :: !events);
  Memory.set_context mem Access.Mgmt;
  Memory.store_word mem ~addr:base ~value:1;
  Memory.set_context mem Access.App;
  ignore (Memory.load_word mem ~addr:base);
  match List.rev !events with
  | [ store; load ] ->
    Alcotest.(check bool) "store kind" true (store.Access.kind = Access.Store);
    Alcotest.(check bool) "store ctx" true (store.Access.context = Access.Mgmt);
    Alcotest.(check bool) "load kind" true (load.Access.kind = Access.Load);
    Alcotest.(check bool) "load ctx" true (load.Access.context = Access.App)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_with_context_restores () =
  let mem = Memory.create () in
  Memory.set_context mem Access.App;
  let inside = ref Access.App in
  Memory.with_context mem Access.Kernel (fun () -> inside := Memory.context mem);
  Alcotest.(check bool) "inside kernel" true (!inside = Access.Kernel);
  Alcotest.(check bool) "restored" true (Memory.context mem = Access.App)

let test_with_context_restores_on_raise () =
  let mem = Memory.create () in
  Memory.set_context mem Access.App;
  (try
     Memory.with_context mem Access.Mgmt (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true
    (Memory.context mem = Access.App)

let test_instr_observer () =
  let mem = Memory.create () in
  let counts = Hashtbl.create 4 in
  Memory.set_instr_observer mem (fun ctx n ->
      let k = Access.context_name ctx in
      Hashtbl.replace counts k (n + Option.value ~default:0 (Hashtbl.find_opt counts k)));
  Memory.set_context mem Access.Mgmt;
  Memory.instr mem 10;
  Memory.instr mem 5;
  Memory.set_context mem Access.App;
  Memory.instr mem 3;
  Alcotest.(check int) "mgmt instrs" 15 (Hashtbl.find counts "mgmt");
  Alcotest.(check int) "app instrs" 3 (Hashtbl.find counts "app")

let test_code_observer () =
  let mem = Memory.create () in
  let addrs = ref [] in
  Memory.set_code_observer mem (fun _ a -> addrs := a :: !addrs);
  Core.Code_model.touch_path mem ~base:(1 lsl 41) ~offset:128 ~lines:3;
  Alcotest.(check (list int)) "code lines"
    [ (1 lsl 41) + 128; (1 lsl 41) + 192; (1 lsl 41) + 256 ]
    (List.rev !addrs)

let test_access_count () =
  let mem = Memory.create () in
  ignore (Memory.load_word mem ~addr:base);
  Memory.store8 mem ~addr:base ~value:1;
  Memory.touch mem ~kind:Access.Load ~addr:base ~bytes:64;
  Alcotest.(check int) "3 accesses" 3 (Memory.access_count mem)

(* --- Os layer --- *)

let own os name = Os.owner os ~name ~pid:0

let test_os_mmap_alignment_and_disjoint () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let a = Os.mmap os ~owner:(own os "a") ~bytes:1000 ~align:4096 in
  let b = Os.mmap os ~owner:(own os "b") ~bytes:32768 ~align:32768 in
  Alcotest.(check int) "a aligned" 0 (a mod 4096);
  Alcotest.(check int) "b aligned" 0 (b mod 32768);
  Alcotest.(check bool) "disjoint" true (b >= a + 1000 || a >= b + 32768)

let test_os_claimed_accounting () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let a = Os.mmap os ~owner:(own os "x") ~bytes:5000 ~align:64 in
  ignore (Os.mmap os ~owner:(own os "y") ~bytes:100 ~align:64);
  Alcotest.(check int) "claimed x" 5000 (Os.claimed_bytes os ~owner:"x[0]");
  Alcotest.(check int) "total" 5100 (Os.total_claimed os);
  Os.munmap os ~owner:(own os "x") ~addr:a ~bytes:5000;
  Alcotest.(check int) "after munmap" 0 (Os.claimed_bytes os ~owner:"x[0]")

(* A dead owner's range ends in the block where a live owner's range
   starts: retiring the dead one keeps that block byte for byte. *)
let test_os_retire_keeps_shared_block () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let dead = own os "dead" and live = own os "live" in
  let d = Os.mmap os ~owner:dead ~bytes:((3 * blk) + 100) ~align:blk in
  let l = Os.mmap os ~owner:live ~bytes:8192 ~align:64 in
  Alcotest.(check int) "ranges share block 3" ((d lsr 16) + 3) (l lsr 16);
  Memory.memset mem ~addr:d ~bytes:((3 * blk) + 100) ~value:0xd;
  Memory.memset mem ~addr:l ~bytes:8192 ~value:0x1;
  let claimed = Os.total_claimed os in
  Os.retire os dead;
  Alcotest.(check int) "whole dead blocks dropped" blk (Memory.backed_bytes mem);
  Alcotest.(check int) "claimed bytes unchanged" claimed (Os.total_claimed os);
  Alcotest.(check int) "dead whole block reads zero" 0 (Memory.load8 mem ~addr:d);
  Alcotest.(check int) "dead tail in the shared block kept" 0xd
    (Memory.load8 mem ~addr:(d + (3 * blk) + 99));
  for i = 0 to 8191 do
    if Memory.load8 mem ~addr:(l + i) <> 0x1 then
      Alcotest.failf "live byte %d changed" i
  done;
  Os.retire os dead;
  Alcotest.(check int) "a second retire drops nothing more" blk
    (Memory.backed_bytes mem)

let test_os_syscall_charged_to_kernel () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let kernel_instr = ref 0 in
  Memory.set_instr_observer mem (fun ctx n ->
      if ctx = Access.Kernel then kernel_instr := !kernel_instr + n);
  Memory.set_context mem Access.Mgmt;
  ignore (Os.mmap os ~owner:(own os "k") ~bytes:64 ~align:64);
  Alcotest.(check int) "syscall cost" Os.syscall_instructions !kernel_instr;
  Alcotest.(check bool) "context restored" true (Memory.context mem = Access.Mgmt)

(* --- properties --- *)

let prop_memset_matches_reference =
  QCheck.Test.make ~name:"memset matches a Bytes reference model"
    QCheck.(triple (int_range 0 200) (int_range 1 300) (int_range 0 255))
    (fun (off, len, v) ->
      let mem = Memory.create () in
      let reference = Bytes.make 600 '\000' in
      Memory.memset mem ~addr:(base + off) ~bytes:len ~value:v;
      Bytes.fill reference off len (Char.chr v);
      let ok = ref true in
      for i = 0 to 599 do
        if Memory.load8 mem ~addr:(base + i) <> Char.code (Bytes.get reference i)
        then ok := false
      done;
      !ok)

let prop_memcpy_matches_reference =
  QCheck.Test.make ~name:"memcpy matches a Bytes reference model"
    QCheck.(triple (int_range 0 100) (int_range 300 400) (int_range 1 150))
    (fun (src_off, dst_off, len) ->
      let mem = Memory.create () in
      let reference = Bytes.make 600 '\000' in
      for i = 0 to 199 do
        Memory.store8 mem ~addr:(base + i) ~value:(i mod 251);
        Bytes.set reference i (Char.chr (i mod 251))
      done;
      Memory.memcpy mem ~dst:(base + dst_off) ~src:(base + src_off) ~bytes:len;
      Bytes.blit reference src_off reference dst_off len;
      let ok = ref true in
      for i = 0 to 599 do
        if Memory.load8 mem ~addr:(base + i) <> Char.code (Bytes.get reference i)
        then ok := false
      done;
      !ok)

let prop_word_roundtrip =
  QCheck.Test.make ~name:"store_word/load_word roundtrip"
    QCheck.(pair (int_range 0 1000) (int_bound max_int))
    (fun (slot, v) ->
      let mem = Memory.create () in
      let addr = base + (slot * 8) in
      Memory.store_word mem ~addr ~value:v;
      Memory.load_word mem ~addr = v)

(* Words spread over 8 blocks, one discard: a word reads back zero exactly
   when its whole block lies inside the discarded range. *)
let prop_discard_matches_reference =
  QCheck.Test.make ~name:"discard zeroes exactly the whole blocks in range"
    QCheck.(pair (int_range 0 (8 * blk)) (int_range 0 (8 * blk)))
    (fun (off, len) ->
      let mem = Memory.create () in
      let addrs = List.init 64 (fun i -> base + (i * (blk / 8)) + 24) in
      List.iter (fun addr -> Memory.store_word mem ~addr ~value:addr) addrs;
      Memory.discard mem ~addr:(base + off) ~bytes:len;
      List.for_all
        (fun addr ->
          let b0 = addr land lnot (blk - 1) in
          let gone = b0 >= base + off && b0 + blk <= base + off + len in
          Memory.load_word mem ~addr = if gone then 0 else addr)
        addrs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_memset_matches_reference; prop_memcpy_matches_reference;
      prop_word_roundtrip; prop_discard_matches_reference ]

let () =
  Alcotest.run "mm_memsim"
    [
      ( "memory",
        [
          Alcotest.test_case "word roundtrip" `Quick test_roundtrip_word;
          Alcotest.test_case "byte roundtrip" `Quick test_roundtrip_bytes;
          Alcotest.test_case "unmaterialized zero" `Quick test_unmaterialized_reads_zero;
          Alcotest.test_case "adjacent words" `Quick test_adjacent_words_independent;
          Alcotest.test_case "memset" `Quick test_memset;
          Alcotest.test_case "memset cross-block" `Quick test_memset_cross_block;
          Alcotest.test_case "memcpy" `Quick test_memcpy;
          Alcotest.test_case "memcpy cold source" `Quick test_memcpy_unmaterialized_source;
          Alcotest.test_case "memcpy cold src clobbers" `Quick test_memcpy_cold_src_clobbers_dst;
          Alcotest.test_case "memcpy cold to cold" `Quick test_memcpy_cold_to_cold_stays_cold;
          Alcotest.test_case "memcpy into cold" `Quick test_memcpy_into_cold_materializes;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "discard whole blocks only" `Quick
            test_discard_whole_blocks_only;
          Alcotest.test_case "discard leaves no stale bytes" `Quick
            test_discard_no_stale_reads;
        ] );
      ( "events",
        [
          Alcotest.test_case "touch without backing" `Quick test_touch_emits_without_backing;
          Alcotest.test_case "observer records" `Quick test_observer_records;
          Alcotest.test_case "with_context restores" `Quick test_with_context_restores;
          Alcotest.test_case "with_context on raise" `Quick test_with_context_restores_on_raise;
          Alcotest.test_case "instr observer" `Quick test_instr_observer;
          Alcotest.test_case "code observer" `Quick test_code_observer;
          Alcotest.test_case "access count" `Quick test_access_count;
          Alcotest.test_case "zero allocation" `Quick test_touch_allocates_nothing;
          Alcotest.test_case "rng draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          Alcotest.test_case "process step allocation" `Quick
            test_process_step_allocation;
        ] );
      ( "os_layer",
        [
          Alcotest.test_case "mmap alignment" `Quick test_os_mmap_alignment_and_disjoint;
          Alcotest.test_case "claimed accounting" `Quick test_os_claimed_accounting;
          Alcotest.test_case "retire keeps shared block" `Quick
            test_os_retire_keeps_shared_block;
          Alcotest.test_case "syscall to kernel" `Quick test_os_syscall_charged_to_kernel;
        ] );
      ("properties", qcheck_cases);
    ]
