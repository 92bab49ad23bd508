(* Tests for the core library: size classes and DDmalloc itself. *)

module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer
module SC = Core.Size_class
module Dd = Core.Ddmalloc

let fresh_heap ?config () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Dd.create ?config ~os ~mem ~pid:0
      ~code_base:Core.Code_model.code_space_base ()
  in
  (mem, heap)

(* --- size classes --- *)

let paper = SC.paper ~max_size:16384

let test_paper_rules () =
  (* §3.2: x8 below 128 B, x32 below 512 B, powers of two above. *)
  let cases =
    [
      (1, 8); (8, 8); (9, 16); (24, 24); (120, 120); (121, 128); (128, 128);
      (129, 160); (200, 224); (480, 480); (481, 512); (512, 512); (513, 1024);
      (1025, 2048); (10_000, 16384); (16384, 16384);
    ]
  in
  List.iter
    (fun (size, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "size %d" size)
        expected
        (SC.size_of_index paper (SC.index_of_size paper size)))
    cases

let test_paper_class_count () =
  (* 16 x8 classes + 12 x32 classes + 5 power-of-two classes. *)
  Alcotest.(check int) "class count" 33 (SC.class_count paper)

let test_scheme_monotone () =
  let sizes = SC.class_sizes paper in
  Array.iteri
    (fun i s -> if i > 0 then Alcotest.(check bool) "ascending" true (s > sizes.(i - 1)))
    sizes

let test_overhead () =
  Alcotest.(check int) "overhead of 9" 7 (SC.overhead paper 9);
  Alcotest.(check int) "overhead exact" 0 (SC.overhead paper 128)

let test_pow2_scheme () =
  let s = SC.power_of_two ~max_size:4096 in
  Alcotest.(check int) "100 -> 128" 128 (SC.size_of_index s (SC.index_of_size s 100));
  Alcotest.(check int) "max" 4096 (SC.max_size s)

let test_fine_scheme () =
  let s = SC.fine ~max_size:16384 in
  Alcotest.(check int) "200 -> 200" 200 (SC.size_of_index s (SC.index_of_size s 200))

let prop_class_covers_size =
  QCheck.Test.make ~name:"class size covers request, previous class does not"
    QCheck.(int_range 1 16384)
    (fun size ->
      List.for_all
        (fun scheme ->
          let i = SC.index_of_size scheme size in
          let cls = SC.size_of_index scheme i in
          cls >= size && (i = 0 || SC.size_of_index scheme (i - 1) < size))
        [ paper; SC.fine ~max_size:16384; SC.power_of_two ~max_size:16384 ])

(* --- DDmalloc --- *)

let test_alignment () =
  let _, heap = fresh_heap () in
  List.iter
    (fun size ->
      let addr = Dd.malloc heap ~size in
      Alcotest.(check int) (Printf.sprintf "8-aligned (%d B)" size) 0 (addr mod 8))
    [ 1; 7; 8; 13; 100; 1000; 20_000; 100_000 ]

let test_usable_size () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:100 in
  (* 100 B rounds to the 104-byte class (x8 below 128 B). *)
  Alcotest.(check int) "small usable = class size" 104 (Dd.usable_size heap ~addr:a);
  let b = Dd.malloc heap ~size:40_000 in
  Alcotest.(check int) "large usable = segments" (2 * 32768)
    (Dd.usable_size heap ~addr:b)

let test_lifo_reuse () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:64 in
  let b = Dd.malloc heap ~size:64 in
  Dd.free heap ~addr:a;
  Dd.free heap ~addr:b;
  (* LIFO: most recently freed first. *)
  Alcotest.(check int) "b first" b (Dd.malloc heap ~size:64);
  Alcotest.(check int) "a second" a (Dd.malloc heap ~size:64)

let test_fifo_reuse () =
  let _, heap = fresh_heap ~config:(Dd.config ~reuse:Dd.Fifo ()) () in
  let a = Dd.malloc heap ~size:64 in
  let b = Dd.malloc heap ~size:64 in
  let c = Dd.malloc heap ~size:64 in
  Dd.free heap ~addr:a;
  Dd.free heap ~addr:b;
  Dd.free heap ~addr:c;
  Alcotest.(check int) "a first" a (Dd.malloc heap ~size:64);
  Alcotest.(check int) "b second" b (Dd.malloc heap ~size:64);
  Alcotest.(check int) "c third" c (Dd.malloc heap ~size:64)

let test_addr_ordered_reuse () =
  let _, heap = fresh_heap ~config:(Dd.config ~reuse:Dd.Addr_ordered ()) () in
  let a = Dd.malloc heap ~size:64 in
  let b = Dd.malloc heap ~size:64 in
  let c = Dd.malloc heap ~size:64 in
  (* Free out of order; pops must come back lowest-address-first. *)
  Dd.free heap ~addr:b;
  Dd.free heap ~addr:a;
  Dd.free heap ~addr:c;
  Alcotest.(check int) "lowest first" a (Dd.malloc heap ~size:64);
  Alcotest.(check int) "then middle" b (Dd.malloc heap ~size:64);
  Alcotest.(check int) "then highest" c (Dd.malloc heap ~size:64)

let test_carving_is_sequential () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:64 in
  let b = Dd.malloc heap ~size:64 in
  let c = Dd.malloc heap ~size:64 in
  Alcotest.(check int) "b follows a" (a + 64) b;
  Alcotest.(check int) "c follows b" (b + 64) c

let test_classes_use_separate_segments () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:64 in
  let b = Dd.malloc heap ~size:128 in
  Alcotest.(check bool) "different segments" true
    (a / 32768 <> b / 32768)

let test_live_objects () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:32 in
  let _b = Dd.malloc heap ~size:32 in
  Alcotest.(check int) "two live" 2 (Dd.live_objects heap);
  Dd.free heap ~addr:a;
  Alcotest.(check int) "one live" 1 (Dd.live_objects heap)

let test_free_all_resets () =
  let _, heap = fresh_heap () in
  for _ = 1 to 100 do
    ignore (Dd.malloc heap ~size:200)
  done;
  let before = Dd.consumption heap in
  Dd.free_all heap;
  Alcotest.(check int) "no live objects" 0 (Dd.live_objects heap);
  Alcotest.(check int) "no segments in use" 0 (Dd.segments_in_use heap);
  Alcotest.(check bool) "consumption dropped" true
    (Dd.consumption heap < before);
  (* The heap is back to its initial state: carving restarts at the arena
     base. *)
  let a = Dd.malloc heap ~size:200 in
  Alcotest.(check int) "carves from the first segment again"
    (Dd.arena_base heap) a

let test_content_preserved () =
  let mem, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:64 in
  Memory.store_word mem ~addr:a ~value:424242;
  Memory.store_word mem ~addr:(a + 56) ~value:777;
  (* Other allocator activity must not touch a live object. *)
  let b = Dd.malloc heap ~size:64 in
  Dd.free heap ~addr:b;
  ignore (Dd.malloc heap ~size:64);
  Alcotest.(check int) "first word intact" 424242 (Memory.load_word mem ~addr:a);
  Alcotest.(check int) "last word intact" 777 (Memory.load_word mem ~addr:(a + 56))

let test_realloc_same_class_in_place () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:100 in
  (* 100 and 104 share the 104-byte class. *)
  Alcotest.(check int) "in place" a (Dd.realloc heap ~addr:a ~size:104)

let test_realloc_grow_copies () =
  let mem, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:64 in
  Memory.store_word mem ~addr:a ~value:99;
  Memory.store_word mem ~addr:(a + 56) ~value:100;
  let b = Dd.realloc heap ~addr:a ~size:1000 in
  Alcotest.(check bool) "moved" true (a <> b);
  Alcotest.(check int) "prefix preserved (word 0)" 99 (Memory.load_word mem ~addr:b);
  Alcotest.(check int) "prefix preserved (word 7)" 100
    (Memory.load_word mem ~addr:(b + 56));
  Alcotest.(check int) "old object freed" 1 (Dd.live_objects heap)

let test_realloc_shrink () =
  let mem, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:1024 in
  Memory.store_word mem ~addr:a ~value:31415;
  let b = Dd.realloc heap ~addr:a ~size:16 in
  Alcotest.(check int) "prefix preserved" 31415 (Memory.load_word mem ~addr:b)

let test_large_objects () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:100_000 in
  Alcotest.(check int) "segment-aligned" 0 ((a - Dd.arena_base heap) mod 32768);
  Alcotest.(check int) "4 segments" (4 * 32768) (Dd.usable_size heap ~addr:a);
  let used_before = Dd.segments_in_use heap in
  Dd.free heap ~addr:a;
  Alcotest.(check int) "segments released" (used_before - 4)
    (Dd.segments_in_use heap)

let test_large_segment_reuse_after_wraparound () =
  (* Tiny arena: exhaust it with large objects, free them, allocate again —
     the class-byte scan must find the released run. *)
  let _, heap = fresh_heap ~config:(Dd.config ~arena_size:(16 * 32768) ()) () in
  let objs = List.init 8 (fun _ -> Dd.malloc heap ~size:60_000) in
  List.iter (fun addr -> Dd.free heap ~addr) objs;
  (* The bump pointer is exhausted (14 of 16 segments); this allocation
     must recycle freed segments. *)
  let a = Dd.malloc heap ~size:60_000 in
  Alcotest.(check bool) "recycled" true (a >= Dd.arena_base heap);
  Alcotest.(check int) "two segments" (2 * 32768) (Dd.usable_size heap ~addr:a)

let test_arena_exhaustion_raises () =
  let _, heap = fresh_heap ~config:(Dd.config ~arena_size:(4 * 32768) ()) () in
  Alcotest.check_raises "exhaustion"
    (Invalid_argument "ddmalloc: arena exhausted (4 segments)") (fun () ->
      for _ = 1 to 5 do
        ignore (Dd.malloc heap ~size:30_000)
      done)

let test_free_all_after_large_objects () =
  let _, heap = fresh_heap () in
  let a = Dd.malloc heap ~size:100_000 in
  ignore (Dd.malloc heap ~size:64);
  Dd.free heap ~addr:a;
  Dd.free_all heap;
  (* Large-object bookkeeping must fully reset: the next large allocation
     carves cleanly from the arena base again. *)
  let b = Dd.malloc heap ~size:100_000 in
  Alcotest.(check int) "from the base" (Dd.arena_base heap) b;
  Alcotest.(check int) "four segments in use" 4 (Dd.segments_in_use heap)

let test_malloc_one_byte_links_ok () =
  (* Minimum-size objects must still hold free-list links when dead. *)
  let _, heap = fresh_heap () in
  let objs = List.init 50 (fun _ -> Dd.malloc heap ~size:1) in
  List.iter (fun addr -> Dd.free heap ~addr) objs;
  let back = List.init 50 (fun _ -> Dd.malloc heap ~size:1) in
  let sorted_a = List.sort compare objs and sorted_b = List.sort compare back in
  Alcotest.(check (list int)) "same 8-byte cells recycled" sorted_a sorted_b

let test_consumption_accounting () =
  let _, heap = fresh_heap () in
  let meta = Dd.metadata_bytes heap in
  Alcotest.(check int) "initially metadata only" meta (Dd.consumption heap);
  ignore (Dd.malloc heap ~size:64);
  Alcotest.(check int) "one segment + metadata" (32768 + meta)
    (Dd.consumption heap)

let test_capabilities () =
  Alcotest.(check bool) "bulk free" true Dd.capabilities.Core.Allocator.bulk_free;
  Alcotest.(check bool) "per-object free" true
    Dd.capabilities.Core.Allocator.per_object_free;
  Alcotest.(check bool) "no defragmentation" false
    Dd.capabilities.Core.Allocator.defragmentation

let test_metadata_stagger_distinct () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let cfg = Dd.config ~pid_metadata_offset:true () in
  let mk pid =
    Dd.create ~config:cfg ~os ~mem ~pid
      ~code_base:Core.Code_model.code_space_base ()
  in
  let h1 = mk 1 and h2 = mk 2 in
  (* Both heaps work; the staggering must not corrupt either. *)
  let a = Dd.malloc h1 ~size:64 and b = Dd.malloc h2 ~size:64 in
  Dd.free h1 ~addr:a;
  Dd.free h2 ~addr:b;
  Alcotest.(check int) "h1 reuses its own" a (Dd.malloc h1 ~size:64);
  Alcotest.(check int) "h2 reuses its own" b (Dd.malloc h2 ~size:64)

(* Property: a random malloc/free/realloc program keeps live objects
   disjoint and their contents intact. *)
let prop_integrity =
  QCheck.Test.make ~name:"ddmalloc: random program keeps live objects intact"
    ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Mm_stats.Rng.create ~seed in
      let mem, heap = fresh_heap () in
      let live = ref [] in
      let fill addr size tag =
        let words = size / 8 in
        for w = 0 to words - 1 do
          Memory.store_word mem ~addr:(addr + (w * 8)) ~value:(tag + w)
        done
      in
      let verify (addr, size, tag) =
        let words = size / 8 in
        let ok = ref true in
        for w = 0 to words - 1 do
          if Memory.load_word mem ~addr:(addr + (w * 8)) <> tag + w then
            ok := false
        done;
        !ok
      in
      let ok = ref true in
      for step = 1 to 300 do
        let action = Mm_stats.Rng.int rng ~bound:10 in
        if action < 5 || !live = [] then begin
          let size = 8 * Mm_stats.Rng.int_in rng ~lo:1 ~hi:40 in
          let addr = Dd.malloc heap ~size in
          (* Live objects must never overlap. *)
          List.iter
            (fun (a, s, _) ->
              if addr < a + s && a < addr + size then ok := false)
            !live;
          let tag = step * 1000 in
          fill addr size tag;
          live := (addr, size, tag) :: !live
        end
        else if action < 8 then begin
          match !live with
          | (addr, _, _) :: rest ->
            Dd.free heap ~addr;
            live := rest
          | [] -> ()
        end
        else begin
          match !live with
          | (addr, size, tag) :: rest ->
            if not (verify (addr, size, tag)) then ok := false;
            let nsize = 8 * Mm_stats.Rng.int_in rng ~lo:1 ~hi:80 in
            let naddr = Dd.realloc heap ~addr ~size:nsize in
            (* The preserved prefix keeps its contents. *)
            let keep = Stdlib.min size nsize in
            for w = 0 to (keep / 8) - 1 do
              if Memory.load_word mem ~addr:(naddr + (w * 8)) <> tag + w then
                ok := false
            done;
            fill naddr nsize tag;
            live := (naddr, nsize, tag) :: rest
          | [] -> ()
        end
      done;
      List.iter (fun o -> if not (verify o) then ok := false) !live;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_class_covers_size; prop_integrity ]

let () =
  Alcotest.run "core"
    [
      ( "size_class",
        [
          Alcotest.test_case "paper rules" `Quick test_paper_rules;
          Alcotest.test_case "class count" `Quick test_paper_class_count;
          Alcotest.test_case "monotone" `Quick test_scheme_monotone;
          Alcotest.test_case "overhead" `Quick test_overhead;
          Alcotest.test_case "pow2 scheme" `Quick test_pow2_scheme;
          Alcotest.test_case "fine scheme" `Quick test_fine_scheme;
        ] );
      ( "ddmalloc",
        [
          Alcotest.test_case "alignment" `Quick test_alignment;
          Alcotest.test_case "usable size" `Quick test_usable_size;
          Alcotest.test_case "LIFO reuse" `Quick test_lifo_reuse;
          Alcotest.test_case "FIFO reuse" `Quick test_fifo_reuse;
          Alcotest.test_case "address-ordered reuse" `Quick test_addr_ordered_reuse;
          Alcotest.test_case "sequential carving" `Quick test_carving_is_sequential;
          Alcotest.test_case "segments per class" `Quick test_classes_use_separate_segments;
          Alcotest.test_case "live objects" `Quick test_live_objects;
          Alcotest.test_case "freeAll resets" `Quick test_free_all_resets;
          Alcotest.test_case "content preserved" `Quick test_content_preserved;
          Alcotest.test_case "realloc in place" `Quick test_realloc_same_class_in_place;
          Alcotest.test_case "realloc grow copies" `Quick test_realloc_grow_copies;
          Alcotest.test_case "realloc shrink" `Quick test_realloc_shrink;
          Alcotest.test_case "large objects" `Quick test_large_objects;
          Alcotest.test_case "large reuse after wraparound" `Quick
            test_large_segment_reuse_after_wraparound;
          Alcotest.test_case "arena exhaustion" `Quick test_arena_exhaustion_raises;
          Alcotest.test_case "freeAll after large objects" `Quick
            test_free_all_after_large_objects;
          Alcotest.test_case "1-byte objects recycle" `Quick
            test_malloc_one_byte_links_ok;
          Alcotest.test_case "consumption accounting" `Quick test_consumption_accounting;
          Alcotest.test_case "capabilities" `Quick test_capabilities;
          Alcotest.test_case "metadata stagger" `Quick test_metadata_stagger_distinct;
        ] );
      ("properties", qcheck_cases);
    ]
