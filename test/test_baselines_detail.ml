(* Boundary-condition tests for the baseline allocators' internals:
   bin geometry, size-class edges, header flags — the machinery the
   cross-allocator suite exercises only behaviourally. *)

module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer
module Factory = Mm_runtime.Alloc_factory
module A = Core.Allocator

let fresh kind =
  let mem = Memory.create () in
  let os = Os.create mem in
  (mem, os, Factory.create kind ~os ~mem ~pid:0)

(* --- boundary heap (php-default / glibc / reaps) --- *)

let test_header_overhead_constant () =
  Alcotest.(check int) "8-byte headers" 8 Mm_baselines.Boundary_heap.header_bytes

let test_min_allocation_distance () =
  (* Minimum chunk is 32 bytes: two 1-byte objects sit >= 32 apart. *)
  let _, _, h = fresh Factory.Php_default in
  let a = h.A.h_malloc ~size:1 in
  let b = h.A.h_malloc ~size:1 in
  Alcotest.(check bool) "min chunk spacing" true (abs (b - a) >= 32)

let test_small_requests_share_no_memory () =
  let _, _, h = fresh Factory.Php_default in
  let addrs = List.init 64 (fun i -> (h.A.h_malloc ~size:(8 * (i mod 8 + 1)), 8 * (i mod 8 + 1))) in
  List.iteri
    (fun i (a, sa) ->
      List.iteri
        (fun j (b, sb) ->
          if i < j && a < b + sb && b < a + sa then
            Alcotest.failf "overlap: 0x%x(%d) and 0x%x(%d)" a sa b sb)
        addrs)
    addrs

let test_large_request_dedicated_mapping () =
  let _, os, h = fresh Factory.Php_default in
  let before = Os.total_claimed os in
  let big = 300 * 1024 in
  let a = h.A.h_malloc ~size:big in
  Alcotest.(check bool) "claimed grew by at least the request" true
    (Os.total_claimed os >= before + big);
  Alcotest.(check bool) "usable covers" true (h.A.h_usable_size ~addr:a >= big);
  h.A.h_free ~addr:a;
  Alcotest.(check int) "dedicated mapping released" before (Os.total_claimed os)

let test_free_all_then_reuse_same_addresses () =
  let _, _, h = fresh Factory.Php_default in
  let first = List.init 20 (fun _ -> h.A.h_malloc ~size:100) in
  h.A.h_free_all ();
  let second = List.init 20 (fun _ -> h.A.h_malloc ~size:100) in
  (* The heap was rebuilt from the same blocks: same placement. *)
  Alcotest.(check (list int)) "identical layout after freeAll" first second

let test_glibc_blocks_grow_on_demand () =
  let _, os, h = fresh Factory.Glibc in
  let before = Os.claimed_bytes os ~owner:"glibc[0]" in
  (* Exhaust the first 1 MB block. *)
  for _ = 1 to 1200 do
    ignore (h.A.h_malloc ~size:1024)
  done;
  Alcotest.(check bool) "claimed more blocks" true
    (Os.claimed_bytes os ~owner:"glibc[0]" > before)

(* --- hoard --- *)

let test_hoard_same_class_same_superblock () =
  let _, _, h = fresh Factory.Hoard in
  let a = h.A.h_malloc ~size:64 in
  let b = h.A.h_malloc ~size:64 in
  Alcotest.(check int) "same superblock" (a / 8192) (b / 8192);
  let c = h.A.h_malloc ~size:1024 in
  Alcotest.(check bool) "different class, different superblock" true
    (c / 8192 <> a / 8192)

let test_hoard_pow2_usable () =
  let _, _, h = fresh Factory.Hoard in
  let a = h.A.h_malloc ~size:65 in
  Alcotest.(check int) "rounded to 128" 128 (h.A.h_usable_size ~addr:a)

(* --- tcmalloc --- *)

let test_tcmalloc_batch_refill () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Mm_baselines.Tc_malloc.create ~os ~mem ~pid:0
      ~code_base:(Factory.code_base Factory.Tcmalloc) ()
  in
  (* Consecutive small mallocs come from one carved span: consecutive
     addresses. *)
  let a = Mm_baselines.Tc_malloc.malloc heap ~size:64 in
  let b = Mm_baselines.Tc_malloc.malloc heap ~size:64 in
  Alcotest.(check int) "sequential within span" (a + 64) b

let test_tcmalloc_cache_then_central_roundtrip () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Mm_baselines.Tc_malloc.create ~os ~mem ~pid:0
      ~code_base:(Factory.code_base Factory.Tcmalloc) ()
  in
  (* 400 frees overflow the 256-object cache cap twice: 256 objects go
     back to central, and the second pass refills them from there. *)
  let n = 400 in
  let addrs = List.init n (fun _ -> Mm_baselines.Tc_malloc.malloc heap ~size:64) in
  List.iter (fun addr -> Mm_baselines.Tc_malloc.free heap ~addr) addrs;
  Alcotest.(check bool) "scavenged past the cache cap" true
    (Mm_baselines.Tc_malloc.scavenges heap >= 2);
  (* Everything is still allocatable after the cache<->central traffic. *)
  let again = List.init n (fun _ -> Mm_baselines.Tc_malloc.malloc heap ~size:64) in
  Alcotest.(check int) "same population recycled" n (List.length again);
  List.iter
    (fun a ->
      Alcotest.(check bool) "recycled from the original span" true
        (List.mem a addrs))
    again

(* --- region / obstack edges --- *)

let test_region_rounding () =
  let _, _, h = fresh Factory.Region in
  let a = h.A.h_malloc ~size:1 in
  let b = h.A.h_malloc ~size:1 in
  Alcotest.(check int) "1-byte requests take 8 bytes" 8 (b - a)

let test_obstack_huge_request_gets_own_chunk () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Mm_baselines.Obstack_alloc.create ~os ~mem ~pid:0
      ~code_base:(Factory.code_base Factory.Obstack) ()
  in
  let chunks_before = Mm_baselines.Obstack_alloc.chunks_live heap in
  ignore (Mm_baselines.Obstack_alloc.malloc heap ~size:100_000);
  Alcotest.(check int) "oversized chunk mapped" (chunks_before + 1)
    (Mm_baselines.Obstack_alloc.chunks_live heap)

(* --- code model --- *)

let test_code_bases_do_not_overlap_code_sizes () =
  let slots =
    List.map (fun k -> (Factory.code_base k, Factory.code_size k)) Factory.all_kinds
  in
  List.iteri
    (fun i (a, sa) ->
      List.iteri
        (fun j (b, sb) ->
          if i < j && a < b + sb && b < a + sa then
            Alcotest.fail "allocator code regions overlap")
        slots)
    slots

let () =
  Alcotest.run "baselines_detail"
    [
      ( "boundary_heap",
        [
          Alcotest.test_case "header constant" `Quick test_header_overhead_constant;
          Alcotest.test_case "min chunk spacing" `Quick test_min_allocation_distance;
          Alcotest.test_case "no sharing" `Quick test_small_requests_share_no_memory;
          Alcotest.test_case "large mapping" `Quick test_large_request_dedicated_mapping;
          Alcotest.test_case "freeAll layout reset" `Quick
            test_free_all_then_reuse_same_addresses;
          Alcotest.test_case "glibc growth" `Quick test_glibc_blocks_grow_on_demand;
        ] );
      ( "hoard",
        [
          Alcotest.test_case "superblock placement" `Quick
            test_hoard_same_class_same_superblock;
          Alcotest.test_case "pow2 usable" `Quick test_hoard_pow2_usable;
        ] );
      ( "tcmalloc",
        [
          Alcotest.test_case "batch refill" `Quick test_tcmalloc_batch_refill;
          Alcotest.test_case "cache/central roundtrip" `Quick
            test_tcmalloc_cache_then_central_roundtrip;
        ] );
      ( "region_obstack",
        [
          Alcotest.test_case "region rounding" `Quick test_region_rounding;
          Alcotest.test_case "obstack oversized chunk" `Quick
            test_obstack_huge_request_gets_own_chunk;
        ] );
      ( "code_model",
        [
          Alcotest.test_case "code regions disjoint" `Quick
            test_code_bases_do_not_overlap_code_sizes;
        ] );
    ]
