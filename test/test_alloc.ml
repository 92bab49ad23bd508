(* Cross-allocator test suite: every allocator of the study is exercised
   through the common interface, plus allocator-specific behaviours
   (coalescing, scavenging, superblock release). *)

module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer
module Factory = Mm_runtime.Alloc_factory
module A = Core.Allocator

let fresh kind =
  let mem = Memory.create () in
  let os = Os.create mem in
  let handle = Factory.create kind ~os ~mem ~pid:0 in
  (mem, os, handle)

let kinds_with_names = List.map (fun k -> (Factory.kind_name k, k)) Factory.all_kinds

(* --- generic per-allocator checks --- *)

let test_alignment kind () =
  let _, _, h = fresh kind in
  List.iter
    (fun size ->
      let addr = h.A.h_malloc ~size in
      Alcotest.(check int) (Printf.sprintf "aligned %d" size) 0 (addr mod 8))
    [ 1; 3; 8; 24; 100; 513; 5000 ]

let test_usable_covers_request kind () =
  let _, _, h = fresh kind in
  List.iter
    (fun size ->
      let addr = h.A.h_malloc ~size in
      let usable = h.A.h_usable_size ~addr in
      Alcotest.(check bool)
        (Printf.sprintf "usable %d >= %d" usable size)
        true (usable >= size))
    [ 1; 8; 100; 511; 4096; 100_000 ]

let test_write_read_back kind () =
  let mem, _, h = fresh kind in
  let a = h.A.h_malloc ~size:256 in
  for w = 0 to 31 do
    Memory.store_word mem ~addr:(a + (w * 8)) ~value:(w * 17)
  done;
  (* Unrelated churn. *)
  let b = h.A.h_malloc ~size:64 in
  if h.A.h_caps.A.per_object_free then h.A.h_free ~addr:b;
  ignore (h.A.h_malloc ~size:64);
  for w = 0 to 31 do
    Alcotest.(check int) "intact" (w * 17) (Memory.load_word mem ~addr:(a + (w * 8)))
  done

let test_realloc_preserves_prefix kind () =
  let mem, _, h = fresh kind in
  let a = h.A.h_malloc ~size:64 in
  for w = 0 to 7 do
    Memory.store_word mem ~addr:(a + (w * 8)) ~value:(1000 + w)
  done;
  let b = h.A.h_realloc ~addr:a ~size:512 in
  for w = 0 to 7 do
    Alcotest.(check int) "prefix" (1000 + w) (Memory.load_word mem ~addr:(b + (w * 8)))
  done

let test_stats_counting kind () =
  let _, _, h = fresh kind in
  let a = h.A.h_malloc ~size:10 in
  ignore (h.A.h_malloc ~size:20);
  if h.A.h_caps.A.per_object_free then h.A.h_free ~addr:a;
  Alcotest.(check int) "mallocs" 2 h.A.h_stats.A.mallocs;
  Alcotest.(check int) "bytes" 30 h.A.h_stats.A.bytes_requested;
  if h.A.h_caps.A.per_object_free then
    Alcotest.(check int) "frees" 1 h.A.h_stats.A.frees

let test_live_tracking kind () =
  let _, _, h = fresh kind in
  let a = h.A.h_malloc ~size:32 in
  ignore (h.A.h_malloc ~size:32);
  Alcotest.(check int) "two live" 2 (h.A.h_live_objects ());
  if h.A.h_caps.A.per_object_free then begin
    h.A.h_free ~addr:a;
    Alcotest.(check int) "one live" 1 (h.A.h_live_objects ())
  end

let test_unsupported_ops kind () =
  let _, _, h = fresh kind in
  if not h.A.h_caps.A.bulk_free then
    (try
       h.A.h_free_all ();
       Alcotest.fail "free_all should raise"
     with Invalid_argument _ -> ());
  if not h.A.h_caps.A.per_object_free then begin
    let a = h.A.h_malloc ~size:32 in
    try
      h.A.h_free ~addr:a;
      Alcotest.fail "free should raise"
    with Invalid_argument _ -> ()
  end

let test_consumption_positive kind () =
  let _, _, h = fresh kind in
  ignore (h.A.h_malloc ~size:1000);
  Alcotest.(check bool) "consumption > 0" true (h.A.h_consumption () > 0);
  Alcotest.(check bool) "peak >= current" true
    (h.A.h_stats.A.peak_consumption >= 0)

(* Random-program disjointness + integrity property, one per allocator. *)
let prop_integrity (name, kind) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: random program integrity" name)
    ~count:15
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Mm_stats.Rng.create ~seed in
      let mem, _, h = fresh kind in
      let live = ref [] in
      let ok = ref true in
      let fill addr size tag =
        for w = 0 to (size / 8) - 1 do
          Memory.store_word mem ~addr:(addr + (w * 8)) ~value:(tag + w)
        done
      in
      let verify (addr, size, tag) =
        let good = ref true in
        for w = 0 to (size / 8) - 1 do
          if Memory.load_word mem ~addr:(addr + (w * 8)) <> tag + w then
            good := false
        done;
        !good
      in
      for step = 1 to 200 do
        let action = Mm_stats.Rng.int rng ~bound:10 in
        if action < 6 || !live = [] then begin
          let size = 8 * Mm_stats.Rng.int_in rng ~lo:1 ~hi:64 in
          let addr = h.A.h_malloc ~size in
          let usable = h.A.h_usable_size ~addr in
          if usable < size then ok := false;
          List.iter
            (fun (a, s, _) ->
              if addr < a + s && a < addr + size then ok := false)
            !live;
          let tag = step * 4096 in
          fill addr size tag;
          live := (addr, size, tag) :: !live
        end
        else if action < 9 && h.A.h_caps.A.per_object_free then begin
          match !live with
          | victim :: rest ->
            if not (verify victim) then ok := false;
            let addr, _, _ = victim in
            h.A.h_free ~addr;
            live := rest
          | [] -> ()
        end
        else begin
          match !live with
          | (addr, size, tag) :: rest ->
            let nsize = 8 * Mm_stats.Rng.int_in rng ~lo:1 ~hi:100 in
            let naddr = h.A.h_realloc ~addr ~size:nsize in
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

(* --- allocator-specific behaviours --- *)

let test_region_streams_and_resets () =
  let _, _, h = fresh Factory.Region in
  let a = h.A.h_malloc ~size:100 in
  let b = h.A.h_malloc ~size:100 in
  (* Bump allocation: b directly after a (rounded to 8). *)
  Alcotest.(check int) "bump" (a + 104) b;
  let consumed = h.A.h_consumption () in
  Alcotest.(check int) "consumption = bumped bytes" 208 consumed;
  h.A.h_free_all ();
  Alcotest.(check int) "reset" 0 (h.A.h_consumption ());
  Alcotest.(check int) "reuses the chunk from the start" a (h.A.h_malloc ~size:100)

let test_boundary_coalescing () =
  (* php-default: free neighbours must coalesce so a larger object fits
     without claiming a new block. *)
  let mem = Memory.create () in
  let os = Os.create mem in
  let h = Factory.create Factory.Php_default ~os ~mem ~pid:0 in
  let a = h.A.h_malloc ~size:1000 in
  let b = h.A.h_malloc ~size:1000 in
  let c = h.A.h_malloc ~size:1000 in
  ignore c;
  let claimed_before = Os.total_claimed os in
  h.A.h_free ~addr:a;
  h.A.h_free ~addr:b;
  (* a and b coalesce: a 1900-byte object must fit in their place. *)
  let d = h.A.h_malloc ~size:1900 in
  Alcotest.(check int) "reused coalesced space" (a - 8) (d - 8);
  Alcotest.(check int) "no new block claimed" claimed_before
    (Os.total_claimed os)

let test_boundary_split_remainder_usable () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let h = Factory.create Factory.Php_default ~os ~mem ~pid:0 in
  let a = h.A.h_malloc ~size:4096 in
  h.A.h_free ~addr:a;
  (* Splitting the 4 KB free chunk: the remainder serves the next call. *)
  let b = h.A.h_malloc ~size:1024 in
  let c = h.A.h_malloc ~size:1024 in
  Alcotest.(check int) "split reuse (first)" a b;
  Alcotest.(check bool) "split reuse (second inside old chunk)" true
    (c > b && c < a + 4096 + 64)

let test_tcmalloc_scavenges () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Mm_baselines.Tc_malloc.create ~os ~mem ~pid:0
      ~code_base:(Factory.code_base Factory.Tcmalloc) ()
  in
  let addrs = ref [] in
  for _ = 1 to 400 do
    addrs := Mm_baselines.Tc_malloc.malloc heap ~size:64 :: !addrs
  done;
  List.iter (fun addr -> Mm_baselines.Tc_malloc.free heap ~addr) !addrs;
  Alcotest.(check bool) "scavenged at least once" true
    (Mm_baselines.Tc_malloc.scavenges heap >= 1)

let test_hoard_releases_empty_superblocks () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Mm_baselines.Hoard_malloc.create ~os ~mem ~pid:0
      ~code_base:(Factory.code_base Factory.Hoard) ()
  in
  let addrs = ref [] in
  for _ = 1 to 2000 do
    addrs := Mm_baselines.Hoard_malloc.malloc heap ~size:64 :: !addrs
  done;
  let at_peak = Mm_baselines.Hoard_malloc.superblocks_live heap in
  List.iter (fun addr -> Mm_baselines.Hoard_malloc.free heap ~addr) !addrs;
  let after = Mm_baselines.Hoard_malloc.superblocks_live heap in
  Alcotest.(check bool)
    (Printf.sprintf "released superblocks (%d -> %d)" at_peak after)
    true
    (after < at_peak / 4)

let test_obstack_chunks_grow_and_release () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Mm_baselines.Obstack_alloc.create ~os ~mem ~pid:0
      ~code_base:(Factory.code_base Factory.Obstack) ()
  in
  for _ = 1 to 100 do
    ignore (Mm_baselines.Obstack_alloc.malloc heap ~size:512)
  done;
  Alcotest.(check bool) "grew chunks" true
    (Mm_baselines.Obstack_alloc.chunks_live heap > 1);
  Mm_baselines.Obstack_alloc.free_all heap;
  Alcotest.(check int) "released back to one chunk" 1
    (Mm_baselines.Obstack_alloc.chunks_live heap)

let test_region_many_chunks () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Mm_baselines.Region_alloc.create ~os ~mem ~pid:0
      ~code_base:(Factory.code_base Factory.Region) ()
  in
  (* 16 objects of 16 MB fill one 256 MB chunk; the simulated heap is
     sparse, so mapping seven chunks costs no host memory. *)
  let big = 16 * 1024 * 1024 in
  for _ = 1 to 100 do
    ignore (Mm_baselines.Region_alloc.malloc heap ~size:big)
  done;
  Alcotest.(check bool) "multiple chunks mapped" true
    (Mm_baselines.Region_alloc.chunks_mapped heap >= 7);
  Mm_baselines.Region_alloc.free_all heap;
  (* freeAll keeps the chunks; they are reused in order. *)
  let mapped = Mm_baselines.Region_alloc.chunks_mapped heap in
  for _ = 1 to 100 do
    ignore (Mm_baselines.Region_alloc.malloc heap ~size:big)
  done;
  Alcotest.(check int) "chunks reused, none newly mapped" mapped
    (Mm_baselines.Region_alloc.chunks_mapped heap)

let test_glibc_unsorted_bin_recycles () =
  let mem = Memory.create () in
  let os = Os.create mem in
  let h = Factory.create Factory.Glibc ~os ~mem ~pid:0 in
  let a = h.A.h_malloc ~size:300 in
  h.A.h_free ~addr:a;
  (* The freed chunk sits in the unsorted bin; an exact-fit malloc takes
     it straight from there. *)
  Alcotest.(check int) "unsorted-bin exact fit" a (h.A.h_malloc ~size:300)

let test_mgmt_context_tagging () =
  (* Allocator metadata traffic must be tagged Mgmt, payload traffic App. *)
  let mem = Memory.create () in
  let os = Os.create mem in
  let h = Factory.create (Factory.Dd None) ~os ~mem ~pid:0 in
  let mgmt = ref 0 and app = ref 0 in
  Memory.set_access_observer mem (fun ctx _kind _addr _bytes ->
      match ctx with
      | Mm_memsim.Access.Mgmt -> incr mgmt
      | Mm_memsim.Access.App -> incr app
      | Mm_memsim.Access.Kernel -> ());
  Memory.set_context mem Mm_memsim.Access.App;
  let a = h.A.h_malloc ~size:64 in
  Alcotest.(check bool) "malloc produced mgmt accesses" true (!mgmt > 0);
  Alcotest.(check int) "no app accesses from malloc" 0 !app;
  Memory.touch mem ~kind:Mm_memsim.Access.Store ~addr:a ~bytes:64;
  Alcotest.(check int) "payload touch is app" 1 !app

(* --- assemble --- *)

let generic_suite =
  List.concat_map
    (fun (name, kind) ->
      [
        Alcotest.test_case (name ^ ": alignment") `Quick (test_alignment kind);
        Alcotest.test_case (name ^ ": usable size") `Quick
          (test_usable_covers_request kind);
        Alcotest.test_case (name ^ ": write/read back") `Quick
          (test_write_read_back kind);
        Alcotest.test_case (name ^ ": realloc prefix") `Quick
          (test_realloc_preserves_prefix kind);
        Alcotest.test_case (name ^ ": stats") `Quick (test_stats_counting kind);
        Alcotest.test_case (name ^ ": live tracking") `Quick
          (test_live_tracking kind);
        Alcotest.test_case (name ^ ": unsupported ops raise") `Quick
          (test_unsupported_ops kind);
        Alcotest.test_case (name ^ ": consumption") `Quick
          (test_consumption_positive kind);
      ])
    kinds_with_names

let bulk_free_suite =
  List.filter_map
    (fun (name, kind) ->
      let _, _, h = fresh kind in
      if h.A.h_caps.A.bulk_free then
        Some
          (Alcotest.test_case (name ^ ": freeAll") `Quick (fun () ->
               let _, _, h = fresh kind in
               for _ = 1 to 50 do
                 ignore (h.A.h_malloc ~size:100)
               done;
               h.A.h_free_all ();
               Alcotest.(check int) "empty" 0 (h.A.h_live_objects ());
               Alcotest.(check bool) "usable after" true
                 (h.A.h_malloc ~size:100 > 0)))
      else None)
    kinds_with_names

let qcheck_cases =
  List.map (fun k -> QCheck_alcotest.to_alcotest (prop_integrity k)) kinds_with_names

let () =
  Alcotest.run "allocators"
    [
      ("generic", generic_suite);
      ("bulk-free", bulk_free_suite);
      ( "specific",
        [
          Alcotest.test_case "region bump and reset" `Quick
            test_region_streams_and_resets;
          Alcotest.test_case "boundary coalescing" `Quick test_boundary_coalescing;
          Alcotest.test_case "boundary splitting" `Quick
            test_boundary_split_remainder_usable;
          Alcotest.test_case "tcmalloc scavenging" `Quick test_tcmalloc_scavenges;
          Alcotest.test_case "hoard releases superblocks" `Quick
            test_hoard_releases_empty_superblocks;
          Alcotest.test_case "obstack chunk lifecycle" `Quick
            test_obstack_chunks_grow_and_release;
          Alcotest.test_case "region chunk growth" `Quick test_region_many_chunks;
          Alcotest.test_case "glibc unsorted bin" `Quick
            test_glibc_unsorted_bin_recycles;
          Alcotest.test_case "context tagging" `Quick test_mgmt_context_tagging;
        ] );
      ("properties", qcheck_cases);
    ]
