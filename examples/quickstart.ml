(* Quickstart: drive DDmalloc directly through the public API.

   Builds a simulated memory, creates a DDmalloc heap on it, allocates and
   frees a handful of objects, fills one that spans many pages, bulk-frees
   at a "transaction end", and prints what happened.  Run with:
   dune exec examples/quickstart.exe  (dune runtest checks its output
   against quickstart.expected). *)

module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer

let () =
  (* A heap needs a simulated memory and an OS layer to mmap from. *)
  let mem = Memory.create () in
  let os = Os.create mem in
  let heap =
    Core.Ddmalloc.create ~os ~mem ~pid:0
      ~code_base:Core.Code_model.code_space_base ()
  in
  (* Allocate a few objects of assorted sizes. *)
  let sizes = [ 24; 64; 200; 4096; 100_000 ] in
  let objs =
    List.map
      (fun size ->
        let addr = Core.Ddmalloc.malloc heap ~size in
        Printf.printf "malloc %6d B -> 0x%x (usable %d B)\n" size addr
          (Core.Ddmalloc.usable_size heap ~addr);
        addr)
      sizes
  in
  Printf.printf "live objects: %d, segments in use: %d, consumption: %s\n"
    (Core.Ddmalloc.live_objects heap)
    (Core.Ddmalloc.segments_in_use heap)
    (Mm_stats.Table.fmt_bytes (Core.Ddmalloc.consumption heap));

  (* Store and read back through the simulated memory: the heap is real
     addressable storage, not a token. *)
  let addr0 = List.hd objs in
  Memory.store_word mem ~addr:addr0 ~value:0xdeadbeef;
  assert (Memory.load_word mem ~addr:addr0 = 0xdeadbeef);

  (* Host memory follows the bytes written, one 4 KiB page at a time:
     filling the 100 KB object backs the pages it spans, and each byte
     reads back on both sides of every page boundary inside it. *)
  let big = List.nth objs 4 in
  let before = Memory.backed_bytes mem in
  Memory.memset mem ~addr:big ~bytes:100_000 ~value:0x5a;
  Printf.printf "filling the 100000-B object backs %d more pages of %d B\n"
    ((Memory.backed_bytes mem - before) / Memory.page_size)
    Memory.page_size;
  let page_start = ref (big + Memory.page_size - (big mod Memory.page_size)) in
  while !page_start < big + 100_000 do
    assert (Memory.load8 mem ~addr:(!page_start - 1) = 0x5a);
    assert (Memory.load8 mem ~addr:!page_start = 0x5a);
    page_start := !page_start + Memory.page_size
  done;

  (* Free one object per-object; its memory is reused LIFO. *)
  Core.Ddmalloc.free heap ~addr:addr0;
  let again = Core.Ddmalloc.malloc heap ~size:24 in
  Printf.printf "freed 0x%x, next 24-B malloc returns 0x%x (reused: %b)\n"
    addr0 again (again = addr0);

  (* End of transaction: freeAll clears only the metadata. *)
  Core.Ddmalloc.free_all heap;
  Printf.printf "after freeAll: live=%d, consumption=%s\n"
    (Core.Ddmalloc.live_objects heap)
    (Mm_stats.Table.fmt_bytes (Core.Ddmalloc.consumption heap));

  (* The same heap, through the allocator-agnostic handle interface the
     runtime uses (with statistics). *)
  let handle = Core.Allocator.pack (module Core.Ddmalloc) ~mem heap in
  for _ = 1 to 1000 do
    let a = handle.Core.Allocator.h_malloc ~size:48 in
    handle.Core.Allocator.h_free ~addr:a
  done;
  let stats = handle.Core.Allocator.h_stats in
  Printf.printf "via handle: %d mallocs, %d frees, %d bytes requested\n"
    stats.Core.Allocator.mallocs stats.Core.Allocator.frees
    stats.Core.Allocator.bytes_requested;
  print_endline "quickstart OK"
