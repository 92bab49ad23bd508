(* Explore the memory-hierarchy simulator directly.

   Issues three access patterns against a Xeon-like hierarchy — a
   sequential stream (a region allocator's bump allocation), a reuse loop
   (DDmalloc's LIFO recycling), and random pointer chasing — and prints
   the event profile of each.  Shows the stream prefetcher converting the
   sequential pattern's L2 misses into prefetch traffic, exactly the
   effect behind the paper's Figure 8.

   Run with:  dune exec examples/cache_explorer.exe *)

module Memory = Mm_memsim.Memory
module CS = Mm_cachesim.Cache_system
module Ev = Mm_cachesim.Events
module M = Mm_cachesim.Machine
module Table = Mm_stats.Table

let touches = 200_000

let base = 1 lsl 32

let run_pattern machine label pattern =
  let mem = Memory.create () in
  let cs = CS.create ~machine ~active_cores:8 ~large_page_heap:false in
  CS.attach cs mem;
  Memory.set_context mem Mm_memsim.Access.App;
  pattern mem;
  let ev = CS.events cs 0 in
  let g c = float_of_int (Ev.total ev c) /. float_of_int touches in
  [
    label;
    Printf.sprintf "%.4f" (g Ev.L1d_miss);
    Printf.sprintf "%.4f" (g Ev.L2_miss);
    Printf.sprintf "%.4f" (g Ev.Bus_prefetch);
    Printf.sprintf "%.4f" (g Ev.Dtlb_miss);
    Printf.sprintf "%.4f"
      (g Ev.Bus_fill +. g Ev.Bus_writeback +. g Ev.Bus_prefetch);
  ]

let sequential mem =
  (* One long bump-allocation stream: every line is fresh. *)
  for i = 0 to touches - 1 do
    Memory.touch mem ~kind:Mm_memsim.Access.Store ~addr:(base + (i * 64))
      ~bytes:8
  done

let reuse mem =
  (* LIFO recycling: a small hot set reused over and over. *)
  let hot_lines = 256 in
  for i = 0 to touches - 1 do
    let line = i mod hot_lines in
    Memory.touch mem ~kind:Mm_memsim.Access.Store ~addr:(base + (line * 64))
      ~bytes:8
  done

let random_chase mem =
  (* Pointer chasing over 64 MB: defeats both caches and the prefetcher. *)
  let rng = Mm_stats.Rng.create ~seed:7 in
  let span = 64 * 1024 * 1024 / 64 in
  for _ = 0 to touches - 1 do
    let line = Mm_stats.Rng.int rng ~bound:span in
    Memory.touch mem ~kind:Mm_memsim.Access.Load ~addr:(base + (line * 64))
      ~bytes:8
  done

let () =
  List.iter
    (fun machine ->
      let t =
        Table.create
          ~title:
            (Printf.sprintf "Access patterns on the %s hierarchy (events per access)"
               machine.M.name)
          ~columns:
            [
              ("pattern", Table.Left);
              ("L1D miss", Table.Right);
              ("L2 miss", Table.Right);
              ("prefetch fill", Table.Right);
              ("D-TLB miss", Table.Right);
              ("bus txns", Table.Right);
            ]
      in
      Table.add_row t (run_pattern machine "sequential stream (region)" sequential);
      Table.add_row t (run_pattern machine "hot-set reuse (DDmalloc)" reuse);
      Table.add_row t (run_pattern machine "random chase (worst case)" random_chase);
      Table.print t)
    [ M.xeon; M.niagara ];
  print_endline
    "On Xeon the sequential stream's L2 misses become prefetch fills: the\n\
     latency is hidden but the bus transactions remain - cheap on one\n\
     core, expensive on eight."
