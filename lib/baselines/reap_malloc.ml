type config = {
  block_size : int;
} [@@unboxed]

let config ?(block_size = 1024 * 1024) () =
  { block_size }

let default_config = config ()

let name = "reaps"

let capabilities =
  {
    Core.Allocator.bulk_free = true;
    per_object_free = true;
    defragmentation = true;
  }

let code_size = 24 * 1024

type t = Boundary_heap.t

let create ?(config = default_config) ~os ~mem ~pid ~code_base () =
  Boundary_heap.create
    {
      Boundary_heap.block_size = config.block_size;
      use_unsorted = false;
      owner = name;
    }
    ~os ~mem ~pid ~code_base

let malloc = Boundary_heap.malloc

let free = Boundary_heap.free

let realloc = Boundary_heap.realloc

let usable_size = Boundary_heap.usable_size

let free_all = Boundary_heap.free_all

let consumption = Boundary_heap.consumption

let live_objects = Boundary_heap.live_objects
