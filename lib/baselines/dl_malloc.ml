include Boundary_heap.Make (struct
  let name = "glibc"

  let capabilities =
    {
      Core.Allocator.bulk_free = false;
      per_object_free = true;
      defragmentation = true;
    }

  let code_size = 20 * 1024

  let block_size = 1024 * 1024

  let use_unsorted = true
end)
