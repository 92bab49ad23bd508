include Boundary_heap.Make (struct
  let name = "reaps"

  let capabilities =
    {
      Core.Allocator.bulk_free = true;
      per_object_free = true;
      defragmentation = true;
    }

  let code_size = 24 * 1024

  let block_size = 1024 * 1024

  let use_unsorted = false
end)
