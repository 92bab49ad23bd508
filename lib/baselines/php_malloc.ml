include Boundary_heap.Make (struct
  let name = "php-default"

  let capabilities =
    {
      Core.Allocator.bulk_free = true;
      per_object_free = true;
      defragmentation = true;
    }

  (* Zend MM is a substantial piece of code; its instruction-cache
     footprint is part of what Figure 8 shows DDmalloc avoiding. *)
  let code_size = 16 * 1024

  let block_size = 256 * 1024

  let use_unsorted = false
end)
