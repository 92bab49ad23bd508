type kind =
  | Dd of Core.Ddmalloc.config option
  | Region
  | Obstack
  | Php_default
  | Glibc
  | Hoard
  | Tcmalloc
  | Reaps

let kind_name = function
  | Dd _ -> "ddmalloc"
  | Region -> "region"
  | Obstack -> "obstack"
  | Php_default -> "php-default"
  | Glibc -> "glibc"
  | Hoard -> "hoard"
  | Tcmalloc -> "tcmalloc"
  | Reaps -> "reaps"

let all_kinds =
  [ Dd None; Region; Obstack; Php_default; Glibc; Hoard; Tcmalloc; Reaps ]

let of_name name =
  List.find_opt (fun k -> kind_name k = name) all_kinds

(* Synthetic code space layout: the application/interpreter text first,
   then one slot per allocator family, then kernel entry points.  All
   processes share these addresses, as shared text really is shared. *)
let app_code_base = Core.Code_model.code_space_base

let app_code_reserved = 4 * 1024 * 1024

let slot_bytes = 256 * 1024

let slot_index = function
  | Dd _ -> 0
  | Region -> 1
  | Obstack -> 2
  | Php_default -> 3
  | Glibc -> 4
  | Hoard -> 5
  | Tcmalloc -> 6
  | Reaps -> 7

let code_base kind =
  app_code_base + app_code_reserved + (slot_index kind * slot_bytes)

let create kind ~os ~mem ~pid =
  let code_base = code_base kind in
  match kind with
  | Dd config ->
    let heap =
      Core.Ddmalloc.create ?config ~os ~mem ~pid ~code_base ()
    in
    Core.Allocator.pack (module Core.Ddmalloc) ~mem heap
  | Region ->
    let heap = Mm_baselines.Region_alloc.create ~os ~mem ~pid ~code_base () in
    Core.Allocator.pack (module Mm_baselines.Region_alloc) ~mem heap
  | Obstack ->
    let heap = Mm_baselines.Obstack_alloc.create ~os ~mem ~pid ~code_base () in
    Core.Allocator.pack (module Mm_baselines.Obstack_alloc) ~mem heap
  | Php_default ->
    let heap = Mm_baselines.Php_malloc.create ~os ~mem ~pid ~code_base () in
    Core.Allocator.pack (module Mm_baselines.Php_malloc) ~mem heap
  | Glibc ->
    let heap = Mm_baselines.Dl_malloc.create ~os ~mem ~pid ~code_base () in
    Core.Allocator.pack (module Mm_baselines.Dl_malloc) ~mem heap
  | Hoard ->
    let heap = Mm_baselines.Hoard_malloc.create ~os ~mem ~pid ~code_base () in
    Core.Allocator.pack (module Mm_baselines.Hoard_malloc) ~mem heap
  | Tcmalloc ->
    let heap = Mm_baselines.Tc_malloc.create ~os ~mem ~pid ~code_base () in
    Core.Allocator.pack (module Mm_baselines.Tc_malloc) ~mem heap
  | Reaps ->
    let heap = Mm_baselines.Reap_malloc.create ~os ~mem ~pid ~code_base () in
    Core.Allocator.pack (module Mm_baselines.Reap_malloc) ~mem heap
