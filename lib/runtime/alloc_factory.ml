type kind =
  | Dd of Core.Ddmalloc.config option
  | Region
  | Obstack
  | Php_default
  | Glibc
  | Hoard
  | Tcmalloc
  | Reaps

(* A kind's implementation: its module and its constructor. *)
type impl =
  | Impl :
      (module Core.Allocator.S with type t = 'a) * 'a Core.Allocator.constructor
      -> impl

module B = Mm_baselines

(* The one table from kind to implementation; everything else about a kind
   is read through it.  DDmalloc's constructor closes over its config. *)
let impl = function
  | Dd config -> Impl ((module Core.Ddmalloc), Core.Ddmalloc.create ?config)
  | Region -> Impl ((module B.Region_alloc), B.Region_alloc.create)
  | Obstack -> Impl ((module B.Obstack_alloc), B.Obstack_alloc.create)
  | Php_default -> Impl ((module B.Php_malloc), B.Php_malloc.create)
  | Glibc -> Impl ((module B.Dl_malloc), B.Dl_malloc.create)
  | Hoard -> Impl ((module B.Hoard_malloc), B.Hoard_malloc.create)
  | Tcmalloc -> Impl ((module B.Tc_malloc), B.Tc_malloc.create)
  | Reaps -> Impl ((module B.Reap_malloc), B.Reap_malloc.create)

(* The order is the code-slot order: a kind's slot is its position here. *)
let all_kinds =
  [ Dd None; Region; Obstack; Php_default; Glibc; Hoard; Tcmalloc; Reaps ]

(* Each family's slot and implementation, computed once: [impl] packs a
   module on every call, and a name is read for every store key. *)
let rows = List.mapi (fun slot k -> (k, (slot, impl k))) all_kinds

let row = function Dd _ -> List.assoc (Dd None) rows | k -> List.assoc k rows

let kind_name k = match row k with _, Impl ((module A), _) -> A.name

let capabilities k = match row k with _, Impl ((module A), _) -> A.capabilities

let code_size k = match row k with _, Impl ((module A), _) -> A.code_size

let of_name name =
  List.find_opt (fun k -> kind_name k = name) all_kinds

(* Synthetic code space layout: the application/interpreter text first,
   then one slot per allocator family, then kernel entry points.  All
   processes share these addresses, as shared text really is shared. *)
let app_code_base = Core.Code_model.code_space_base

let app_code_reserved = 4 * 1024 * 1024

let slot_bytes = 256 * 1024

let code_base kind =
  app_code_base + app_code_reserved + (fst (row kind) * slot_bytes)

let create kind ~os ~mem ~pid =
  match impl kind with
  | Impl (m, create) ->
    let heap = create ~os ~mem ~pid ~code_base:(code_base kind) () in
    Core.Allocator.pack m ~mem heap
