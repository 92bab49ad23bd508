(** The one table of the study's allocators.

    One match in this module maps a kind to its implementation: the
    allocator module (name, Table 1 capabilities, code size, operations)
    and its constructor.  Everything else about a kind — its name, its
    capabilities, its slot in the synthetic code space and its packed
    {!Core.Allocator.handle} — is derived from that match, so adding an
    allocator is one constructor, one row there and one entry in
    {!all_kinds}.  No other module names an allocator implementation.

    Each allocator family gets a fixed region of the synthetic code space
    (allocator code is shared library text, identical across processes). *)

type kind =
  | Dd of Core.Ddmalloc.config option  (** [None] = paper defaults *)
  | Region
  | Obstack
  | Php_default
  | Glibc
  | Hoard
  | Tcmalloc
  | Reaps

val kind_name : kind -> string
(** The allocator module's [name]. *)

val capabilities : kind -> Core.Allocator.capabilities
(** Table 1's row for this kind. *)

val code_size : kind -> int
(** Bytes of simulated allocator code. *)

val all_kinds : kind list
(** One of each family, default configs, in code-slot order. *)

val of_name : string -> kind option
(** Inverse of {!kind_name} for CLI use (Dd gets default config). *)

val code_base : kind -> int
(** Where this family's code lives in the synthetic code space: the slot
    after the application text given by the kind's position in
    {!all_kinds}. *)

val app_code_base : int
(** Interpreter + application code region. *)

val create :
  kind ->
  os:Mm_memsim.Os_layer.t ->
  mem:Mm_memsim.Memory.t ->
  pid:int ->
  Core.Allocator.handle
