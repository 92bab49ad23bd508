(** Uniform construction of every allocator in the study.

    Assigns each allocator family a fixed region of the synthetic code
    space (allocator code is shared library text, identical across
    processes) and builds packed {!Core.Allocator.handle}s the engine can
    drive without knowing the concrete module. *)

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

val all_kinds : kind list
(** One of each family, default configs. *)

val of_name : string -> kind option
(** Inverse of {!kind_name} for CLI use (Dd gets default config). *)

val code_base : kind -> int
(** Where this family's code lives in the synthetic code space. *)

val app_code_base : int
(** Interpreter + application code region. *)

val create :
  kind ->
  os:Mm_memsim.Os_layer.t ->
  mem:Mm_memsim.Memory.t ->
  pid:int ->
  Core.Allocator.handle
