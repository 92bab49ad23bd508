type capabilities = {
  bulk_free : bool;
  per_object_free : bool;
  defragmentation : bool;
}

type stats = {
  mutable mallocs : int;
  mutable frees : int;
  mutable reallocs : int;
  mutable free_alls : int;
  mutable bytes_requested : int;
  mutable peak_consumption : int;
}

type 'heap constructor =
  os:Mm_memsim.Os_layer.t ->
  mem:Mm_memsim.Memory.t ->
  pid:int ->
  code_base:int ->
  unit ->
  'heap

module type S = sig
  type t

  val name : string

  val capabilities : capabilities

  val code_size : int

  val malloc : t -> size:int -> int

  val free : t -> addr:int -> unit

  val realloc : t -> addr:int -> size:int -> int

  val usable_size : t -> addr:int -> int

  val free_all : t -> unit

  val consumption : t -> int

  val live_objects : t -> int
end

type handle = {
  h_name : string;
  h_caps : capabilities;
  h_stats : stats;
  h_malloc : size:int -> int;
  h_free : addr:int -> unit;
  h_realloc : addr:int -> size:int -> int;
  h_usable_size : addr:int -> int;
  h_free_all : unit -> unit;
  h_consumption : unit -> int;
  h_live_objects : unit -> int;
  h_reset_peak : unit -> unit;
}

let make_stats () =
  {
    mallocs = 0;
    frees = 0;
    reallocs = 0;
    free_alls = 0;
    bytes_requested = 0;
    peak_consumption = 0;
  }

let pack (type a) (module A : S with type t = a) ~mem (heap : a) =
  let stats = make_stats () in
  let module Mem = Mm_memsim.Memory in
  (* Explicit save/switch/restore instead of [with_context f]: these
     wrappers run on every malloc/free, and a [fun () -> ...] thunk
     capturing the arguments would allocate per call. *)
  let[@inline] enter_mgmt () =
    let saved = Mem.context mem in
    Mem.set_context mem Mm_memsim.Access.Mgmt;
    saved
  in
  let note_consumption () =
    let c = A.consumption heap in
    if c > stats.peak_consumption then stats.peak_consumption <- c
  in
  let malloc ~size =
    let saved = enter_mgmt () in
    let addr =
      match A.malloc heap ~size with
      | a -> a
      | exception e ->
        Mem.set_context mem saved;
        raise e
    in
    Mem.set_context mem saved;
    stats.mallocs <- stats.mallocs + 1;
    stats.bytes_requested <- stats.bytes_requested + size;
    note_consumption ();
    addr
  in
  let free ~addr =
    let saved = enter_mgmt () in
    (match A.free heap ~addr with
    | () -> Mem.set_context mem saved
    | exception e ->
      Mem.set_context mem saved;
      raise e);
    stats.frees <- stats.frees + 1
  in
  let realloc ~addr ~size =
    let saved = enter_mgmt () in
    let addr' =
      match A.realloc heap ~addr ~size with
      | a -> a
      | exception e ->
        Mem.set_context mem saved;
        raise e
    in
    Mem.set_context mem saved;
    stats.reallocs <- stats.reallocs + 1;
    stats.bytes_requested <- stats.bytes_requested + size;
    note_consumption ();
    addr'
  in
  let usable_size ~addr =
    let saved = enter_mgmt () in
    match A.usable_size heap ~addr with
    | s ->
      Mem.set_context mem saved;
      s
    | exception e ->
      Mem.set_context mem saved;
      raise e
  in
  let free_all () =
    let saved = enter_mgmt () in
    (match A.free_all heap with
    | () -> Mem.set_context mem saved
    | exception e ->
      Mem.set_context mem saved;
      raise e);
    stats.free_alls <- stats.free_alls + 1
  in
  {
    h_name = A.name;
    h_caps = A.capabilities;
    h_stats = stats;
    h_malloc = malloc;
    h_free = free;
    h_realloc = realloc;
    h_usable_size = usable_size;
    h_free_all = free_all;
    h_consumption = (fun () -> A.consumption heap);
    h_live_objects = (fun () -> A.live_objects heap);
    h_reset_peak = (fun () -> stats.peak_consumption <- A.consumption heap);
  }
