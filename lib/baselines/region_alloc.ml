module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer

type config = {
  chunk_size : int;
  large_pages : bool;
}

let config ?(chunk_size = 256 * 1024 * 1024) ?(large_pages = false) () =
  assert (chunk_size >= 64 * 1024);
  { chunk_size; large_pages }

let default_config = config ()

let name = "region"

let capabilities =
  {
    Core.Allocator.bulk_free = true;
    per_object_free = false;
    defragmentation = false;
  }

(* A bump allocator is a few dozen instructions of code. *)
let code_size = 768

type t = {
  mem : Memory.t;
  os : Os.t;
  cfg : config;
  owner : Os.owner;
  code_base : int;
  state : int;  (* address of the allocator's own state words *)
  mutable chunks : int array;  (* chunk base addresses, in mapping order *)
  mutable current : int;  (* index into [chunks] *)
  mutable bump : int;
  mutable limit : int;
  mutable bumped_since_free_all : int;
  mutable live : int;
  sizes : (int, int) Hashtbl.t;  (* untraced size oracle, see .mli *)
}

let map_chunk t =
  let base = Os.mmap t.os ~owner:t.owner ~bytes:t.cfg.chunk_size ~align:4096 in
  t.chunks <- Array.append t.chunks [| base |];
  base

let create ?(config = default_config) ~os ~mem ~pid ~code_base () =
  let owner = Os.owner os ~name ~pid in
  let state = Os.mmap os ~owner ~bytes:64 ~align:64 in
  let t =
    {
      mem;
      os;
      cfg = config;
      owner;
      code_base;
      state;
      chunks = [||];
      current = 0;
      bump = 0;
      limit = 0;
      bumped_since_free_all = 0;
      live = 0;
      sizes = Hashtbl.create 1024;
    }
  in
  let base = map_chunk t in
  t.bump <- base;
  t.limit <- base + config.chunk_size;
  t

let round8 n = (n + 7) land lnot 7

(* The bump pointer and limit live in one allocator-state cache line; a real
   implementation loads and stores them on every call, so we emit those two
   accesses (they are almost always L1 hits, which is the point). *)
let touch_state t =
  Memory.touch t.mem ~kind:Mm_memsim.Access.Load ~addr:t.state ~bytes:8;
  Memory.touch t.mem ~kind:Mm_memsim.Access.Store ~addr:t.state ~bytes:8

let malloc t ~size =
  assert (size > 0);
  let n = round8 size in
  Memory.instr t.mem 3;
  Core.Code_model.touch_path t.mem ~base:t.code_base ~offset:0 ~lines:1;
  touch_state t;
  if t.bump + n > t.limit then begin
    (* Chunk exhausted: advance to the next chunk, mapping it on first use.
       The paper notes this was rare enough to be negligible. *)
    Memory.instr t.mem 40;
    let next = t.current + 1 in
    let base =
      if next < Array.length t.chunks then t.chunks.(next) else map_chunk t
    in
    t.current <- next;
    t.bump <- base;
    t.limit <- base + t.cfg.chunk_size
  end;
  let addr = t.bump in
  t.bump <- addr + n;
  t.bumped_since_free_all <- t.bumped_since_free_all + n;
  t.live <- t.live + 1;
  Hashtbl.replace t.sizes addr n;
  addr

let free _t ~addr:_ =
  invalid_arg "region allocator does not support per-object free"

let usable_size t ~addr =
  match Hashtbl.find_opt t.sizes addr with
  | Some n -> n
  | None -> invalid_arg "region usable_size: unknown object"

let realloc t ~addr ~size =
  let old = usable_size t ~addr in
  Memory.instr t.mem 8;
  let naddr = malloc t ~size in
  let bytes = Int.min old (round8 size) in
  Memory.memcpy t.mem ~dst:naddr ~src:addr ~bytes;
  Memory.instr t.mem (8 + (bytes / 8));
  naddr

let free_all t =
  Memory.instr t.mem 20;
  Core.Code_model.touch_path t.mem ~base:t.code_base ~offset:256 ~lines:1;
  touch_state t;
  t.current <- 0;
  t.bump <- t.chunks.(0);
  t.limit <- t.chunks.(0) + t.cfg.chunk_size;
  t.bumped_since_free_all <- 0;
  t.live <- 0;
  Hashtbl.reset t.sizes

(* Figure 9's definition for the region allocator: the total amount of
   memory allocated during a transaction. *)
let consumption t = t.bumped_since_free_all

let live_objects t = t.live

let chunks_mapped t = Array.length t.chunks
