module Memory = Mm_memsim.Memory
module Os = Mm_memsim.Os_layer

let name = "obstack"

let capabilities =
  {
    Core.Allocator.bulk_free = true;
    per_object_free = false;
    defragmentation = false;
  }

let code_size = 1024

(* obstack's default chunk size. *)
let chunk_size = 4096

(* Chunk layout: [next-chunk pointer (8 B) | limit (8 B) | payload...]. *)
let chunk_header = 16

type t = {
  mem : Memory.t;
  os : Os.t;
  owner : Os.owner;
  code_base : int;
  mutable head_chunk : int;  (* most recent chunk base; 0 if none *)
  mutable bump : int;
  mutable limit : int;
  mutable chunks : int;
  mutable live : int;
  sizes : (int, int) Hashtbl.t;
}

let round8 n = (n + 7) land lnot 7

let new_chunk t ~payload_bytes =
  let bytes = Stdlib.max chunk_size (payload_bytes + chunk_header) in
  let base = Os.mmap t.os ~owner:t.owner ~bytes ~align:64 in
  (* Chain the new chunk in front and record its limit in its header. *)
  Memory.store_word t.mem ~addr:base ~value:t.head_chunk;
  Memory.store_word t.mem ~addr:(base + 8) ~value:(base + bytes);
  t.head_chunk <- base;
  t.bump <- base + chunk_header;
  t.limit <- base + bytes;
  t.chunks <- t.chunks + 1

let create ~os ~mem ~pid ~code_base () =
  let t =
    {
      mem;
      os;
      owner = Os.owner os ~name ~pid;
      code_base;
      head_chunk = 0;
      bump = 0;
      limit = 0;
      chunks = 0;
      live = 0;
      sizes = Hashtbl.create 256;
    }
  in
  new_chunk t ~payload_bytes:0;
  t

let malloc t ~size =
  assert (size > 0);
  let n = round8 size in
  Memory.instr t.mem 7;
  Core.Code_model.touch_path t.mem ~base:t.code_base ~offset:0 ~lines:1;
  if t.bump + n > t.limit then begin
    Memory.instr t.mem 60;
    Core.Code_model.touch_path t.mem ~base:t.code_base ~offset:128 ~lines:3;
    new_chunk t ~payload_bytes:n
  end;
  let addr = t.bump in
  t.bump <- addr + n;
  t.live <- t.live + 1;
  Hashtbl.replace t.sizes addr n;
  addr

let free _t ~addr:_ = invalid_arg "obstack does not support per-object free"

let usable_size t ~addr =
  match Hashtbl.find_opt t.sizes addr with
  | Some n -> n
  | None -> invalid_arg "obstack usable_size: unknown object"

let realloc t ~addr ~size =
  let old = usable_size t ~addr in
  Memory.instr t.mem 8;
  let naddr = malloc t ~size in
  let bytes = Int.min old (round8 size) in
  Memory.memcpy t.mem ~dst:naddr ~src:addr ~bytes;
  Memory.instr t.mem (8 + (bytes / 8));
  naddr

let free_all t =
  (* obstack_free(&ob, NULL): walk the chunk chain, unmapping every chunk
     but the first.  Each hop loads the chunk's header. *)
  Core.Code_model.touch_path t.mem ~base:t.code_base ~offset:512 ~lines:2;
  let rec release chunk =
    if chunk <> 0 then begin
      Memory.instr t.mem 20;
      let next = Memory.load_word t.mem ~addr:chunk in
      let limit = Memory.load_word t.mem ~addr:(chunk + 8) in
      if next <> 0 then
        (* Keep the oldest chunk (next = 0) as the obstack's base chunk. *)
        Os.munmap t.os ~owner:t.owner ~addr:chunk ~bytes:(limit - chunk)
      else begin
        t.head_chunk <- chunk;
        t.bump <- chunk + chunk_header;
        t.limit <- limit
      end;
      release next
    end
  in
  let chain = t.head_chunk in
  t.chunks <- 1;
  t.live <- 0;
  Hashtbl.reset t.sizes;
  release chain

let consumption t = Os.claimed t.owner

let live_objects t = t.live

let chunks_live t = t.chunks
