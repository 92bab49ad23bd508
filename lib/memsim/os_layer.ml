type region = {
  base : int;
  bytes : int;
  large_pages : bool;
}

type t = {
  mem : Memory.t;
  mutable next : int;
  mutable regions : region list;
  owners : (string, int) Hashtbl.t;
}

let syscall_instructions = 800

(* Heap address space starts at 4 GB; below that live simulated stacks and
   globals, above 1 TB lives the synthetic code space used by the I-cache
   model. *)
let heap_base = 1 lsl 32

let small_page = 4096

let large_page = 2 * 1024 * 1024

let create mem = { mem; next = heap_base; regions = []; owners = Hashtbl.create 16 }

let round_up v align = (v + align - 1) land lnot (align - 1)

let charge_syscall t =
  Memory.with_context t.mem Access.Kernel (fun () ->
      Memory.instr t.mem syscall_instructions)

let add_owner t owner delta =
  let current = Option.value ~default:0 (Hashtbl.find_opt t.owners owner) in
  Hashtbl.replace t.owners owner (current + delta)

let mmap t ~owner ~bytes ~align ~large_pages =
  assert (bytes > 0);
  assert (align > 0 && align land (align - 1) = 0);
  charge_syscall t;
  let base = round_up t.next align in
  t.next <- base + round_up bytes small_page;
  t.regions <- { base; bytes; large_pages } :: t.regions;
  add_owner t owner bytes;
  base

let munmap t ~owner ~addr ~bytes =
  charge_syscall t;
  t.regions <-
    List.filter (fun r -> not (r.base = addr && r.bytes = bytes)) t.regions;
  add_owner t owner (-bytes)

let page_size_of t ~addr =
  let covered r = addr >= r.base && addr < r.base + r.bytes in
  match List.find_opt covered t.regions with
  | Some r when r.large_pages -> large_page
  | Some _ | None -> small_page

(* Read after every malloc (peak-consumption tracking), so it avoids the
   option [find_opt] would allocate. *)
let claimed_bytes t ~owner =
  match Hashtbl.find t.owners owner with
  | v -> v
  | exception Not_found -> 0

let total_claimed t = Hashtbl.fold (fun _ v acc -> acc + v) t.owners 0
