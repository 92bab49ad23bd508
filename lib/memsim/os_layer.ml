type region = {
  base : int;
  bytes : int;
}

(* One interned cell per owner label: the hot per-malloc consumption read
   is a field load, not a string hash, and a retire drops the owner's
   ranges without scanning anyone else's. *)
type owner = {
  mutable claimed : int;
  mutable regions : region list;  (* mapped and not unmapped or retired *)
}

type t = {
  mem : Memory.t;
  mutable next : int;
  owners : (string, owner) Hashtbl.t;
}

let syscall_instructions = 800

(* Heap address space starts at 4 GB; below that live simulated stacks and
   globals, above 1 TB lives the synthetic code space used by the I-cache
   model. *)
let heap_base = 1 lsl 32

let small_page = 4096

let create mem = { mem; next = heap_base; owners = Hashtbl.create 16 }

let owner t ~name ~pid =
  let label = Printf.sprintf "%s[%d]" name pid in
  match Hashtbl.find_opt t.owners label with
  | Some o -> o
  | None ->
    let o = { claimed = 0; regions = [] } in
    Hashtbl.add t.owners label o;
    o

let round_up v align = (v + align - 1) land lnot (align - 1)

let charge_syscall t =
  Memory.with_context t.mem Access.Kernel (fun () ->
      Memory.instr t.mem syscall_instructions)

let mmap t ~owner ~bytes ~align =
  assert (bytes > 0);
  assert (align > 0 && align land (align - 1) = 0);
  charge_syscall t;
  let base = round_up t.next align in
  t.next <- base + round_up bytes small_page;
  owner.regions <- { base; bytes } :: owner.regions;
  owner.claimed <- owner.claimed + bytes;
  base

let munmap t ~owner ~addr ~bytes =
  charge_syscall t;
  owner.regions <-
    List.filter (fun r -> not (r.base = addr && r.bytes = bytes)) owner.regions;
  owner.claimed <- owner.claimed - bytes

(* Addresses only grow, so a retired range is never handed out again and
   dropping its backing cannot change a simulated byte.  The extent [mmap]
   reserved is page-rounded and page-aligned, so it covers whole pages
   that no other owner can hold.  [claimed] is left alone: consumption is
   byte accounting, not host memory. *)
let retire t owner =
  List.iter
    (fun r -> Memory.discard t.mem ~addr:r.base ~bytes:(round_up r.bytes small_page))
    owner.regions;
  owner.regions <- []

let claimed owner = owner.claimed

let claimed_bytes t ~owner =
  match Hashtbl.find_opt t.owners owner with
  | Some o -> o.claimed
  | None -> 0

let total_claimed t = Hashtbl.fold (fun _ o acc -> acc + o.claimed) t.owners 0
