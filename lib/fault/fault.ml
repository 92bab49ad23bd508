module Rng = Mm_stats.Rng

type site = Store_read | Store_write | Store_torn

exception Injected of site

let all_sites = [ Store_read; Store_write; Store_torn ]

let site_index = function Store_read -> 0 | Store_write -> 1 | Store_torn -> 2

let site_name = function
  | Store_read -> "store-read"
  | Store_write -> "store-write"
  | Store_torn -> "store-torn"

let default_rate = function
  | Store_read -> 0.05
  | Store_write -> 0.05
  | Store_torn -> 0.03

(* A decision depends only on the seed and how often its (site, key) pair
   has been probed before, so the table of those counts is the plan's
   only evolving state; [lock] guards it and the fire counters. *)
type plan = {
  p_seed : int;
  rates : float array;
  lock : Mutex.t;
  probes : (site * string, int) Hashtbl.t;
  fired : int array;
}

let make_plan ?(rates = []) ~seed () =
  {
    p_seed = seed;
    rates =
      Array.of_list
        (List.map
           (fun s ->
             match List.assoc_opt s rates with
             | Some r -> Float.max 0.0 (Float.min 1.0 r)
             | None -> default_rate s)
           all_sites);
    lock = Mutex.create ();
    probes = Hashtbl.create 64;
    fired = Array.make (List.length all_sites) 0;
  }

(* Armed from the environment at module initialisation, before any
   domain can probe, so a disarmed probe is one atomic read. *)
let plan =
  Atomic.make
    (match Sys.getenv_opt "MM_FAULT_SEED" with
    | None -> None
    | Some s ->
      Option.map
        (fun seed -> make_plan ~seed ())
        (int_of_string_opt (String.trim s)))

let configure ?rates ~seed () = Atomic.set plan (Some (make_plan ?rates ~seed ()))

let disable () = Atomic.set plan None

let enabled () = Option.is_some (Atomic.get plan)

let seed () = Option.map (fun p -> p.p_seed) (Atomic.get plan)

let probe site ~key =
  match Atomic.get plan with
  | None -> None
  | Some p ->
    let i = site_index site in
    Mutex.lock p.lock;
    let n = Option.value (Hashtbl.find_opt p.probes (site, key)) ~default:0 in
    Hashtbl.replace p.probes (site, key) (n + 1);
    let u = Rng.float (Rng.create ~seed:(Hashtbl.hash (p.p_seed, site, key, n))) in
    let hit = u < p.rates.(i) in
    if hit then p.fired.(i) <- p.fired.(i) + 1;
    Mutex.unlock p.lock;
    (* Given a hit, u / rate is again uniform on [0, 1). *)
    if hit then Some (u /. p.rates.(i)) else None

let injected site =
  match Atomic.get plan with
  | None -> 0
  | Some p ->
    Mutex.lock p.lock;
    let n = p.fired.(site_index site) in
    Mutex.unlock p.lock;
    n

let counts () = List.map (fun s -> (s, injected s)) all_sites

let total_injected () =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (counts ())
