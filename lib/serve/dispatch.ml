type policy =
  | Round_robin
  | Least_loaded
  | Affinity

let all = [ Round_robin; Least_loaded; Affinity ]

let name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Affinity -> "affinity"

let of_name n = List.find_opt (fun p -> name p = n) all

type t = {
  policy : policy;
  cores : int;
  mutable cursor : int;
}

let create policy ~cores =
  if cores < 1 then invalid_arg "Dispatch.create: cores must be >= 1";
  { policy; cores; cursor = 0 }

let pick t ~(loads : int array) ~flow =
  (* Checked once here, so the scan below can read [loads] unchecked. *)
  if Array.length loads < t.cores then
    invalid_arg "Dispatch.pick: loads shorter than the core count";
  match t.policy with
  | Round_robin ->
    let c = t.cursor in
    t.cursor <- (c + 1) mod t.cores;
    c
  | Least_loaded ->
    let best = ref 0 in
    let least = ref (Array.unsafe_get loads 0) in
    for i = 1 to t.cores - 1 do
      let l = Array.unsafe_get loads i in
      if l < !least then begin
        best := i;
        least := l
      end
    done;
    !best
  | Affinity -> flow mod t.cores
