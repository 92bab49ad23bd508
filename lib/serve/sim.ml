module Rng = Mm_stats.Rng
module Histogram = Mm_stats.Histogram

type config = {
  cores : int;
  arrival : Arrival.kind;
  dispatch : Dispatch.policy;
  rate : float;
  requests : int;
  warmup_frac : float;
  seed : int;
}

type outcome = {
  o_config : config;
  o_policy : Policy.t;
  hist : Histogram.t;
  measured : int;
  achieved_rps : float;
  utilization : float;
  saturated : bool;
  max_outstanding : int;
  attempts : int;
  completions : int;
  ok : int;
  timeouts : int;
  sheds : int;
  give_ups : int;
  goodput_rps : float;
  retry_amplification : float;
}

let validate cfg ~service =
  if cfg.cores < 1 then invalid_arg "Sim.run: cores must be >= 1";
  if cfg.requests < 1 then invalid_arg "Sim.run: requests must be >= 1";
  if not (cfg.rate > 0.0 && Float.is_finite cfg.rate) then
    invalid_arg "Sim.run: rate must be positive and finite";
  if cfg.warmup_frac < 0.0 || cfg.warmup_frac >= 1.0 then
    invalid_arg "Sim.run: warmup_frac must be in [0, 1)";
  if Array.length service < cfg.cores then
    invalid_arg "Sim.run: service table shorter than the core count";
  Array.iter
    (fun s ->
      if not (s > 0.0 && Float.is_finite s) then
        invalid_arg "Sim.run: service times must be positive")
    service

(* One attempt = one request as the front-end sees it.  A client request
   (an "original") is a chain of attempts: the original arrival plus any
   retries its policy spawns after sheds or timeouts.  Attempts are int
   ids: original [i] is id [i] and reads its arrival, multiplier and flow
   from the drawn traffic; retries take ids from [requests] up. *)

(* Attempt states, one byte per id.  A [late] attempt is in service but
   its client has timed out: the core finishes it and the work is wasted.
   An [abandoned] attempt timed out while it waited. *)
let queued = '\000'

let serving = '\001'

let late = '\002'

let finished = '\003'

let abandoned = '\004'

(* Per-attempt columns.  Every id has a state byte; a retry's original,
   try number (1 = first retry) and arrival time sit at [id - requests].
   The retry columns start small and double as retries are created. *)
type attempts = {
  mutable state : Bytes.t;
  mutable r_orig : int array;
  mutable r_try : int array;
  mutable r_arrival : float array;
  mutable retries : int;  (** retries created so far *)
}

let double arr fill = Array.append arr (Array.make (Array.length arr) fill)

let grow_retries a =
  a.state <- Bytes.extend a.state 0 (Array.length a.r_orig);
  a.r_orig <- double a.r_orig 0;
  a.r_try <- double a.r_try 0;
  a.r_arrival <- double a.r_arrival 0.0

(* Binary min-heap of retry ids on (time, push sequence).  Retries need
   one because their jittered backoff is not monotone in push order. *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable ids : int array;
    mutable len : int;
  }

  let create () =
    { times = Array.make 16 0.0; seqs = Array.make 16 0; ids = Array.make 16 0; len = 0 }

  let[@inline] before (t : float) (s : int) t' s' = t < t' || (t = t' && s < s')

  let move h ~src ~dst =
    h.times.(dst) <- h.times.(src);
    h.seqs.(dst) <- h.seqs.(src);
    h.ids.(dst) <- h.ids.(src)

  let grow h =
    h.times <- double h.times 0.0;
    h.seqs <- double h.seqs 0;
    h.ids <- double h.ids 0

  (* Inlined so the caller's [time] stays unboxed: a call would box it,
     two words per retry. *)
  let[@inline] push h time seq id =
    if h.len = Array.length h.times then grow h;
    (* Sift a hole up from the end, then fill it. *)
    let i = ref h.len in
    while !i > 0 && before time seq h.times.((!i - 1) / 2) h.seqs.((!i - 1) / 2) do
      move h ~src:((!i - 1) / 2) ~dst:!i;
      i := (!i - 1) / 2
    done;
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.ids.(!i) <- id;
    h.len <- h.len + 1

  (* [infinity] when empty, so the caller needs no option. *)
  let[@inline] min_time h = if h.len = 0 then infinity else h.times.(0)

  let min_seq h = h.seqs.(0)

  let pop h =
    let top = h.ids.(0) in
    h.len <- h.len - 1;
    let last = h.len in
    let time = h.times.(last) and seq = h.seqs.(last) in
    (* Sift a hole down from the root for the former last element. *)
    let i = ref 0 in
    let sifting = ref (last > 0) in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < last && before h.times.(r) h.seqs.(r) h.times.(l) h.seqs.(l)
          then r
          else l
        in
        if before h.times.(c) h.seqs.(c) time seq then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    if last > 0 then move h ~src:last ~dst:!i;
    top
end

(* Ring buffers with power-of-two capacity, grown on demand. *)
let unroll arr ~head fill =
  let cap = Array.length arr in
  let bigger = Array.make (2 * cap) fill in
  Array.blit arr head bigger 0 (cap - head);
  Array.blit arr 0 bigger (cap - head) head;
  bigger

(* A core's run queue: a FIFO ring of attempt ids. *)
module Ring = struct
  type t = {
    mutable ids : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { ids = Array.make 16 0; head = 0; len = 0 }

  let push r id =
    if r.len = Array.length r.ids then begin
      r.ids <- unroll r.ids ~head:r.head 0;
      r.head <- 0
    end;
    r.ids.((r.head + r.len) land (Array.length r.ids - 1)) <- id;
    r.len <- r.len + 1

  let pop r =
    let id = r.ids.(r.head) in
    r.head <- (r.head + 1) land (Array.length r.ids - 1);
    r.len <- r.len - 1;
    id
end

(* FIFO of pending timeouts.  A timeout fires at [now + deadline] with
   [now] nondecreasing and the deadline fixed, so timeouts come due in
   push order and the head is always the earliest. *)
module Fifo = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable ids : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () =
    { times = Array.make 16 0.0; seqs = Array.make 16 0; ids = Array.make 16 0;
      head = 0; len = 0 }

  let grow q =
    q.times <- unroll q.times ~head:q.head 0.0;
    q.seqs <- unroll q.seqs ~head:q.head 0;
    q.ids <- unroll q.ids ~head:q.head 0;
    q.head <- 0

  (* Inlined so the caller's [time] stays unboxed: a call would box it,
     two words per admitted attempt. *)
  let[@inline] push q time seq id =
    if q.len = Array.length q.times then grow q;
    let i = (q.head + q.len) land (Array.length q.times - 1) in
    q.times.(i) <- time;
    q.seqs.(i) <- seq;
    q.ids.(i) <- id;
    q.len <- q.len + 1

  (* [infinity] when empty, so the caller needs no option. *)
  let[@inline] head_time q = if q.len = 0 then infinity else q.times.(q.head)

  let head_seq q = q.seqs.(q.head)

  let pop q =
    let id = q.ids.(q.head) in
    q.head <- (q.head + 1) land (Array.length q.times - 1);
    q.len <- q.len - 1;
    id
end

(* The simulation clock, the times of the next departure and the next
   original, and the float accumulators.  An all-float record is stored
   flat, so setting a field allocates nothing, and the event handlers
   read the time of the event from [now] instead of taking it as a
   (boxed) argument. *)
type clock = {
  mutable now : float;  (** time of the event being handled *)
  mutable dep_t : float;  (** earliest completion time; [infinity] when all idle *)
  mutable next_arrival : float;  (** next original's arrival; [infinity] after the last *)
  mutable busy_seconds : float;
  mutable last_completion : float;
}

(* A run's randomness apart from the retry jitter.  It depends on the
   seed, the request count, the arrival kind and the core count, not on
   the rate, so a sweep draws it once and replays it at every rate. *)
type traffic = {
  unit_arrivals : float array;  (** unit-rate arrival times of the originals *)
  mult : float array;  (** service multiplier per original *)
  flow : int array;  (** flow id per original *)
  root : Rng.t;  (** the seed's root stream after the three splits *)
}

(* All randomness up front, one split stream per purpose, so the event
   loop is pure bookkeeping and a sweep's streams do not interleave
   differently as the rate changes.  The retry stream is the root's
   fourth split, taken afresh by every run: with [Policy.none] it is
   never drawn and the first three streams are bit-identical to the
   pre-policy simulator's. *)
let draw cfg =
  let root = Rng.create ~seed:cfg.seed in
  let arr_rng = Rng.split root in
  let svc_rng = Rng.split root in
  let flow_rng = Rng.split root in
  let n = cfg.requests in
  {
    unit_arrivals = Arrival.unit_times cfg.arrival arr_rng n;
    mult = Array.init n (fun _ -> Rng.exponential svc_rng ~mean:1.0);
    flow = Array.init n (fun _ -> Rng.int flow_rng ~bound:(8 * cfg.cores));
    root;
  }

(* One run of [traffic] at [cfg.rate]. *)
let simulate policy cfg ~service traffic =
  let n = cfg.requests in
  let cores = cfg.cores in
  let rate = cfg.rate in
  let levels = Array.length service in
  let unit_arrivals = traffic.unit_arrivals in
  let mult = traffic.mult in
  let flow = traffic.flow in
  let retry_rng = Rng.split (Rng.copy traffic.root) in
  let warmup = int_of_float (cfg.warmup_frac *. float_of_int n) in
  let ids =
    { state = Bytes.make (n + 16) queued; r_orig = Array.make 16 0;
      r_try = Array.make 16 0; r_arrival = Array.make 16 0.0; retries = 0 }
  in
  let orig id = if id < n then id else ids.r_orig.(id - n) in

  (* Per core: the run queue, the attempt in service ([-1] when idle),
     its completion time ([infinity] when idle) and its load, queued +
     in service.  Abandoned attempts count towards the load until the
     core discards them.  The next departure is [dep_core], completing
     at [clock.dep_t]: the earliest completion, ties to the lowest core
     index.  Starting a service can only lower it, so [start_service]
     updates it in constant time; only a departure rescans the cores. *)
  let queues = Array.init cores (fun _ -> Ring.create ()) in
  let busy = Array.make cores (-1) in
  let busy_done = Array.make cores infinity in
  let loads = Array.make cores 0 in
  let busy_count = ref 0 in
  let dep_core = ref 0 in
  let dispatcher = Dispatch.create cfg.dispatch ~cores in

  let hist = Histogram.create () in
  let measured = ref 0 in
  let outstanding = ref 0 in
  let max_outstanding = ref 0 in
  let attempts = ref 0 in
  let completions = ref 0 in
  let ok = ref 0 in
  let timeouts = ref 0 in
  let sheds = ref 0 in
  let give_ups = ref 0 in
  let clock =
    { now = 0.0; dep_t = infinity; next_arrival = unit_arrivals.(0) /. rate;
      busy_seconds = 0.0; last_completion = 0.0 }
  in

  (* An original is resolved by its successful completion or by
     exhausting its retries; the run ends when every original is resolved
     and the servers have drained the leftover (zombie) work.  Its
     attempts form a chain, and only a shed or timed-out attempt spawns
     the next, so exactly one attempt per original resolves it. *)
  let resolved = ref 0 in

  (* Three sources of timed events besides departures, each yielding its
     earliest first:
     - originals, read in id order from the drawn arrivals; original [i]
       carries sequence [i], and [clock.next_arrival] holds the arrival
       time of original [next_orig];
     - timeouts, in [timeouts_due];
     - retries, in [retries].
     On equal times the lower sequence goes first, which keeps the event
     order — and therefore the run — a pure function of the
     configuration.  Timeouts and retries draw sequences from [n] up in
     push order, so on a time tie an original goes before either. *)
  let next_orig = ref 0 in
  let timeouts_due = Fifo.create () in
  let retries = Heap.create () in
  let seq = ref n in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in

  let retry_or_give_up id =
    let tries = if id < n then 0 else ids.r_try.(id - n) in
    if tries < policy.Policy.max_retries then begin
      (* Capped exponential backoff for retry k = tries + 1: base,
         2*base, 4*base, ... up to cap, scaled by a deterministic jitter
         draw from [1 - jitter, 1]. *)
      let b =
        Float.min policy.Policy.backoff_cap
          (policy.Policy.backoff_base *. (2.0 ** float_of_int tries))
      in
      let j = policy.Policy.jitter in
      let b = if j <= 0.0 then b else b *. (1.0 -. j +. (j *. Rng.float retry_rng)) in
      let t = clock.now +. b in
      if ids.retries = Array.length ids.r_orig then grow_retries ids;
      let k = ids.retries in
      ids.retries <- k + 1;
      ids.r_orig.(k) <- orig id;
      ids.r_try.(k) <- tries + 1;
      ids.r_arrival.(k) <- t;
      Bytes.set ids.state (n + k) queued;
      Heap.push retries t (next_seq ()) (n + k)
    end
    else begin
      incr give_ups;
      incr resolved
    end
  in

  let start_service core id =
    incr busy_count;
    let k = Int.min !busy_count levels in
    let dur = service.(k - 1) *. mult.(orig id) in
    let finish = clock.now +. dur in
    Bytes.set ids.state id serving;
    busy.(core) <- id;
    busy_done.(core) <- finish;
    if finish < clock.dep_t || (finish = clock.dep_t && core < !dep_core) then begin
      clock.dep_t <- finish;
      dep_core := core
    end;
    clock.busy_seconds <- clock.busy_seconds +. dur
  in

  let handle_arrival id =
    incr attempts;
    let core = Dispatch.pick dispatcher ~loads ~flow:flow.(orig id) in
    let admitted =
      match policy.Policy.admission with
      | Policy.Always -> true
      | Policy.Queue_limit l -> loads.(core) < l
      | Policy.Deadline_aware -> (
        match policy.Policy.deadline with
        | None -> true
        | Some d ->
          (* Predicted wait from the chosen core's backlog at current
             contention; pessimistic admission sheds work that would
             only time out in the queue. *)
          let k = Int.min (!busy_count + 1) levels in
          float_of_int loads.(core) *. service.(k - 1) <= d)
    in
    if not admitted then begin
      incr sheds;
      retry_or_give_up id
    end
    else begin
      incr outstanding;
      if !outstanding > !max_outstanding then max_outstanding := !outstanding;
      (match policy.Policy.deadline with
      | Some d -> Fifo.push timeouts_due (clock.now +. d) (next_seq ()) id
      | None -> ());
      loads.(core) <- loads.(core) + 1;
      if busy.(core) < 0 then start_service core id
      else Ring.push queues.(core) id
    end
  in

  let handle_timeout id =
    let s = Bytes.get ids.state id in
    if s = queued then begin
      (* Client walks away; the slot is discarded when the core reaches
         it, so the abandoned request wastes queue space but no CPU. *)
      Bytes.set ids.state id abandoned;
      incr timeouts;
      retry_or_give_up id
    end
    else if s = serving then begin
      (* Too late to shed: the server finishes the request anyway and
         the work is wasted — the essence of metastable overload. *)
      Bytes.set ids.state id late;
      incr timeouts;
      retry_or_give_up id
    end
  in

  let handle_departure core =
    let id = busy.(core) in
    let timely = Bytes.get ids.state id = serving in
    Bytes.set ids.state id finished;
    incr completions;
    decr outstanding;
    clock.last_completion <- clock.now;
    busy.(core) <- -1;
    busy_done.(core) <- infinity;
    loads.(core) <- loads.(core) - 1;
    decr busy_count;
    if timely then begin
      incr ok;
      incr resolved;
      if orig id >= warmup then begin
        let arrival = if id < n then unit_arrivals.(id) /. rate else ids.r_arrival.(id - n) in
        Histogram.add hist (Float.max 0.0 (clock.now -. arrival));
        incr measured
      end
    end;
    (* Start the next live attempt, discarding ones abandoned by their
       timeout while they waited. *)
    let q = queues.(core) in
    let started = ref false in
    while (not !started) && q.Ring.len > 0 do
      let next = Ring.pop q in
      if Bytes.get ids.state next = abandoned then begin
        loads.(core) <- loads.(core) - 1;
        decr outstanding
      end
      else begin
        start_service core next;
        started := true
      end
    done;
    (* The departed core's completion time rose, so the next departure
       may now be any core's: rescan, idle cores at [infinity]. *)
    let d = ref 0 in
    for c = 1 to cores - 1 do
      if busy_done.(c) < busy_done.(!d) then d := c
    done;
    dep_core := !d;
    clock.dep_t <- busy_done.(!d)
  in

  while !resolved < n || !busy_count > 0 do
    let dep_t = clock.dep_t in
    let orig_t = clock.next_arrival in
    let timeout_t = Fifo.head_time timeouts_due in
    let retry_t = Heap.min_time retries in
    (* Timeout and retry sequences are distinct, so (time, seq) orders
       the two heads strictly. *)
    let retry_first =
      retry_t < timeout_t
      || (retry_t = timeout_t && retries.Heap.len > 0
          && Heap.min_seq retries < Fifo.head_seq timeouts_due)
    in
    let queued_t = if retry_first then retry_t else timeout_t in
    if dep_t <= orig_t && dep_t <= queued_t then begin
      (* Departure first on a tie: the freed core is visible to the
         arrival dispatched at the same instant. *)
      clock.now <- dep_t;
      handle_departure !dep_core
    end
    else if orig_t <= queued_t then begin
      clock.now <- orig_t;
      let i = !next_orig in
      incr next_orig;
      clock.next_arrival <-
        (if !next_orig < n then unit_arrivals.(!next_orig) /. rate else infinity);
      handle_arrival i
    end
    else if retry_first then begin
      clock.now <- retry_t;
      handle_arrival (Heap.pop retries)
    end
    else begin
      clock.now <- timeout_t;
      handle_timeout (Fifo.pop timeouts_due)
    end
  done;
  let horizon = unit_arrivals.(n - 1) /. rate in
  let makespan = Float.max clock.last_completion epsilon_float in
  (* Saturation = the backlog outlived the arrivals by more than drain
     slack: 5% of the horizon, but never less than a handful of all-busy
     service times, so short sweeps are not flagged for the ordinary
     tail-draining every finite run ends with. *)
  let slack = Float.max (0.05 *. horizon) (10.0 *. service.(cores - 1)) in
  {
    o_config = cfg;
    o_policy = policy;
    hist;
    measured = !measured;
    achieved_rps = float_of_int !completions /. makespan;
    utilization = clock.busy_seconds /. (float_of_int cores *. makespan);
    saturated = makespan > horizon +. slack;
    max_outstanding = !max_outstanding;
    attempts = !attempts;
    completions = !completions;
    ok = !ok;
    timeouts = !timeouts;
    sheds = !sheds;
    give_ups = !give_ups;
    goodput_rps = float_of_int !ok /. makespan;
    retry_amplification = float_of_int !attempts /. float_of_int n;
  }

let run ?(policy = Policy.none) cfg ~service =
  validate cfg ~service;
  Policy.validate policy;
  simulate policy cfg ~service (draw cfg)

let run_rates ?(policy = Policy.none) cfg ~service ~rates =
  match rates with
  | [] -> []
  | _ :: _ ->
    let cfgs = List.map (fun rate -> { cfg with rate }) rates in
    List.iter (fun c -> validate c ~service) cfgs;
    Policy.validate policy;
    let traffic = draw cfg in
    List.map (fun c -> simulate policy c ~service traffic) cfgs
