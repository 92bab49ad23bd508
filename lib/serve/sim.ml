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
    invalid_arg "Sim.run: rate must be positive";
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
   retries its policy spawns after sheds or timeouts. *)
type req_state = Queued | Serving | Done | Abandoned

type attempt = {
  a_orig : int;  (** index of the original request *)
  a_try : int;  (** 0 = original, k = k-th retry *)
  a_arrival : float;
  mutable a_state : req_state;
  mutable a_timed_out : bool;
}

(* Binary min-heap of retries on (time, push sequence).  Retries need one
   because their jittered backoff is not monotone in push order. *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable atts : attempt array;
    mutable len : int;
    empty : attempt;  (** fills unused slots *)
  }

  let create empty =
    { times = Array.make 16 0.0; seqs = Array.make 16 0;
      atts = Array.make 16 empty; len = 0; empty }

  let[@inline] before (t : float) (s : int) t' s' = t < t' || (t = t' && s < s')

  let move h ~src ~dst =
    h.times.(dst) <- h.times.(src);
    h.seqs.(dst) <- h.seqs.(src);
    h.atts.(dst) <- h.atts.(src)

  let push h time seq a =
    if h.len = Array.length h.times then begin
      let grow arr fill = Array.append arr (Array.make (Array.length arr) fill) in
      h.times <- grow h.times 0.0;
      h.seqs <- grow h.seqs 0;
      h.atts <- grow h.atts h.empty
    end;
    (* Sift a hole up from the end, then fill it. *)
    let i = ref h.len in
    while !i > 0 && before time seq h.times.((!i - 1) / 2) h.seqs.((!i - 1) / 2) do
      move h ~src:((!i - 1) / 2) ~dst:!i;
      i := (!i - 1) / 2
    done;
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.atts.(!i) <- a;
    h.len <- h.len + 1

  (* [infinity] when empty, so the caller needs no option. *)
  let[@inline] min_time h = if h.len = 0 then infinity else h.times.(0)

  let min_seq h = h.seqs.(0)

  let pop h =
    let top = h.atts.(0) in
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
    h.atts.(last) <- h.empty;
    top
end

(* FIFO of pending timeouts.  A timeout fires at [now + deadline] with
   [now] nondecreasing and the deadline fixed, so timeouts come due in
   push order and the head is always the earliest.  A ring buffer with
   power-of-two capacity, grown on demand. *)
module Fifo = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable atts : attempt array;
    mutable head : int;
    mutable len : int;
    empty : attempt;  (** fills unused slots *)
  }

  let create empty =
    { times = Array.make 16 0.0; seqs = Array.make 16 0;
      atts = Array.make 16 empty; head = 0; len = 0; empty }

  let grow q =
    let cap = Array.length q.times in
    let unroll arr fill =
      let bigger = Array.make (2 * cap) fill in
      Array.blit arr q.head bigger 0 (cap - q.head);
      Array.blit arr 0 bigger (cap - q.head) q.head;
      bigger
    in
    q.times <- unroll q.times 0.0;
    q.seqs <- unroll q.seqs 0;
    q.atts <- unroll q.atts q.empty;
    q.head <- 0

  let push q time seq a =
    if q.len = Array.length q.times then grow q;
    let i = (q.head + q.len) land (Array.length q.times - 1) in
    q.times.(i) <- time;
    q.seqs.(i) <- seq;
    q.atts.(i) <- a;
    q.len <- q.len + 1

  (* [infinity] when empty, so the caller needs no option. *)
  let[@inline] head_time q = if q.len = 0 then infinity else q.times.(q.head)

  let head_seq q = q.seqs.(q.head)

  let pop q =
    let a = q.atts.(q.head) in
    q.atts.(q.head) <- q.empty;
    q.head <- (q.head + 1) land (Array.length q.times - 1);
    q.len <- q.len - 1;
    a
end

(* The simulation clock and the float accumulators.  An all-float
   record is stored flat, so setting a field allocates nothing, and the
   event handlers read the time of the event from [now] instead of
   taking it as a (boxed) argument. *)
type clock = {
  mutable now : float;  (** time of the event being handled *)
  mutable busy_seconds : float;
  mutable last_completion : float;
}

let run ?(policy = Policy.none) cfg ~service =
  validate cfg ~service;
  Policy.validate policy;
  let n = cfg.requests in
  let cores = cfg.cores in
  let levels = Array.length service in
  (* All randomness up front, one split stream per purpose, so the event
     loop below is pure bookkeeping and a sweep's streams do not
     interleave differently as the rate changes.  The retry stream is
     split last: with [Policy.none] it is never drawn and the first three
     streams are bit-identical to the pre-policy simulator's. *)
  let root = Rng.create ~seed:cfg.seed in
  let arr_rng = Rng.split root in
  let svc_rng = Rng.split root in
  let flow_rng = Rng.split root in
  let retry_rng = Rng.split root in
  let unit = Arrival.unit_times cfg.arrival arr_rng n in
  let arrivals = Array.map (fun t -> t /. cfg.rate) unit in
  let mult = Array.init n (fun _ -> Rng.exponential svc_rng ~mean:1.0) in
  let flow = Array.init n (fun _ -> Rng.int flow_rng ~bound:(8 * cores)) in
  let warmup = int_of_float (cfg.warmup_frac *. float_of_int n) in
  (* Fills empty slots; also marks an idle core in [busy].  One per run:
     a module-level sentinel would be mutable state shared by every domain
     running sweeps. *)
  let no_attempt =
    { a_orig = -1; a_try = 0; a_arrival = 0.0; a_state = Done; a_timed_out = false }
  in

  (* Per core: the FIFO run queue, the attempt in service ([no_attempt]
     when idle), its completion time ([infinity] when idle) and its load,
     queued + in service.  Abandoned attempts count towards the load
     until the core discards them. *)
  let queues : attempt Queue.t array = Array.init cores (fun _ -> Queue.create ()) in
  let busy = Array.make cores no_attempt in
  let busy_done = Array.make cores infinity in
  let loads = Array.make cores 0 in
  let busy_count = ref 0 in
  let dispatcher = Dispatch.create cfg.dispatch ~cores in
  let load c = loads.(c) in

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
  let clock = { now = 0.0; busy_seconds = 0.0; last_completion = 0.0 } in

  (* An original is resolved by its first successful completion or by
     exhausting its retries; the run ends when every original is resolved
     and the servers have drained the leftover (zombie) work. *)
  let resolved = ref 0 in
  let orig_done = Array.make n false in
  let resolve_orig i =
    if not orig_done.(i) then begin
      orig_done.(i) <- true;
      incr resolved
    end
  in

  (* Three sources of timed events besides departures, each yielding its
     earliest first:
     - originals, read in order from the pre-drawn [arrivals]; original
       [i] carries sequence [i];
     - timeouts, in [timeouts_due];
     - retries, in [retries].
     On equal times the lower sequence goes first, which keeps the event
     order — and therefore the run — a pure function of the
     configuration.  Timeouts and retries draw sequences from [n] up in
     push order, so on a time tie an original goes before either. *)
  let next_orig = ref 0 in
  let timeouts_due = Fifo.create no_attempt in
  let retries = Heap.create no_attempt in
  let seq = ref n in
  let next_seq () =
    let s = !seq in
    incr seq;
    s
  in

  let retry_or_give_up (a : attempt) =
    if a.a_try < policy.Policy.max_retries then begin
      (* Capped exponential backoff for retry k = a_try + 1: base,
         2*base, 4*base, ... up to cap, scaled by a deterministic jitter
         draw from [1 - jitter, 1]. *)
      let b =
        Float.min policy.Policy.backoff_cap
          (policy.Policy.backoff_base *. (2.0 ** float_of_int a.a_try))
      in
      let j = policy.Policy.jitter in
      let b = if j <= 0.0 then b else b *. (1.0 -. j +. (j *. Rng.float retry_rng)) in
      let t = clock.now +. b in
      Heap.push retries t (next_seq ())
        { a_orig = a.a_orig; a_try = a.a_try + 1; a_arrival = t;
          a_state = Queued; a_timed_out = false }
    end
    else begin
      incr give_ups;
      resolve_orig a.a_orig
    end
  in

  let start_service core (a : attempt) =
    incr busy_count;
    let k = Int.min !busy_count levels in
    let dur = service.(k - 1) *. mult.(a.a_orig) in
    a.a_state <- Serving;
    busy.(core) <- a;
    busy_done.(core) <- clock.now +. dur;
    clock.busy_seconds <- clock.busy_seconds +. dur
  in

  let handle_arrival (a : attempt) =
    incr attempts;
    let core = Dispatch.pick dispatcher ~load ~flow:flow.(a.a_orig) in
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
      retry_or_give_up a
    end
    else begin
      incr outstanding;
      if !outstanding > !max_outstanding then max_outstanding := !outstanding;
      (match policy.Policy.deadline with
      | Some d -> Fifo.push timeouts_due (clock.now +. d) (next_seq ()) a
      | None -> ());
      loads.(core) <- loads.(core) + 1;
      if busy.(core) == no_attempt then start_service core a
      else Queue.push a queues.(core)
    end
  in

  let handle_timeout (a : attempt) =
    match a.a_state with
    | Done | Abandoned -> ()
    | Queued ->
      (* Client walks away; the slot is discarded when the core reaches
         it, so the abandoned request wastes queue space but no CPU. *)
      a.a_state <- Abandoned;
      a.a_timed_out <- true;
      incr timeouts;
      retry_or_give_up a
    | Serving ->
      (* Too late to shed: the server finishes the request anyway and
         the work is wasted — the essence of metastable overload. *)
      a.a_timed_out <- true;
      incr timeouts;
      retry_or_give_up a
  in

  let handle_departure core =
    let a = busy.(core) in
    a.a_state <- Done;
    incr completions;
    decr outstanding;
    clock.last_completion <- clock.now;
    busy.(core) <- no_attempt;
    busy_done.(core) <- infinity;
    loads.(core) <- loads.(core) - 1;
    decr busy_count;
    if not a.a_timed_out then begin
      incr ok;
      resolve_orig a.a_orig;
      if a.a_orig >= warmup then begin
        Histogram.add hist (Float.max 0.0 (clock.now -. a.a_arrival));
        incr measured
      end
    end;
    (* Start the next live attempt, discarding ones abandoned by their
       timeout while they waited. *)
    let q = queues.(core) in
    let started = ref false in
    while (not !started) && not (Queue.is_empty q) do
      let b = Queue.take q in
      match b.a_state with
      | Abandoned ->
        loads.(core) <- loads.(core) - 1;
        decr outstanding
      | Queued | Serving | Done ->
        start_service core b;
        started := true
    done
  in

  while !resolved < n || !busy_count > 0 do
    (* Next departure: argmin over [busy_done], where idle cores sit at
       [infinity]; ties go to the lowest core index. *)
    let dep_core = ref 0 in
    for c = 1 to cores - 1 do
      if busy_done.(c) < busy_done.(!dep_core) then dep_core := c
    done;
    let dep_t = busy_done.(!dep_core) in
    let orig_t = if !next_orig < n then arrivals.(!next_orig) else infinity in
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
      handle_arrival
        { a_orig = i; a_try = 0; a_arrival = orig_t; a_state = Queued;
          a_timed_out = false }
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
  let horizon = arrivals.(n - 1) in
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
