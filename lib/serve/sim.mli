(** The discrete-event serving simulator: open-loop arrivals dispatched
    onto per-core FIFO run queues.

    One run plays [requests] arrivals through [cores] servers.  Service
    demand per request is [service.(k - 1) * m_i] where [k] is the number
    of concurrently busy cores when the request starts (the contention
    table from {!Contention.service_seconds}) and [m_i] an exponential
    mean-1 multiplier fixed per request.  Every run is a pure function of
    its configuration: arrivals, service multipliers and flow ids are
    pre-drawn from split {!Mm_stats.Rng} streams seeded by [seed], and
    retry jitter is consumed in event order off a fourth split, so a run
    is deterministic and independent of wall clock, process or domain
    count.

    Load sweeps reuse {e one} unit-rate arrival sequence scaled by
    [1 / rate] (see {!Arrival}), so raising the rate compresses the same
    traffic pattern: sweep points differ only in load, and latency curves
    are monotone in load by construction.  The arrivals, multipliers and
    flows depend on the seed, [requests], [arrival] and [cores] but not
    on the rate, so {!run_rates} draws them once for all its rates; each
    rate still splits its own retry stream off the seed, which keeps
    every run identical to a lone {!run}.

    The event loop allocates nothing per attempt: attempts are int ids
    with their state in one byte each, and the run queues, the timeout
    FIFO and the retry heap are int and float columns.  Choosing the
    next event reads four kept heads, with no scan.  The next departure
    is kept up to date: starting a service lowers it if that core
    finishes earlier, and only a departure rescans the cores.  The next
    original's arrival time is computed once, when the previous
    original is taken.  A departure goes first on a time tie with any
    other event, and the lowest core index goes first among equal
    departures.

    {b Overload resilience.}  A {!Policy.t} adds client deadlines,
    retries with capped exponential backoff + jitter, and admission
    control.  A client request (an "original") then becomes a chain of
    attempts; the outcome separates {e throughput} (all completions,
    including work finished after its client timed out) from {e goodput}
    (completions that made their deadline).  [?policy] defaults to
    {!Policy.none}, which reproduces the happy-path simulator exactly —
    same streams, same event order, same numbers. *)

type config = {
  cores : int;
  arrival : Arrival.kind;
  dispatch : Dispatch.policy;
  rate : float;
      (** offered load, requests/second; must be positive and finite *)
  requests : int;
  warmup_frac : float;
      (** leading fraction of requests excluded from the histogram *)
  seed : int;
}

type outcome = {
  o_config : config;
  o_policy : Policy.t;
  hist : Mm_stats.Histogram.t;
      (** sojourn time (queueing + service) of successful attempts,
          seconds, post-warmup *)
  measured : int;  (** requests recorded in [hist] *)
  achieved_rps : float;  (** all completions / makespan — raw throughput *)
  utilization : float;
      (** busy core-seconds / (cores × makespan), including wasted work *)
  saturated : bool;
      (** the run could not keep up: completing all requests overran the
          arrival horizon by more than the drain slack (5% of the
          horizon, floored at ten all-busy service times so short runs
          are not flagged for ordinary tail draining), i.e. the backlog
          grew without bound and sojourn times are departure-rate
          artifacts *)
  max_outstanding : int;  (** peak requests in the system at once *)
  attempts : int;
      (** arrivals processed, originals + retries ([= requests] under
          {!Policy.none}) *)
  completions : int;  (** attempts served to completion, timely or not *)
  ok : int;  (** completions that beat their deadline (goodput count) *)
  timeouts : int;  (** attempts whose client deadline expired *)
  sheds : int;  (** attempts rejected by admission control *)
  give_ups : int;  (** originals that exhausted every retry *)
  goodput_rps : float;  (** [ok] / makespan *)
  retry_amplification : float;
      (** [attempts] / [requests] — 1.0 means no retry storm *)
}

val run : ?policy:Policy.t -> config -> service:float array -> outcome
(** [service] is the contention table: [service.(k - 1)] seconds of
    demand with [k] cores busy; its length must be at least
    [config.cores] (higher concurrency clamps to the last entry).
    Raises [Invalid_argument] on a non-positive or non-finite rate, a
    non-positive request count,
    [warmup_frac] outside [0, 1), a short/empty/non-positive [service]
    table, or an invalid [policy] (see {!Policy.validate}). *)

val run_rates :
  ?policy:Policy.t -> config -> service:float array -> rates:float list -> outcome list
(** [run_rates cfg ~service ~rates] is [List.map (fun rate -> run
    { cfg with rate } ~service) rates], with the rate-independent
    traffic drawn once.  [config.rate] is ignored.  With [rates = []] it
    returns [[]] without validating anything; otherwise it raises
    [Invalid_argument] as {!run} does, for any of the rates, before
    simulating. *)
