(** Offered-load sweeps and their serialized form.

    A sweep runs the simulator at a list of offered rates — same seed,
    same unit-rate arrival pattern, same service table, same resilience
    policy — and condenses each run to a {!point}: the latency quantiles,
    saturation verdict and resilience metrics the experiment tables and
    the CLI print.

    Points serialize to a versioned line format with [%h] hex floats,
    mirroring the measurement codec: a decoded sweep is bit-identical to
    the one encoded, so store-served sweeps render byte-identically to
    fresh simulations.  {!of_string} never raises — malformed, truncated
    or wrong-version payloads are an [Error], which store readers treat
    as a miss. *)

type point = {
  rate : float;  (** offered load, requests/second *)
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;  (** sojourn-time quantiles, seconds *)
  lat_max : float;  (** worst measured sojourn, seconds *)
  achieved_rps : float;  (** raw throughput, late completions included *)
  goodput_rps : float;  (** completions that beat their deadline *)
  utilization : float;
  measured : int;
  saturated : bool;
  shed_rate : float;  (** sheds / attempts *)
  timeout_rate : float;  (** timeouts / attempts *)
  amplification : float;  (** attempts / requests; 1.0 = no retries *)
  failed : int;  (** originals that exhausted every retry *)
}

val schema_version : int
(** Bumped on any change to the point format; serve payloads also embed
    [Version.sim_fingerprint] via the store digest, so either bump
    invalidates stored sweeps. *)

val point_of_outcome : Sim.outcome -> point

val run :
  ?policy:Policy.t ->
  Sim.config ->
  service:float array ->
  rates:float list ->
  point list
(** One point per rate, in order, each equal to {!Sim.run} at that rate
    ([Sim.config.rate] is overridden).  The rate-independent traffic is
    drawn once for the whole sweep (see {!Sim.run_rates}).  [rates = []]
    gives [[]] without validating; an invalid rate raises
    [Invalid_argument]. *)

val max_sustainable : point list -> float option
(** Highest offered rate the system kept up with ([saturated = false]);
    [None] if every point saturated. *)

val collapsed : point -> bool
(** Goodput below half the offered rate: the metastable-overload knee. *)

val collapse_rate : point list -> float option
(** Lowest offered rate at which the sweep {!collapsed} — the onset of
    retry-storm collapse; [None] if goodput kept up everywhere. *)

val points_to_string : point list -> string

val points_of_string : string -> (point list, string) result
