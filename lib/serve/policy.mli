(** Overload-resilience policy for the serving simulator: what the
    {e clients and front-end} do when the system falls behind.

    The paper's allocators differ most at the edge of capacity; this
    module supplies the machinery that turns "slow" into the failure
    modes real services exhibit there — request deadlines, client
    retries with capped exponential backoff and jitter, and admission
    control / load shedding at dispatch.  {!none} (no deadline, no
    retries, admit everything) reproduces the happy-path simulator
    exactly, so existing sweeps are the degenerate case of this policy.

    All policy randomness (retry jitter) is drawn from a dedicated split
    stream of the simulation seed, so a policy run is as deterministic
    as a plain one. *)

type admission =
  | Always  (** admit every arrival (clients still time out and retry) *)
  | Queue_limit of int
      (** shed an arrival when the chosen core already holds this many
          requests (queued + in service); the shed is an instant client
          failure, feeding the retry path.  Must be >= 1. *)
  | Deadline_aware
      (** shed when the chosen core's backlog alone predicts missing the
          deadline — cheaper than queueing work that is already dead.
          Admits everything if no deadline is set. *)

type t = {
  deadline : float option;
      (** client gives up after this many seconds (timeout); the request
          keeps occupying its queue slot or server — wasted work *)
  max_retries : int;  (** retries after the original attempt *)
  backoff_base : float;  (** first retry delay, seconds *)
  backoff_cap : float;  (** upper bound on any retry delay, seconds *)
  jitter : float;
      (** in [0, 1]: retry delay is scaled by a uniform draw from
          [1 - jitter, 1] — deterministic per seed, decorrelates
          synchronized retry storms *)
  admission : admission;
}

val none : t
(** No deadline, no retries, admit everything: byte-identical behavior to
    the pre-policy simulator. *)

val make :
  ?deadline:float ->
  ?max_retries:int ->
  ?backoff_base:float ->
  ?backoff_cap:float ->
  ?jitter:float ->
  ?admission:admission ->
  unit ->
  t
(** Defaults: no deadline, 0 retries, jitter 0.5, [Always].
    [backoff_base] defaults to half the deadline (or 10 ms without one);
    [backoff_cap] to 8x the base. *)

val is_none : t -> bool
(** Whether the policy is behaviorally {!none} (no deadline, no retries,
    admit everything). *)

val validate : t -> unit
(** Raises [Invalid_argument] on a non-positive deadline, negative
    retries, non-positive backoff base, cap below base, jitter outside
    [0, 1], or a queue limit below 1. *)

val admission_name : admission -> string
(** ["always"] | ["queue:<limit>"] | ["deadline-aware"]. *)

val admission_of_name : string -> (admission, string) result
(** Inverse of {!admission_name}; the [Error] names the valid forms. *)

val to_key : t -> string
(** Canonical, bit-exact ([%h]) rendering for store blob keys: equal
    policies produce equal keys. *)

val describe : t -> string
(** Human one-liner for CLI headers. *)
