(** Random-variate distributions used by the workload models.

    Web-application allocation-size profiles are heavy-tailed mixtures: most
    requests are tiny interpreter cells (zvals, hashtable buckets) with a thin
    tail of buffers and strings.  The workload library expresses each
    application's size profile as a {!t}. *)

type t =
  | Constant of float  (** Always the same value. *)
  | Uniform of { lo : float; hi : float }  (** Uniform over [lo, hi]. *)
  | Exponential of { mean : float }
  | Lognormal of { mu : float; sigma : float }
      (** exp(N(mu, sigma)); classic heavy-tailed size model. *)
  | Pareto of { scale : float; shape : float }
      (** scale * U^(-1/shape); tail of large buffers. *)
  | Discrete of (float * float) array
      (** [(weight, value)] pairs; weights need not be normalized. *)
  | Mixture of (float * t) array
      (** [(weight, component)] pairs; weights need not be normalized. *)

val sample : t -> Rng.t -> float
(** Draw one variate.  Mixture components are picked by a cumulative walk
    over the weights that allocates nothing itself. *)

val sample_size : t -> Rng.t -> min_bytes:int -> int
(** Draw an allocation size in bytes: rounds the variate to an integer and
    clamps below at [min_bytes]. *)

val mean_estimate : t -> Rng.t -> samples:int -> float
(** Monte-Carlo estimate of the mean, used by calibration and tests. *)

val zipf : Rng.t -> n:int -> s:float -> int
(** [zipf rng ~n ~s] draws a rank in [0, n) with Zipf exponent [s] (rank 0 is
    the most popular).  Used for hot/cold working-set touches. *)

type zipf_sampler
(** {!zipf} for fixed [(n, s)], with the normalisation computed once. *)

val zipf_sampler : n:int -> s:float -> zipf_sampler

val zipf_draw : zipf_sampler -> Rng.t -> int
(** Same draw as [zipf rng ~n ~s], bit for bit, without recomputing the
    normalisation or allocating beyond {!Rng.float}'s result. *)
