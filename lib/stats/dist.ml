type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Lognormal of { mu : float; sigma : float }
  | Pareto of { scale : float; shape : float }
  | Discrete of (float * float) array
  | Mixture of (float * t) array

(* Index of the entry whose cumulative weight first covers a uniform draw
   over the total.  Plain loops keep the float accumulators unboxed, so
   the pick allocates nothing.  Both sums run in array order: changing
   the order would change the rounding, and with it the picks. *)
let pick_weighted rng (entries : (float * _) array) =
  let n = Array.length entries in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. fst (Array.unsafe_get entries i)
  done;
  let target = Rng.float rng *. !total in
  let i = ref 0 in
  let acc = ref 0.0 in
  let picked = ref (-1) in
  while !picked < 0 do
    if !i >= n - 1 then picked := !i
    else begin
      acc := !acc +. fst (Array.unsafe_get entries !i);
      if target < !acc then picked := !i else incr i
    end
  done;
  !picked

(* Descend the mixtures to the component that will produce the variate;
   it returns an existing node, so nothing is allocated. *)
let rec leaf t rng =
  match t with
  | Mixture components -> leaf (snd components.(pick_weighted rng components)) rng
  | Constant _ | Uniform _ | Exponential _ | Lognormal _ | Pareto _
  | Discrete _ ->
    t

let[@inline] leaf_value t rng =
  match t with
  | Constant v -> v
  | Uniform { lo; hi } -> lo +. ((hi -. lo) *. Rng.float rng)
  | Exponential { mean } -> Rng.exponential rng ~mean
  | Lognormal { mu; sigma } -> exp (mu +. (sigma *. Rng.gaussian rng))
  | Pareto { scale; shape } ->
    let u = Float.max 1e-12 (Rng.float rng) in
    scale *. (u ** (-1.0 /. shape))
  | Discrete entries -> snd entries.(pick_weighted rng entries)
  | Mixture _ -> assert false

let sample t rng = leaf_value (leaf t rng) rng

let sample_size t rng ~min_bytes =
  let v = int_of_float (Float.round (leaf_value (leaf t rng) rng)) in
  if v < min_bytes then min_bytes else v

let mean_estimate t rng ~samples =
  assert (samples > 0);
  let acc = ref 0.0 in
  for _ = 1 to samples do
    acc := !acc +. sample t rng
  done;
  !acc /. float_of_int samples

(* Inverse-CDF on the harmonic weights via a cumulative walk is O(n);
   instead invert the continuous Zipf CDF, which is accurate enough for
   working-set modeling.  The normalisation [hn] and the exponent
   [1/(1-s)] depend only on (n, s), so a sampler computes them once. *)
type zipf_sampler = {
  n : int;
  harmonic : bool;  (* s = 1: the CDF is logarithmic *)
  one_minus_s : float;
  hn : float;
  inv_one_minus_s : float;
}

let zipf_sampler ~n ~s =
  assert (n > 0);
  let nf = float_of_int n in
  let one_minus_s = 1.0 -. s in
  let harmonic = s = 1.0 in
  {
    n;
    harmonic;
    one_minus_s;
    hn =
      (if harmonic then log (nf +. 1.0)
       else ((nf +. 1.0) ** one_minus_s -. 1.0) /. one_minus_s);
    inv_one_minus_s = 1.0 /. one_minus_s;
  }

let zipf_draw z rng =
  let u = Rng.float rng in
  let r =
    if z.harmonic then int_of_float (exp (u *. z.hn)) - 1
    else
      int_of_float (((u *. z.hn *. z.one_minus_s) +. 1.0) ** z.inv_one_minus_s)
      - 1
  in
  if r < 0 then 0 else if r >= z.n then z.n - 1 else r

let zipf rng ~n ~s = zipf_draw (zipf_sampler ~n ~s) rng
