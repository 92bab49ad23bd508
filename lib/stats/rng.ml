(* The SplitMix64 state lives unboxed in 8 bytes.  A [mutable int64]
   field would box a fresh Int64 on every advance; reading and writing the
   bytes keeps each draw free of allocation. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function: state advances by the golden gamma and the
   result is a finalizing mix of the new state. *)
let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

let split t = of_state (next t)

(* Non-negative 62-bit int from the top bits, avoiding sign trouble. *)
let[@inline] next_nonneg t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let int t ~bound =
  assert (bound > 0);
  next_nonneg t mod bound

let int_in t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* 53 random bits scaled into [0, 1). *)
let[@inline] scale53 bits = float_of_int bits *. (1.0 /. 9007199254740992.0)

let[@inline] float t = scale53 (bits53 t)

let bool t ~p =
  let p = if p < 0.0 then 0.0 else if p > 1.0 then 1.0 else p in
  float t < p

(* 53 random bits, redrawn while zero: the deviates below take the log of
   their scaled value, which must stay finite.  (Zero is the only draw
   whose scaled value is at most 1e-300.)  Returning the bits rather than
   the float keeps the loop out of the deviates, so an optimising build
   can inline them and leave their result unboxed. *)
let nonzero_bits53 t =
  let b = ref (bits53 t) in
  while !b = 0 do
    b := bits53 t
  done;
  !b

let[@inline] gaussian t =
  let u1 = scale53 (nonzero_bits53 t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let[@inline] exponential t ~mean = -.mean *. log (scale53 (nonzero_bits53 t))

