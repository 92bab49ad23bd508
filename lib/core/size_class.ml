type scheme = {
  name : string;
  sizes : int array;
  map : Bytes.t;  (* size -> class index as one byte, for sizes in [0, max] *)
}

let name t = t.name

let max_size t = t.sizes.(Array.length t.sizes - 1)

let class_count t = Array.length t.sizes

let class_sizes t = Array.copy t.sizes

let index_of_size t n =
  assert (n >= 1 && n <= max_size t);
  Char.code (Bytes.get t.map n)

let size_of_index t i = t.sizes.(i)

let overhead t n = t.sizes.(Char.code (Bytes.get t.map n)) - n

let of_sizes ~name sizes =
  assert (Array.length sizes > 0 && Array.length sizes <= 256);
  Array.iteri
    (fun i s ->
      assert (s > 0);
      if i > 0 then assert (s > sizes.(i - 1)))
    sizes;
  let max = sizes.(Array.length sizes - 1) in
  (* Each request size maps to the smallest class that fits it: sizes in
     (sizes.(i-1), sizes.(i)] to class i.  One byte per size and one fill
     per class: decoding a stored DDmalloc configuration rebuilds this map
     (up to 64K sizes) on every store read, and an [int array] of that
     length costs 512 KB. *)
  let map = Bytes.make (max + 1) '\000' in
  for i = 1 to Array.length sizes - 1 do
    Bytes.fill map (sizes.(i - 1) + 1) (sizes.(i) - sizes.(i - 1)) (Char.chr i)
  done;
  { name; sizes; map }

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (p * 2)

let pow2_run ~from ~max_size =
  let rec go acc p = if p > max_size then List.rev acc else go (p :: acc) (p * 2) in
  go [] (pow2_at_least from from)

let paper ~max_size =
  assert (max_size >= 1024);
  let small = List.init 16 (fun i -> 8 * (i + 1)) in
  let medium = List.init 12 (fun i -> 160 + (32 * i)) in
  let large = pow2_run ~from:1024 ~max_size in
  of_sizes ~name:"paper" (Array.of_list (small @ medium @ large))

let power_of_two ~max_size =
  assert (max_size >= 8);
  of_sizes ~name:"pow2" (Array.of_list (pow2_run ~from:8 ~max_size))

let fine ~max_size =
  assert (max_size >= 1024);
  let small = List.init 64 (fun i -> 8 * (i + 1)) in
  let large = pow2_run ~from:1024 ~max_size in
  of_sizes ~name:"fine" (Array.of_list (small @ large))
