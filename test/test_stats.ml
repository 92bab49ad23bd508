(* Unit and property tests for mm_stats. *)

module Rng = Mm_stats.Rng
module Dist = Mm_stats.Dist
module Summary = Mm_stats.Summary
module Table = Mm_stats.Table
module Fixed_point = Mm_stats.Fixed_point

let check_float = Alcotest.(check (float 1e-9))

let check_close ~eps name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %g within %g, got %g" name expected eps actual

(* --- Rng --- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_rng_copy () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_rng_split () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check int) "split is independent" 0 !same

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of bounds: %d" v
  done

let test_rng_int_in () =
  let rng = Rng.create ~seed:9 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng ~lo:3 ~hi:7 in
    if v < 3 || v > 7 then Alcotest.failf "int_in out of bounds: %d" v;
    seen.(v - 3) <- true
  done;
  Alcotest.(check bool) "covers range" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "float out of [0,1): %g" v
  done

let test_rng_bool_extremes () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0" false (Rng.bool rng ~p:0.0);
    Alcotest.(check bool) "p=1" true (Rng.bool rng ~p:1.0)
  done

let test_rng_bool_frequency () =
  let rng = Rng.create ~seed:17 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bool rng ~p:0.3 then incr hits
  done;
  check_close ~eps:0.02 "p=0.3 frequency" 0.3
    (float_of_int !hits /. float_of_int n)

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:19 in
  let s = Summary.create () in
  for _ = 1 to 50_000 do
    Summary.add s (Rng.gaussian rng)
  done;
  check_close ~eps:0.03 "gaussian mean" 0.0 (Summary.mean s);
  check_close ~eps:0.03 "gaussian stddev" 1.0 (Summary.stddev s)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:23 in
  let s = Summary.create () in
  for _ = 1 to 50_000 do
    Summary.add s (Rng.exponential rng ~mean:4.0)
  done;
  check_close ~eps:0.1 "exponential mean" 4.0 (Summary.mean s)

(* --- Golden streams ---

   Exact outputs recorded from the original boxed-state generator and
   closure-based samplers.  Any reimplementation must reproduce every value
   bit for bit: a single differing draw would change every simulation
   downstream.  Floats are hexadecimal literals so the comparison is
   exact. *)

let int64_seed0 =
  [| -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
    -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
    3207296026000306913L; -4214222208109204676L; 4532161160992623299L;
    -884877559730491226L; 7313543279846440201L; -4408136866661146890L;
    -8781561602181964933L; -8205710985559103185L; -5382347917484077799L;
    -8882435919750266709L; |]

let float_seed0 =
  [| 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
    0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
    0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1; 0x1.f72bc4820e4c4p-3;
    0x1.e77091186d196p-1; 0x1.95fbb374f2c4ep-2; 0x1.85a64dc00ab7bp-1;
    0x1.0c43407fc177bp-1; 0x1.1c3eeaab30755p-1; 0x1.6a9c1e2c01989p-1;
    0x1.09767f2f2e3bp-1; |]

let exponential_seed0 =
  [| 0x1.7d2b06e7f863p+1; 0x1.42b8ee78d5af3p+4; 0x1.5cc761b298b55p+6;
    0x1.6b1d68eed9902p-1; 0x1.ae4821978a1b2p+5; 0x1.acd9d8b81fb8ap+4;
    0x1.4fe570f0bb9afp+5; 0x1.8e5fd1ad7959ep+2; 0x1.0d821ee50ecddp+5;
    0x1.2e06db960d62p+0; 0x1.6342edf42277ep+4; 0x1.a3721fae3bda5p+2;
    0x1.f06721cb24b34p+3; 0x1.c3f4eefe9de0ep+3; 0x1.08f535c16fdc5p+3;
    0x1.f875e37e6d048p+3; |]

let gaussian_seed0 =
  [| -0x1.cf9fb99cfab92p-2; 0x1.53470d1ebc1f5p+1; -0x1.fa2a51dfe785dp-1;
    0x1.0285969ebe6b7p-2; 0x1.99992ecac5d52p+0; 0x1.81fae2d6ddccbp-4;
    -0x1.11c125d48b7fep+0; -0x1.a66ed714dc55fp-1; 0x1.c96ab409c6d04p-4;
    0x1.fc93e88e35325p-1; -0x1.31ebbf711f888p-2; -0x1.75eb459238374p-3;
    -0x1.e9ff85a02ae38p-2; -0x1.b7f92fcde1141p-6; 0x1.b997442bfd459p-1;
    0x1.22f927bcd5758p-4; |]

let int64_seed42 =
  [| -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
    6349198060258255764L; 701532786141963250L; -2430762948046562554L;
    4028864712777624925L; -3677692746721775708L; 6270620877612482005L;
    -7037763681458882642L; 3779771651426294207L; 9094045341461139646L;
    -8976257307478440218L; -8854191821003330121L; -6176718654468026660L;
    3752715396868486130L; |]

let float_seed42 =
  [| 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
    0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
    0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2;
    0x1.3ca9ae7052feep-1; 0x1.a3a39253bad8cp-3; 0x1.f8d2283914594p-2;
    0x1.06dbdb12fe7c8p-1; 0x1.0a3f2ee68fdadp-1; 0x1.548fc63805cf1p-1;
    0x1.a0a2962a6be18p-3; |]

let exponential_seed42 =
  [| 0x1.cb40af11bd6bfp+2; 0x1.5ff6944191b1ap+5; 0x1.eabdf8ce3b7a2p+4;
    0x1.998f0d4f11c6bp+4; 0x1.39dc2c43c8bd4p+6; 0x1.b2138020ff038p+1;
    0x1.241c034518c47p+5; 0x1.5589283fb333p+2; 0x1.9e573ee2fefb2p+4;
    0x1.71039aba4a1b6p+3; 0x1.305cf1a9d98bfp+5; 0x1.0f97470863ce8p+4;
    0x1.0004057f33fa4p+4; 0x1.f632258066f8p+3; 0x1.3922b1efda898p+3;
    0x1.31be0c39c293ep+5; |]

let gaussian_seed42 =
  [| 0x1.a8ac4b546f509p-2; -0x1.c8a54f4e91a7cp-1; 0x1.bac69cd4142bfp+0;
    0x1.175b8fd2de8bap-1; -0x1.1495f183d321dp+0; -0x1.c76296a7a60e6p+0;
    -0x1.25473fd96d151p+0; 0x1.0ab38bced1168p-2; -0x1.1078cda70d963p+1;
    -0x1.a140709ec2429p-1; 0x1.0f1f32f8cb7ap-2; -0x1.79c439c8d1628p-1;
    -0x1.928f39ed87471p-2; 0x1.5dff12e6f25e6p-3; -0x1.e6d2c5d33f73p-4;
    0x1.7ac18a43ad71dp-2; |]

let split_stream =
  [| 6332618229526065668L; 2949826092126892291L; -816328817471504299L;
    5139283748462763858L; 8971565426155258802L; 6349198060258255764L;
    1242533817266198696L; 701532786141963250L; -5959852680200513735L;
    -2430762948046562554L; 1245346008178237623L; 4028864712777624925L;
    3603600226484403572L; -3677692746721775708L; -4893543810735773810L;
    6270620877612482005L; |]

let copy_stream =
  [| -7693578145408079413L; 8346079845500723674L; 4601199455465548305L;
    8632209307422871798L; 6051947643683389182L; 2476628477891077985L;
    7621113624420504425L; 1910343844960271083L; -740192640177446100L;
    -1512271731865832626L; -2373510095968312272L; -2508615849655462426L;
    -8332626420854716936L; -2220735309839870289L; 6020303405324641991L;
    -7025984793190031819L; |]

let check_int64_stream name expected next =
  Array.iteri
    (fun i e -> Alcotest.(check int64) (Printf.sprintf "%s[%d]" name i) e (next ()))
    expected

let check_float_stream name expected next =
  Array.iteri
    (fun i e ->
      let v = next () in
      if Int64.bits_of_float v <> Int64.bits_of_float e then
        Alcotest.failf "%s[%d]: expected %h, got %h" name i e v)
    expected

let test_rng_golden_streams () =
  List.iter
    (fun (seed, ints, floats, exps, gauss) ->
      let fresh () = Rng.create ~seed in
      let name s = Printf.sprintf "%s seed %d" s seed in
      let r = fresh () in
      check_int64_stream (name "next_int64") ints (fun () -> Rng.next_int64 r);
      let r = fresh () in
      check_float_stream (name "float") floats (fun () -> Rng.float r);
      let r = fresh () in
      check_float_stream (name "exponential") exps (fun () ->
          Rng.exponential r ~mean:24.0);
      let r = fresh () in
      check_float_stream (name "gaussian") gauss (fun () -> Rng.gaussian r))
    [
      (0, int64_seed0, float_seed0, exponential_seed0, gaussian_seed0);
      (42, int64_seed42, float_seed42, exponential_seed42, gaussian_seed42);
    ];
  (* Child and parent interleaved: the split must not disturb either. *)
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  let turn = ref 0 in
  check_int64_stream "split" split_stream (fun () ->
      incr turn;
      Rng.next_int64 (if !turn land 1 = 1 then child else parent));
  let r = Rng.create ~seed:7 in
  for _ = 1 to 3 do
    ignore (Rng.next_int64 r)
  done;
  let c = Rng.copy r in
  ignore (Rng.next_int64 r);
  check_int64_stream "copy" copy_stream (fun () -> Rng.next_int64 c)

(* --- Dist --- *)

let test_dist_constant () =
  let rng = Rng.create ~seed:1 in
  check_float "constant" 42.0 (Dist.sample (Dist.Constant 42.0) rng)

let test_dist_uniform_range () =
  let rng = Rng.create ~seed:2 in
  let d = Dist.Uniform { lo = 10.0; hi = 20.0 } in
  for _ = 1 to 1000 do
    let v = Dist.sample d rng in
    if v < 10.0 || v > 20.0 then Alcotest.failf "uniform out of range: %g" v
  done

let test_dist_discrete_values () =
  let rng = Rng.create ~seed:3 in
  let d = Dist.Discrete [| (1.0, 8.0); (2.0, 16.0); (1.0, 24.0) |] in
  for _ = 1 to 1000 do
    let v = Dist.sample d rng in
    Alcotest.(check bool) "discrete value" true
      (List.mem v [ 8.0; 16.0; 24.0 ])
  done

let test_dist_lognormal_mean () =
  let rng = Rng.create ~seed:4 in
  let mu = 3.0 and sigma = 0.8 in
  let expected = exp (mu +. (sigma *. sigma /. 2.0)) in
  let est =
    Dist.mean_estimate (Dist.Lognormal { mu; sigma }) rng ~samples:200_000
  in
  check_close ~eps:(expected *. 0.05) "lognormal mean" expected est

let test_dist_pareto_min () =
  let rng = Rng.create ~seed:5 in
  let d = Dist.Pareto { scale = 100.0; shape = 2.0 } in
  for _ = 1 to 1000 do
    if Dist.sample d rng < 100.0 then Alcotest.fail "pareto below scale"
  done

let test_dist_mixture_degenerate () =
  let rng = Rng.create ~seed:6 in
  let d = Dist.Mixture [| (0.0, Dist.Constant 1.0); (5.0, Dist.Constant 2.0) |] in
  for _ = 1 to 200 do
    check_float "mixture picks weighted branch" 2.0 (Dist.sample d rng)
  done

let test_dist_sample_size_min () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Dist.sample_size (Dist.Constant 1.0) rng ~min_bytes:8 in
    Alcotest.(check int) "clamped to min" 8 v
  done

let test_dist_zipf_range_and_skew () =
  let rng = Rng.create ~seed:8 in
  let n = 100 in
  let counts = Array.make n 0 in
  for _ = 1 to 50_000 do
    let r = Dist.zipf rng ~n ~s:1.1 in
    if r < 0 || r >= n then Alcotest.failf "zipf out of range: %d" r;
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 most popular" true
    (counts.(0) > counts.(n - 1));
  Alcotest.(check bool) "rank 0 beats rank 10" true (counts.(0) > counts.(10))

(* Golden draws for the samplers the workload generator leans on. *)

let mediawiki_sizes =
  [| 26; 16; 53; 32; 24; 32; 24; 24; 32; 8; 16; 32; 31; 26; 20; 24; 8; 24; 25;
    16; 56; 16; 24; 40; 32; 30; 74; 32; 493; 44; 16; 43; 40; 24; 32; 24; 55;
    31; 55; 32; 32; 32; 32; 40; 65; 24; 40; 32; 56; 24; 40; 56; 25; 16; 16;
    16; 40; 56; 56; 56; 16; 32; 36; 16; |]

let zipf_3064_105 =
  [| 276; 1; 5; 10; 0; 867; 3; 467; 9; 96; 3; 34; 40; 42; 142; 3; 1; 34; 0;
    174; 2018; 0; 82; 97; 0; 5; 277; 408; 1740; 182; 424; 671; 122; 396; 112;
    13; 0; 5; 328; 0; 46; 1; 5; 370; 146; 8; 0; 1; 37; 2268; 12; 2; 1; 8; 0;
    569; 167; 57; 925; 0; 4; 2170; 89; 0; |]

let zipf_24576_085 =
  [| 5472; 19; 97; 205; 1; 11919; 45; 7957; 195; 2327; 37; 854; 1016; 1074;
    3260; 36; 7; 872; 5; 3847; 19607; 3; 2023; 2350; 3; 96; 5487; 7243; 18038;
    3988; 7445; 10129; 2867; 7093; 2676; 297; 2; 83; 6212; 5; 1169; 18; 91;
    6772; 3333; 159; 4; 14; 945; 20914; 263; 29; 17; 157; 0; 9093; 3711; 1439;
    12405; 1; 76; 20410; 2176; 1; |]

let check_int_stream name expected next =
  Array.iteri
    (fun i e -> Alcotest.(check int) (Printf.sprintf "%s[%d]" name i) e (next ()))
    expected

let test_dist_golden_draws () =
  let r = Rng.create ~seed:42 in
  let sizes = Mm_workload.Spec.mediawiki_ro.Mm_workload.Spec.size_dist in
  check_int_stream "mediawiki-ro sizes" mediawiki_sizes (fun () ->
      Dist.sample_size sizes r ~min_bytes:8);
  let r = Rng.create ~seed:42 in
  check_int_stream "zipf 3064 1.05" zipf_3064_105 (fun () ->
      Dist.zipf r ~n:3064 ~s:1.05);
  let r = Rng.create ~seed:42 in
  check_int_stream "zipf 24576 0.85" zipf_24576_085 (fun () ->
      Dist.zipf r ~n:24576 ~s:0.85)

(* --- Summary --- *)

let test_summary_basic () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Summary.count s);
  check_float "mean" 2.5 (Summary.mean s);
  check_float "sum" 10.0 (Summary.sum s);
  check_float "min" 1.0 (Summary.min s);
  check_float "max" 4.0 (Summary.max s);
  check_close ~eps:1e-9 "variance" (5.0 /. 3.0) (Summary.variance s)

let test_summary_empty () =
  let s = Summary.create () in
  check_float "empty mean" 0.0 (Summary.mean s);
  check_float "empty variance" 0.0 (Summary.variance s)

let test_summary_merge () =
  let a = Summary.create () and b = Summary.create () and all = Summary.create () in
  let rng = Rng.create ~seed:77 in
  for i = 1 to 1000 do
    let v = Rng.float rng *. 10.0 in
    Summary.add (if i mod 2 = 0 then a else b) v;
    Summary.add all v
  done;
  let m = Summary.merge a b in
  Alcotest.(check int) "merged count" (Summary.count all) (Summary.count m);
  check_close ~eps:1e-9 "merged mean" (Summary.mean all) (Summary.mean m);
  check_close ~eps:1e-6 "merged variance" (Summary.variance all)
    (Summary.variance m);
  check_float "merged min" (Summary.min all) (Summary.min m);
  check_float "merged max" (Summary.max all) (Summary.max m)

(* --- Table --- *)

let contains_substring haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t =
    Table.create ~title:"render me" ~columns:[ ("a", Table.Left); ("b", Table.Right) ]
  in
  Table.add_row t [ "x"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (contains_substring s "render me");
  Alcotest.(check bool) "contains cell" true (contains_substring s "longer");
  Alcotest.(check bool) "right-aligns numbers" true
    (contains_substring s "| 22 |")

let test_table_trailing_separator_trimmed () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Table.add_row t [ "x" ];
  Table.add_separator t;
  let s = Table.render t in
  (* No double rule at the bottom: the rendered table ends with exactly one
     rule line. *)
  let lines = String.split_on_char '\n' (String.trim s) in
  let rec last2 = function
    | [ a; b ] -> (a, b)
    | _ :: rest -> last2 rest
    | [] -> ("", "")
  in
  let penultimate, last = last2 lines in
  Alcotest.(check bool) "last line is a rule" true
    (String.length last > 0 && last.[0] = '+');
  Alcotest.(check bool) "penultimate is the row" true
    (String.length penultimate > 0 && penultimate.[0] = '|')

let test_table_bad_row () =
  let t = Table.create ~title:"t" ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row arity" (Invalid_argument
    "Table.add_row: cell count does not match column count") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_formats () =
  Alcotest.(check string) "pct" "+12.3%" (Table.fmt_pct 0.123);
  Alcotest.(check string) "neg pct" "-5.0%" (Table.fmt_pct (-0.05));
  Alcotest.(check string) "ratio" "6.4x" (Table.fmt_ratio 6.4);
  Alcotest.(check string) "bytes small" "512 B" (Table.fmt_bytes 512);
  Alcotest.(check string) "bytes kb" "32.0 KB" (Table.fmt_bytes 32768);
  Alcotest.(check string) "bytes mb" "4.0 MB" (Table.fmt_bytes (4 * 1024 * 1024))

(* --- Fixed point --- *)

let test_fixed_point_linear () =
  (* x = 0.5 x + 2 has the fixed point 4. *)
  let v = Fixed_point.solve ~init:0.1 (fun x -> (0.5 *. x) +. 2.0) in
  check_close ~eps:1e-6 "linear contraction" 4.0 v

let test_fixed_point_constant () =
  let v = Fixed_point.solve ~init:100.0 (fun _ -> 7.0) in
  check_close ~eps:1e-6 "constant map" 7.0 v

(* --- Histogram --- *)

module Histogram = Mm_stats.Histogram

let hist_of l =
  let h = Histogram.create () in
  List.iter (Histogram.add h) l;
  h

let test_hist_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  check_float "min" 0.0 (Histogram.min_recorded h);
  check_float "max" 0.0 (Histogram.max_recorded h);
  check_float "quantile" 0.0 (Histogram.quantile h 0.5);
  check_float "quantile 1" 0.0 (Histogram.quantile h 1.0)

let test_hist_single_value () =
  let h = hist_of [ 0.25 ] in
  Alcotest.(check int) "count" 1 (Histogram.count h);
  check_float "min" 0.25 (Histogram.min_recorded h);
  check_float "max" 0.25 (Histogram.max_recorded h);
  (* The clamp makes every quantile of a single sample exact. *)
  List.iter
    (fun p -> check_float "quantile is the value" 0.25 (Histogram.quantile h p))
    [ 0.0; 0.5; 0.99; 1.0 ]

let test_hist_underflow_bucket () =
  (* Values at or below min_value are still counted. *)
  let h = hist_of [ 1e-9; 1e-8; 5.0 ] in
  Alcotest.(check int) "count" 3 (Histogram.count h);
  check_float "min" 1e-9 (Histogram.min_recorded h);
  Alcotest.(check bool) "p50 in range" true
    (Histogram.quantile h 0.5 >= 1e-9 && Histogram.quantile h 0.5 <= 5.0)

let test_hist_rejects_bad_values () =
  let h = Histogram.create () in
  let raises v =
    match Histogram.add h v with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative" true (raises (-1.0));
  Alcotest.(check bool) "nan" true (raises Float.nan);
  Alcotest.(check bool) "inf" true (raises Float.infinity);
  Alcotest.(check int) "nothing recorded" 0 (Histogram.count h)

let test_hist_rejects_bad_quantile () =
  let h = hist_of [ 1.0 ] in
  let raises p =
    match Histogram.quantile h p with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "p < 0" true (raises (-0.1));
  Alcotest.(check bool) "p > 1" true (raises 1.1);
  Alcotest.(check bool) "nan" true (raises Float.nan)

let test_hist_geometry_mismatch () =
  let a = Histogram.create ~precision:0.01 () in
  let b = Histogram.create ~precision:0.02 () in
  Alcotest.(check bool) "not same geometry" false (Histogram.same_geometry a b);
  match Histogram.merge a b with
  | _ -> Alcotest.fail "merge across geometries should raise"
  | exception Invalid_argument _ -> ()

(* QCheck generators: positive latencies well above the 1e-6 underflow
   floor, so the relative-error guarantee applies. *)
let gen_latencies =
  QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1e-3 1e3))

let hist_quantile_grid = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999; 1.0 ]

let prop_hist_quantiles_ordered =
  QCheck.Test.make ~name:"histogram: quantiles monotone, p50<=p99<=max"
    gen_latencies (fun xs ->
      let h = hist_of xs in
      let qs = List.map (Histogram.quantile h) hist_quantile_grid in
      let rec ordered = function
        | a :: (b :: _ as rest) -> a <= b && ordered rest
        | _ -> true
      in
      ordered qs
      && Histogram.quantile h 0.5 <= Histogram.quantile h 0.99
      && Histogram.quantile h 0.99 <= Histogram.max_recorded h
      && Histogram.min_recorded h <= Histogram.quantile h 0.0)

let prop_hist_relative_error =
  QCheck.Test.make
    ~name:"histogram: quantile within one bucket of the exact order statistic"
    gen_latencies (fun xs ->
      let h = hist_of xs in
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let rank =
            Stdlib.max 1
              (Stdlib.min n (int_of_float (Float.ceil (p *. float_of_int n))))
          in
          let exact = sorted.(rank - 1) in
          let q = Histogram.quantile h p in
          (* Upper bound of the exact value's bucket, so: never below the
             exact order statistic, never more than one bucket above. *)
          q >= exact *. (1.0 -. 1e-9)
          && q <= exact *. (1.0 +. Histogram.precision h) *. (1.0 +. 1e-9))
        [ 0.5; 0.9; 0.99; 1.0 ])

let hist_observables h =
  ( Histogram.count h,
    Histogram.min_recorded h,
    Histogram.max_recorded h,
    List.map (Histogram.quantile h) hist_quantile_grid )

let prop_hist_merge_associative =
  QCheck.Test.make ~name:"histogram: merge associative and commutative"
    QCheck.(triple gen_latencies gen_latencies gen_latencies)
    (fun (xs, ys, zs) ->
      let a () = hist_of xs and b () = hist_of ys and c () = hist_of zs in
      let left = Histogram.merge (Histogram.merge (a ()) (b ())) (c ()) in
      let right = Histogram.merge (a ()) (Histogram.merge (b ()) (c ())) in
      let swapped = Histogram.merge (b ()) (a ()) in
      hist_observables left = hist_observables right
      && hist_observables swapped
         = hist_observables (Histogram.merge (a ()) (b ())))

let prop_hist_merge_is_union =
  QCheck.Test.make ~name:"histogram: merge equals adding the union"
    QCheck.(pair gen_latencies gen_latencies)
    (fun (xs, ys) ->
      let m = Histogram.merge (hist_of xs) (hist_of ys) in
      hist_observables m = hist_observables (hist_of (xs @ ys)))

(* --- QCheck properties --- *)

let prop_summary_bounds =
  QCheck.Test.make ~name:"summary: min <= mean <= max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      Summary.min s <= Summary.mean s +. 1e-9
      && Summary.mean s <= Summary.max s +. 1e-9)

let prop_merge_commutes =
  QCheck.Test.make ~name:"summary: merge commutes on count and mean"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
        (list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let mk l =
        let s = Summary.create () in
        List.iter (Summary.add s) l;
        s
      in
      let m1 = Summary.merge (mk xs) (mk ys) in
      let m2 = Summary.merge (mk ys) (mk xs) in
      Summary.count m1 = Summary.count m2
      && Float.abs (Summary.mean m1 -. Summary.mean m2) < 1e-9)

let prop_dist_positive_sizes =
  QCheck.Test.make ~name:"sample_size respects min_bytes"
    QCheck.(pair small_int (int_range 1 64))
    (fun (seed, min_bytes) ->
      let rng = Rng.create ~seed in
      let d = Dist.Lognormal { mu = 3.0; sigma = 1.0 } in
      let ok = ref true in
      for _ = 1 to 50 do
        if Dist.sample_size d rng ~min_bytes < min_bytes then ok := false
      done;
      !ok)

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf stays in range"
    QCheck.(pair small_int (int_range 1 500))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let r = Dist.zipf rng ~n ~s:1.0 in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_summary_bounds; prop_merge_commutes; prop_dist_positive_sizes;
      prop_zipf_in_range ]

let hist_qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_hist_quantiles_ordered; prop_hist_relative_error;
      prop_hist_merge_associative; prop_hist_merge_is_union ]

let () =
  Alcotest.run "mm_stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bool extremes" `Quick test_rng_bool_extremes;
          Alcotest.test_case "bool frequency" `Quick test_rng_bool_frequency;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "golden streams" `Quick test_rng_golden_streams;
        ] );
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "uniform range" `Quick test_dist_uniform_range;
          Alcotest.test_case "discrete values" `Quick test_dist_discrete_values;
          Alcotest.test_case "lognormal mean" `Quick test_dist_lognormal_mean;
          Alcotest.test_case "pareto min" `Quick test_dist_pareto_min;
          Alcotest.test_case "mixture degenerate" `Quick test_dist_mixture_degenerate;
          Alcotest.test_case "sample_size min" `Quick test_dist_sample_size_min;
          Alcotest.test_case "zipf range and skew" `Quick test_dist_zipf_range_and_skew;
          Alcotest.test_case "golden draws" `Quick test_dist_golden_draws;
        ] );
      ( "summary",
        [
          Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "merge" `Quick test_summary_merge;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "trailing separator trimmed" `Quick
            test_table_trailing_separator_trimmed;
          Alcotest.test_case "bad row arity" `Quick test_table_bad_row;
          Alcotest.test_case "formats" `Quick test_table_formats;
        ] );
      ( "fixed_point",
        [
          Alcotest.test_case "linear" `Quick test_fixed_point_linear;
          Alcotest.test_case "constant" `Quick test_fixed_point_constant;
        ] );
      ( "histogram",
        Alcotest.test_case "empty" `Quick test_hist_empty
        :: Alcotest.test_case "single value" `Quick test_hist_single_value
        :: Alcotest.test_case "underflow bucket" `Quick
             test_hist_underflow_bucket
        :: Alcotest.test_case "rejects bad values" `Quick
             test_hist_rejects_bad_values
        :: Alcotest.test_case "rejects bad quantile" `Quick
             test_hist_rejects_bad_quantile
        :: Alcotest.test_case "geometry mismatch" `Quick
             test_hist_geometry_mismatch
        :: hist_qcheck_cases );
      ("properties", qcheck_cases);
    ]
