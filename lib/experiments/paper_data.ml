type alloc_row = {
  one_core : float;
  eight_cores : float;
}

type table4_row = {
  workload : string;
  default_ : alloc_row;
  region : alloc_row;
  ddmalloc : alloc_row;
}

let row workload (d1, d8) (r1, r8) (m1, m8) =
  {
    workload;
    default_ = { one_core = d1; eight_cores = d8 };
    region = { one_core = r1; eight_cores = r8 };
    ddmalloc = { one_core = m1; eight_cores = m8 };
  }

(* Table 4 of the paper, throughput in transactions per second. *)
let table4_xeon =
  [
    row "mediawiki-ro" (25.3, 156.6) (26.4, 145.7) (26.4, 167.9);
    row "mediawiki-rw" (11.7, 79.6) (12.5, 59.7) (12.7, 85.5);
    row "sugarcrm" (19.4, 134.6) (20.8, 98.0) (21.1, 148.4);
    row "ez-publish" (28.5, 178.6) (31.8, 138.3) (32.2, 196.3);
    row "phpbb" (62.6, 402.4) (69.2, 393.5) (69.5, 447.2);
    row "cakephp" (28.3, 191.6) (31.6, 185.7) (30.8, 206.6);
    row "specweb" (188.6, 970.0) (197.3, 960.4) (194.3, 977.3);
  ]

let table4_niagara =
  [
    row "mediawiki-ro" (14.9, 111.0) (16.5, 113.3) (16.5, 122.2);
    row "mediawiki-rw" (5.2, 40.0) (5.5, 39.6) (5.6, 43.5);
    row "sugarcrm" (8.1, 64.4) (9.2, 62.3) (8.8, 69.7);
    row "ez-publish" (13.6, 99.4) (16.5, 94.4) (15.8, 110.8);
    row "phpbb" (30.5, 234.0) (35.9, 259.1) (34.0, 259.8);
    row "cakephp" (12.6, 96.7) (13.8, 101.6) (13.6, 103.8);
    row "specweb" (115.5, 699.3) (118.3, 705.4) (118.4, 709.2);
  ]

let rails_glibc_one_core_xeon = 8.0

let find_row ~machine ~workload =
  let rows =
    match machine with
    | "xeon" -> table4_xeon
    | "niagara" -> table4_niagara
    | _ -> []
  in
  List.find_opt (fun r -> r.workload = workload) rows

let speedup r = r.eight_cores /. r.one_core

let region_mgmt_cut = 0.85

let dd_mgmt_cut = 0.56

let dd_consumption_overhead = 0.24

let region_consumption_factor = 3.0

let ruby_dd_over_glibc = 0.136

let ruby_dd_over_tcmalloc = 0.053

let ruby_restart500_gain_dd = 0.040

let ruby_restart500_gain_glibc = 0.011
