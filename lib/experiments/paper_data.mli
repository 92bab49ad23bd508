(** Reference numbers transcribed from the paper, used to print
    paper-vs-measured columns in every reproduced table and figure. *)

type alloc_row = {
  one_core : float;  (** transactions/second, 1 core *)
  eight_cores : float;  (** transactions/second, 8 cores *)
}
(** One (workload, machine, allocator) row of Table 4. *)

type table4_row = {
  workload : string;  (** spec name, e.g. "mediawiki-ro" *)
  default_ : alloc_row;
  region : alloc_row;
  ddmalloc : alloc_row;
}

val table4_xeon : table4_row list

val table4_niagara : table4_row list

val rails_glibc_one_core_xeon : float
(** 8.0 transactions/second: the one-core Xeon glibc throughput that
    [bin/calibrate.ml] fits the Rails workload to.  Table 4 has no Rails
    row, so this target is not one of its cells. *)

val find_row : machine:string -> workload:string -> table4_row option

val speedup : alloc_row -> float

(** §4.3 headline numbers. *)

val region_mgmt_cut : float
(** Region allocator reduced memory-management CPU time by 85% on average
    (Figure 6). *)

val dd_mgmt_cut : float
(** DDmalloc reduced it by 56% on average (up to 65%). *)

val dd_consumption_overhead : float
(** Figure 9: DDmalloc consumed 24% more memory than the default on
    average. *)

val region_consumption_factor : float
(** Figure 9: the region allocator consumed ~3x the default on average
    (and more than 7x in the worst case). *)

(** §4.4 (Ruby on Rails, 8 Xeon cores, restart every 500 transactions). *)

val ruby_dd_over_glibc : float
(** +13.6% throughput. *)

val ruby_dd_over_tcmalloc : float
(** +5.3%. *)

val ruby_restart500_gain_dd : float
(** Figure 12: +4.0% for DDmalloc over never restarting. *)

val ruby_restart500_gain_glibc : float
(** Figure 12: +1.1% for glibc. *)
