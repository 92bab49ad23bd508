type experiment = {
  id : string;
  title : string;
  desc : string;
  default_scale : float;
  plan : Context.t -> Context.key list;
  render : Context.t -> unit;
}

(* Every experiment renders at the context scale (CLI default 0.25, the
   paper-fidelity reporting scale — see EXPERIMENTS.md); the ablation
   with a quadratic free-list policy clamps itself lower.  [default_scale]
   records what `mmstudy run <id>` will actually simulate at so `mmstudy
   list` can say so. *)
let reporting_scale = 0.25

let all =
  [
    {
      id = "tab1";
      title = "Table 1: allocation-approach taxonomy";
      desc =
        "Classify the allocators by reuse granularity and metadata placement";
      default_scale = reporting_scale;
      plan = Exp_tables.plan_tab1;
      render = Exp_tables.tab1;
    };
    {
      id = "tab3";
      title = "Table 3: per-transaction allocation statistics";
      desc = "Malloc/free/realloc counts and mean sizes per workload";
      default_scale = reporting_scale;
      plan = Exp_tables.plan_tab3;
      render = Exp_tables.tab3;
    };
    {
      id = "fig1";
      title = "Figure 1: region allocator on 8 Xeon cores (motivation)";
      desc = "The motivating slowdown: region-based PHP vs default at 8 cores";
      default_scale = reporting_scale;
      plan = Exp_throughput.plan_fig1;
      render = Exp_throughput.fig1;
    };
    {
      id = "fig5";
      title = "Figure 5: relative throughput, 8 cores, both machines";
      desc = "Throughput of region and DDmalloc vs default on Xeon and Niagara";
      default_scale = reporting_scale;
      plan = Exp_throughput.plan_fig5;
      render = Exp_throughput.fig5;
    };
    {
      id = "fig6";
      title = "Figure 6: CPU-time breakdown on 8 Xeon cores";
      desc = "Memory-management vs other CPU time per transaction";
      default_scale = reporting_scale;
      plan = Exp_profile.plan_fig6;
      render = Exp_profile.fig6;
    };
    {
      id = "fig7";
      title = "Figure 7: MediaWiki throughput vs number of cores";
      desc = "Core-count sweep: where the region allocator stops scaling";
      default_scale = reporting_scale;
      plan = Exp_throughput.plan_fig7;
      render = Exp_throughput.fig7;
    };
    {
      id = "tab4";
      title = "Table 4: speedups with 8 cores";
      desc = "8-core over 1-core speedup per workload and allocator";
      default_scale = reporting_scale;
      plan = Exp_throughput.plan_tab4;
      render = Exp_throughput.tab4;
    };
    {
      id = "fig8";
      title = "Figure 8: hardware-event changes vs the default allocator";
      desc = "Cache/TLB misses and bus transactions relative to default";
      default_scale = reporting_scale;
      plan = Exp_profile.plan_fig8;
      render = Exp_profile.fig8;
    };
    {
      id = "fig9";
      title = "Figure 9: memory consumption";
      desc = "Per-transaction peak memory; scale-sensitive, see its warning";
      default_scale = reporting_scale;
      plan = Exp_profile.plan_fig9;
      render = Exp_profile.fig9;
    };
    {
      id = "fig10";
      title = "Figure 10: Ruby on Rails throughput (general-purpose allocators)";
      desc = "glibc, Hoard, TCmalloc and DDmalloc under the Ruby runtime";
      default_scale = reporting_scale;
      plan = Exp_ruby.plan_fig10;
      render = Exp_ruby.fig10;
    };
    {
      id = "fig11";
      title = "Figure 11: Ruby on Rails CPU-time breakdown";
      desc = "Where Ruby transactions spend cycles per allocator";
      default_scale = reporting_scale;
      plan = Exp_ruby.plan_fig11;
      render = Exp_ruby.fig11;
    };
    {
      id = "fig12";
      title = "Figure 12: restart-period sweep";
      desc = "Throughput vs worker-restart period without bulk free";
      default_scale = reporting_scale;
      plan = Exp_ruby.plan_fig12;
      render = Exp_ruby.fig12;
    };
    {
      id = "latency";
      title = "Beyond the paper: tail latency and saturation per allocator";
      desc =
        "Serving simulator on the 8-core profiles: p99 vs load, max \
         sustainable RPS";
      default_scale = reporting_scale;
      plan = Exp_latency.plan;
      render = Exp_latency.render;
    };
    {
      id = "resilience";
      title = "Beyond the paper: overload resilience and retry-storm collapse";
      desc =
        "Deadlines+retries on the serving simulator: goodput, amplification \
         and the collapse onset per allocator";
      default_scale = reporting_scale;
      plan = Exp_resilience.plan;
      render = Exp_resilience.render;
    };
    {
      id = "abl-seg";
      title = "Ablation: DDmalloc segment size (§3.2)";
      desc = "Throughput/consumption across segment sizes, MediaWiki on Xeon";
      default_scale = reporting_scale;
      plan = Exp_ablation.plan_segment_size;
      render = Exp_ablation.segment_size;
    };
    {
      id = "abl-sc";
      title = "Ablation: DDmalloc size-class mapping (§3.2)";
      desc = "Paper vs power-of-two vs fine size-class schemes";
      default_scale = reporting_scale;
      plan = Exp_ablation.plan_size_classes;
      render = Exp_ablation.size_classes;
    };
    {
      id = "abl-meta";
      title = "Ablation: pid-staggered metadata on Niagara (§3.3-1)";
      desc = "L1-sharing contention with and without metadata staggering";
      default_scale = reporting_scale;
      plan = Exp_ablation.plan_metadata_offset;
      render = Exp_ablation.metadata_offset;
    };
    {
      id = "abl-lp";
      title = "Ablation: large pages on Xeon (§3.3-2)";
      desc = "DTLB relief from a large-page heap";
      default_scale = reporting_scale;
      plan = Exp_ablation.plan_large_pages;
      render = Exp_ablation.large_pages;
    };
    {
      id = "abl-fifo";
      title = "Ablation: free-list reuse order";
      desc =
        "LIFO vs FIFO vs address-ordered reuse (clamps itself to scale 0.05)";
      default_scale = 0.05;
      plan = Exp_ablation.plan_reuse_policy;
      render = Exp_ablation.reuse_policy;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let plan_all ctx = List.concat_map (fun e -> e.plan ctx) all

let execute ?jobs ctx keys =
  let jobs =
    match jobs with Some j -> j | None -> Mm_sched.Pool.default_jobs ()
  in
  Context.prefetch ctx ~jobs keys

let run ?jobs ctx e =
  execute ?jobs ctx (e.plan ctx);
  e.render ctx

let run_all ?jobs ctx =
  (* Plan-union first so the whole configuration set is visible to the
     scheduler at once; the overlap between experiments is memory hits
     in [Context.prefetch].  Rendering then only reads the memo table, so the
     output is byte-identical to the old compute-while-printing loop. *)
  execute ?jobs ctx (plan_all ctx);
  List.iter
    (fun e ->
      Printf.printf "### %s — %s\n\n%!" e.id e.title;
      e.render ctx)
    all

let ids = List.map (fun e -> e.id) all
