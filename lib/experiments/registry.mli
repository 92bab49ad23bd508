(** The experiment registry: every table and figure of the paper's
    evaluation, plus the ablations, addressable by id.  This is the
    per-experiment index promised by DESIGN.md.

    Execution is a three-stage pipeline: each experiment's [plan]
    enumerates the simulation configurations it reads (pure), {!execute}
    simulates them on a domain pool ({!Mm_sched.Pool}), and [render]
    prints from the memoized measurements.  Because measurements are
    memoized per configuration and every simulation is hermetic, output
    is byte-identical at any [jobs] count. *)

type experiment = {
  id : string;  (** e.g. "fig5", "tab4", "abl-seg" *)
  title : string;
  desc : string;  (** one line for `mmstudy list` *)
  default_scale : float;
      (** the transaction scale `mmstudy run <id>` simulates at by
          default (experiments that clamp their own scale report the
          clamped value) *)
  plan : Context.t -> Context.key list;
      (** configurations the render reads; pure, nothing simulated *)
  render : Context.t -> unit;
      (** print the artifact from memoized measurements (simulating on
          demand for any configuration not prefetched) *)
}

val all : experiment list
(** In the paper's order: tab1, tab3, fig1, fig5, fig6, fig7, tab4, fig8,
    fig9, fig10, fig11, fig12, the beyond-the-paper latency experiment,
    then the ablations. *)

val find : string -> experiment option

val plan_all : Context.t -> Context.key list
(** Union (with duplicates) of every experiment's plan, in registry
    order; in {!Context.prefetch} a duplicate is a memory hit. *)

val execute : ?jobs:int -> Context.t -> Context.key list -> unit
(** Simulate the planned configurations on a pool of [jobs] domains
    (default {!Mm_sched.Pool.default_jobs}). *)

val run : ?jobs:int -> Context.t -> experiment -> unit
(** Plan, execute, then render one experiment. *)

val run_all : ?jobs:int -> Context.t -> unit
(** Plan-union, execute, then render every experiment with its header. *)

val ids : string list
